"""Print what importing the package costs: the median wall time, over N
fresh interpreters, of a bare ``import qeuler``, of the first read of one
public name of each library layer after it, and of ``import qeuler.cli``.

Each case runs in its own new process and times only the import and the
read, not the interpreter's start.  Without a bytecode cache (for example
under ``PYTHONDONTWRITEBYTECODE=1``) most of that time is compiling the
sources, so the figures depend on whether ``__pycache__`` is written.

    python3 tests/import_cost.py [N]    (N fresh processes per case, default 9)
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (label, statement run after `import qeuler` and timed with it)
CASES = [
    ("bare import qeuler", ""),
    ("first read of DomainError (errors)", "qeuler.DomainError"),
    ("first read of q_bracket (numeric)", "qeuler.q_bracket"),
    ("first read of qeuler_higher (euler_numbers)", "qeuler.qeuler_higher"),
    ("first read of stage_sum (fermionic)", "qeuler.stage_sum"),
    ("first read of characters_mod (characters)", "qeuler.characters_mod"),
    ("first read of euler_zeta_q (zeta)", "qeuler.euler_zeta_q"),
    ("import qeuler.cli", "import qeuler.cli"),
]

PROBE = """\
import time
t0 = time.perf_counter()
import qeuler
{}
print(time.perf_counter() - t0)
"""


def seconds(statement):
    """Wall time of ``import qeuler`` and ``statement`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE.format(statement)], capture_output=True,
                            text=True, env=env, timeout=60, check=True)
    return float(result.stdout)


def main(runs):
    print(f"median of {runs} fresh interpreters, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    # round robin over the cases, so that a slower spell of the machine
    # falls on all of them alike
    samples = [[seconds(statement) for _, statement in CASES] for _ in range(runs)]
    for (label, _), times in zip(CASES, zip(*samples)):
        print(f"{label:44} {statistics.median(times) * 1e3:7.1f} ms")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
