"""Regenerate the ``verify`` goldens of ``test_cli.py``.

Each file ``golden/verify_all_seed{S}.json`` is the stdout of
``qeuler verify all --seed S --format json`` for S = 0..3: the name,
outcome and detail (case count or first failure) of every check, so a
change that keeps the checks but alters what they run or report shows up
as a byte difference.  ``golden/verify_all_seed0.txt`` is the stdout of
``qeuler verify all --seed 0`` in the default text format.  Regenerate
only when a check is meant to change, and review the diff:

    PYTHONPATH=src python3 tests/gen_verify_golden.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (0, 1, 2, 3)
TEXT_SEED = 0


def verify_args(seed):
    return ["verify", "all", "--seed", str(seed), "--format", "json"]


def verify_text_args(seed):
    return ["verify", "all", "--seed", str(seed)]


def write(path, args):
    out = subprocess.run(
        [sys.executable, "-m", "qeuler.cli", *args], capture_output=True, check=True,
    ).stdout
    path.write_bytes(out)
    print(f"wrote {path} ({len(out)} bytes)")


def main():
    for seed in SEEDS:
        write(GOLDEN / f"verify_all_seed{seed}.json", verify_args(seed))
    write(GOLDEN / f"verify_all_seed{TEXT_SEED}.txt", verify_text_args(TEXT_SEED))


if __name__ == "__main__":
    main()
