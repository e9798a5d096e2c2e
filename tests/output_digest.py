"""Print a digest of every benchmark op's output, to show that a refactor
changes no result bit.

For each workload of ``perfbench`` and each seed on the command line it
builds every op, timed and probe, with ``perfbench/inputs.py``'s
``build`` (imported read-only), runs each once, and encodes its result:
floats by ``float.hex`` (a complex by its two parts), ints in hex (no
limit on their length), Fractions by numerator and denominator, every
field of a result object (a ``SeriesValue``'s value, bound, terms and
method), a CLI call by its exit code, stdout and stderr, and a raise by
its type and message.  It prints one line per workload and seed: the
number of results and the SHA-256 of their encoding.  Equal lines on two
commits mean equal outputs.

    python3 tests/output_digest.py 1 2 3 4 5 6 7 8
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import qeuler  # noqa: E402
import qeuler.cli  # noqa: E402  (the CLI ops call qeuler.cli.main)
from inputs import WORKLOADS, build  # noqa: E402


def encode(value):
    """A JSON-ready form of ``value`` that keeps every bit of it."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return ["int", hex(value)]
    if isinstance(value, float):
        return ["float", value.hex()]
    if isinstance(value, complex):
        return ["complex", value.real.hex(), value.imag.hex()]
    if isinstance(value, Fraction):
        return ["Fraction", hex(value.numerator), hex(value.denominator)]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [encode(v) for v in value]]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__,
                {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}]
    return [type(value).__name__, repr(value)]


def run(op):
    """The encoded result of one op, as the benchmark runs it."""
    try:
        if op.cli:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = qeuler.cli.main(list(op.args[0]))
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
            return ["cli", rc, out.getvalue(), err.getvalue()]
        return encode(getattr(qeuler, op.fn)(*op.args))
    except Exception as exc:  # noqa: BLE001 - a raise is a result like any other
        return ["raised", type(exc).__name__, str(exc)]


def main(seeds):
    for workload in WORKLOADS:
        for seed in seeds:
            ops, probe = build(workload, seed, qeuler, ROOT)
            results = [run(op) for op in [*ops, *probe]]
            digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
            print(f"{workload:13} seed {seed}: {len(results):4} results  {digest}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]])
