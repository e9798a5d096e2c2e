"""Benchmark for the qeuler reproduction: four seeded workloads, one command.

    python3 perfbench/run.py --workload exact-routes --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client.  One process issues the next
op only after the previous one returns; no threads, and no subprocesses
during the timed pass.  An op is one public library call, or one
``qeuler.cli.main(argv)`` call with stdout captured (cli-e2e).

``--trace 0`` prints the end-to-end metrics: after a warm-up cycle it
repeats whole cycles of the workload's ops until ``--seconds`` of op
time has passed, then checks every op's output (untimed).  Latencies are
CPU time scaled to nominal machine speed by a reference kernel run
between the ops (speed.py, and :func:`_timed_pass`).  ops_per_s is the
median over cycles of ops / scaled op time.  ``--trace 1`` runs an
untraced, a traced and another untraced cycle and prints the per-layer
metrics of the traced one.

Every run then evaluates the workload's known-defect probe once, untimed:
the inputs in the regions where ROADMAP item 1 finds wrong float values
(series-grid and cli-e2e only).  Its failures are listed by their inputs
and counted on a line of their own, outside ``correct``, ``attempted`` and
``failed``, which cover the timed ops; the traced run also reports them as
``zeta.probe_*`` metrics.  A fix of item 1 shows there.

The last line of stdout is the JSON result; the lines above it are the
human-readable report, including every failed op by its inputs.  The
spans of a traced run go to ``perfbench/out/``.

Exit code 0 when the run completed (whatever the outputs' verdict), 2
when the checkout has no ``src/qeuler`` to benchmark, 1 when the timed
ops were not CPU-bound (see :func:`_timed_pass`).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from checks import CHECKS, CliResult, Raised, SeriesOracle, series_family, within_bound  # noqa: E402
from inputs import WORKLOADS, build  # noqa: E402
from speed import REF_EVERY_S, REF_NOMINAL_S, REF_WINDOW_S, time_reference  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 9
SETUP_REFS = 15  # reference samples per set-up probe
WAIT_LIMIT = 2.0  # wall / CPU op time above which the ops are not CPU-bound
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def _import_qeuler(workload):
    sys.path.insert(0, str(SRC))
    import qeuler

    if workload == "cli-e2e":
        import qeuler.cli  # noqa: F401
    return qeuler


def _setup_probe(workload, seed):
    """Print the wall time of `import qeuler` plus input generation in this
    fresh process, and the mean CPU time of the reference kernel (speed.py)
    that the caller scales it by."""
    t0 = time.perf_counter()
    Q = _import_qeuler(workload)
    build(workload, seed, Q, ROOT)
    setup = time.perf_counter() - t0
    ref = statistics.fmean(time_reference() for _ in range(SETUP_REFS))
    print(repr(setup), repr(ref))


def _setup_seconds(workload, seed):
    """Medians over fresh processes of the set-up probe: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, ref = map(float, proc.stdout.split())
        scaled.append(setup * REF_NOMINAL_S / ref)
        raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def _call(op, Q):
    """Run one op; exceptions become :class:`Raised` results."""
    try:
        if op.cli:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = Q.cli.main(list(op.args[0]))
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 2
            return CliResult(rc, out.getvalue(), err.getvalue())
        return getattr(Q, op.fn)(*op.args)
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        return Raised.of(exc)


class Recorder:
    """Latencies, attempts and the first result of every op.

    Latencies go into arrays and later results are dropped, so the
    collector has no more to scan as the pass goes on.
    """

    def __init__(self, n):
        self.latency = array("d")
        self.attempts = [0] * n
        self.first = [None] * n
        self.unstable = set()  # ops whose later results differ from the first

    def add(self, i, result, seconds):
        self.latency.append(seconds)
        if self.attempts[i] == 0:
            self.first[i] = result
        elif result != self.first[i]:
            self.unstable.add(i)
        self.attempts[i] += 1


def _cycle(ops, Q, rec=None, tracer=None):
    clock = time.perf_counter
    busy = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        result = _call(op, Q)
        dt = clock() - t0
        busy += dt
        if rec is not None:
            rec.add(i, result, dt)
        if tracer is not None and op.cli and isinstance(result, CliResult):
            tracer.counts["cli"]["stdout_bytes"] += len(result.stdout.encode())
    return busy


def _timed_pass(ops, Q, seconds):
    """Whole cycles until ``seconds`` of op time, with reference samples
    between the ops (see speed.py).

    An op's latency is the CPU time of this process while it runs: the ops
    do no I/O and start no threads or processes, so wall time differs from
    it only by the time the host did not run the process, which on a
    shared host comes in bursts of milliseconds.  Run length and the
    reference spacing go by wall time.

    Returns the recorder, the scaled latency of every sample in it, the
    scaled op time of every cycle, and the raw wall and CPU op time of
    the pass.
    """
    clock, wall = time.process_time, time.perf_counter
    rec = Recorder(len(ops))
    ref_at, ref_s = array("d"), array("d")  # op time so far, reference kernel time
    # Windows of ops between two reference samples: the cycle, the op time
    # at the middle and half the length, and the window's first sample.
    win_cycle, win_mid, win_half, win_start = array("l"), array("d"), array("d"), array("l")
    busy = cpu = 0.0
    cycles = 0
    deadline = time.monotonic() + 2 * seconds + 60
    while busy < seconds and time.monotonic() < deadline:
        ref_at.append(busy)
        ref_s.append(time_reference())
        since = 0.0
        start = len(rec.latency)
        for i, op in enumerate(ops):
            w0, t0 = wall(), clock()
            result = _call(op, Q)
            dt = clock() - t0
            wdt = wall() - w0
            busy += wdt
            cpu += dt
            since += wdt
            rec.add(i, result, dt)
            if since >= REF_EVERY_S or i == len(ops) - 1:
                win_cycle.append(cycles)
                win_mid.append(busy - since / 2)
                win_half.append(since / 2)
                win_start.append(start)
                ref_at.append(busy)
                ref_s.append(time_reference())
                since = 0.0
                start = len(rec.latency)
        cycles += 1

    cum = [0.0]
    for ref in ref_s:
        cum.append(cum[-1] + ref)
    scaled = array("d", rec.latency)
    cycle_scaled = [0.0] * cycles
    ends = list(win_start[1:]) + [len(scaled)]
    for cycle, mid, half, start, end in zip(win_cycle, win_mid, win_half, win_start, ends):
        half = max(half, REF_WINDOW_S)
        lo, hi = bisect.bisect_left(ref_at, mid - half), bisect.bisect_right(ref_at, mid + half)
        factor = REF_NOMINAL_S * (hi - lo) / (cum[hi] - cum[lo])
        for k in range(start, end):
            scaled[k] *= factor
            cycle_scaled[cycle] += scaled[k]
    return rec, scaled, cycle_scaled, busy, cpu


def _verdict(workload, ops, rec, Q, oracle):
    failures = CHECKS[workload](ops, rec.first, Q, oracle)
    for i in rec.unstable:
        failures.setdefault(i, "result changed between attempts")
    attempted = sum(rec.attempts)
    failed = sum(rec.attempts[i] for i in failures)
    return failures, attempted, failed


def _tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _report_failures(ops, rec, failures):
    for i in sorted(failures):
        print(f"FAIL op {i} x{rec.attempts[i]}: {ops[i].label()} -- {failures[i]}")


def run_probe(workload, probe, Q, oracle, tracer=None):
    """Evaluate and check the known-defect probe once; print its failures."""
    if tracer is not None:
        tracer.install()
    try:
        results = [_call(op, Q) for op in probe]
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = CHECKS[workload](probe, results, Q, oracle) if probe else {}
    print(f"known-defect probe (ROADMAP item 1, untimed, not in the verdict): "
          f"{len(failures)} of {len(probe)} ops fail")
    for i in sorted(failures):
        print(f"  KNOWN DEFECT: {probe[i].label()} -- {failures[i]}")
    return failures


def _bound_held(tracer, oracle):
    """(series results within their own reported bound, series results)."""
    held = 0
    for name, bound, sv in tracer.series_results:
        a = dict(bound.arguments)
        extra = [a[k] for k in ("x", "chi", "a", "F") if k in a]
        policy = a.get("policy")
        eps = policy.eps if policy is not None else 1e-12
        ok, _, _ = within_bound(sv.value, sv.abs_error_estimate,
                                oracle.value(series_family(name), a["s"], a["q"], extra), eps)
        held += ok
    return held, len(tracer.series_results)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(workload, seed, seconds, Q, ops, probe):
    setup_s, raw_setup_s = _setup_seconds(workload, seed)
    _cycle(ops, Q)  # warm-up: caches and lazy set-up, untimed
    rec, scaled, cycle_scaled, busy, cpu = _timed_pass(ops, Q, seconds)
    if busy > WAIT_LIMIT * cpu:
        raise SystemExit(f"perfbench: ops took {busy:.3f} s of wall time but {cpu:.3f} s of CPU "
                         "time; they wait on something CPU-time latencies do not measure")
    rates = [len(ops) / s for s in cycle_scaled]  # ops per second of scaled op time
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    oracle = SeriesOracle(Q)
    failures, attempted, failed = _verdict(workload, ops, rec, Q, oracle)

    lat_ms = [x * 1000 for x in scaled]
    tail_ms, tail_pct = _tail(lat_ms)
    raw_ms = [x * 1000 for x in rec.latency]
    metrics = {
        "ops_per_s": _metric(statistics.median(rates), "1/s"),
        "op_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "op_tail_ms": _metric(tail_ms, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(f"workload {workload} seed {seed}: {len(rates)} cycles of {len(ops)} ops, "
          f"{busy:.3f} s of op time")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"  op_tail_ms is p{tail_pct:.2f} of {len(lat_ms)} samples ({TAIL_BEYOND} beyond it)")
    print(f"  wall/CPU op time {busy / cpu:.4f}; times scaled to nominal machine speed "
          f"(speed.py); raw CPU: ops_per_s {len(raw_ms) * 1000 / sum(raw_ms):.6g} (pass-wide), "
          f"op_p50_ms {statistics.median(raw_ms):.6g}, op_tail_ms {_tail(raw_ms)[0]:.6g}, "
          f"setup_s {raw_setup_s:.6g}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops, "
          f"{len(failures)} distinct)")
    _report_failures(ops, rec, failures)
    run_probe(workload, probe, Q, oracle)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _timed_cycle(ops, Q, rec=None, tracer=None):
    t0 = time.perf_counter()
    _cycle(ops, Q, rec, tracer)
    return time.perf_counter() - t0


def run_traced(workload, seed, Q, ops, probe):
    _cycle(ops, Q)  # warm-up
    plain = Recorder(len(ops))
    wall_before = _timed_cycle(ops, Q, plain)
    tracer = Tracer(Q)
    traced = Recorder(len(ops))
    tracer.install()
    try:
        wall_traced = _timed_cycle(ops, Q, traced, tracer)
    finally:
        tracer.uninstall()
    # Untraced cycles on both sides of the traced one, so a slow drift in
    # machine speed cancels out of the overhead ratio.
    wall_plain = (wall_before + _timed_cycle(ops, Q)) / 2

    oracle = SeriesOracle(Q)
    held, n_series = _bound_held(tracer, oracle)
    tracer.counts["zeta"]["bound_held_ratio"] = held / n_series if n_series else 1.0

    metrics = {name: _metric(v, unit) for name, (v, unit) in tracer.layer_metrics().items()}
    metrics["trace.overhead_ratio"] = _metric(wall_traced / wall_plain, "ratio")

    failures, attempted, failed = _verdict(workload, ops, plain, Q, oracle)
    t_fail, t_att, t_failed = _verdict(workload, ops, traced, Q, oracle)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path, tracer.spans[0][2] if tracer.spans else 0.0)

    print(f"workload {workload} seed {seed}: traced cycle of {len(ops)} ops, "
          f"{len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    _report_failures(ops, traced, t_fail)
    # The probe under a tracer of its own, so the cycle's metrics cover the
    # timed ops only.
    probe_tracer = Tracer(Q)
    run_probe(workload, probe, Q, oracle, probe_tracer)
    p_held, p_series = _bound_held(probe_tracer, oracle)
    metrics["zeta.probe_nonconvergence"] = _metric(
        probe_tracer.counts["zeta"]["nonconvergence"], "count")
    metrics["zeta.probe_bound_held_ratio"] = _metric(p_held / p_series if p_series else 1.0,
                                                     "ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"  zeta.bound_held_ratio over {n_series} series results, "
          f"zeta.probe_bound_held_ratio over {p_series}; "
          "time waited per layer: not applicable (one caller, one thread)")
    return {"correct": failed + t_failed == 0, "attempted": attempted + t_att,
            "failed": failed + t_failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qeuler" / "__init__.py").is_file():
        print(f"perfbench: no qeuler sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    Q = _import_qeuler(args.workload)
    if Path(Q.__file__).resolve().parent != (SRC / "qeuler").resolve():
        print(f"perfbench: imported qeuler from {Q.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops, probe = build(args.workload, args.seed, Q, ROOT)
    if args.trace:
        result = run_traced(args.workload, args.seed, Q, ops, probe)
    else:
        result = run_timed(args.workload, args.seed, args.seconds, Q, ops, probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
