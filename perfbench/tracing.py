"""Spans around the calls into each layer of ``qeuler``, recorded from outside.

Nothing in the package is edited.  :meth:`Tracer.install` replaces, by
attribute assignment, every public function of each layer module in the
namespaces that call it from outside: the package namespace (the
workload's own calls) and every other ``qeuler`` module that imported
it.  Calls inside the defining module are not spans.  Two extra entry
points are wrapped: ``cli.main`` (the CLI workload's call) and
``DirichletCharacter.__call__`` on the class, so every chi(n) is a
``characters`` span wherever it is evaluated.  :meth:`Tracer.uninstall`
puts every original back.

Spans stay in memory as [layer, name, start, end, parent, op] and are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children.  There is one caller and one thread,
so no layer waits on another: time waited is not applicable.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("numeric", "euler_numbers", "fermionic", "characters", "zeta", "cli", "_verify")

# (metric, unit) per layer, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "fermionic": (("calls", "count"), ("self_s", "s"), ("loop_terms", "count"), ("result_bits", "bit")),
    "euler_numbers": (("calls", "count"), ("self_s", "s"), ("result_bits", "bit")),
    "characters": (("calls", "count"), ("self_s", "s"), ("result_bits", "bit")),
    "numeric": (("calls", "count"), ("self_s", "s")),
    "zeta": (("calls", "count"), ("self_s", "s"), ("series_terms", "count"),
             ("nonconvergence", "count"), ("bound_held_ratio", "ratio"), ("result_bits", "bit")),
    "cli": (("calls", "count"), ("self_s", "s"), ("stdout_bytes", "byte")),
    "_verify": (("calls", "count"), ("self_s", "s"), ("checks", "count")),
}


def metric_name(layer, metric):
    return f"{layer.lstrip('_')}.{metric}"


def result_bits(value):
    """Sum of numerator + denominator bit lengths of the exact values in a result."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, (list, tuple)):
        return sum(result_bits(v) for v in value)
    stages = getattr(value, "stages", None)  # StageReport
    if stages is not None:
        return sum(result_bits(S) for _, S in stages)
    return 0


def loop_terms(name, bound):
    """Inner-loop iterations of a fermionic call, from its arguments.

    stage_sum: one pass of p^N terms per integrand term; convergence_report:
    that for every stage 1..N_max; higher_order_stage: the k convolutions
    (axis vector, then len(combined) * p^N multiply-adds) and the final pass.
    """
    a = bound.arguments
    ctx = a["ctx"]
    if name == "stage_sum":
        return len(a["f"].terms) * ctx.p ** a["N"]
    if name == "convergence_report":
        return len(a["f"].terms) * sum(ctx.p**N for N in range(1, a["N_max"] + 1))
    if name == "higher_order_stage":
        P, k = ctx.p ** a["N"], a["k"]
        conv = sum((P - 1) + ((i - 1) * (P - 1) + 1) * P for i in range(1, k + 1))
        return conv + k * (P - 1) + 1
    return 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = -1
        self.counts = {layer: Counter() for layer in LAYERS}
        self.series_results = []  # (function name, bound arguments, SeriesValue)
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        prefix = self.package.__name__
        layer_modules = {layer: importlib.import_module(f"{prefix}.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer, mod in layer_modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(layer, name, fn)
                for other in modules:
                    if other is mod:
                        continue
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            self._patch(other, attr, traced)
        cli = layer_modules["cli"]
        self._patch(cli, "main", self._wrap("cli", "main", cli.main))
        chi_cls = layer_modules["characters"].DirichletCharacter
        self._patch(chi_cls, "__call__",
                    self._wrap("characters", "DirichletCharacter.__call__", chi_cls.__call__))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observer(layer, name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                stack.pop()
                if observe:
                    observe(args, kwargs, None, exc)
                raise
            span[3] = clock()
            stack.pop()
            if observe:
                observe(args, kwargs, result, None)
            return result

        return traced

    def _observer(self, layer, name, fn):
        """Per-call counters for the layer, or None when it has none."""
        counts = self.counts[layer]
        if layer == "fermionic":
            sig = inspect.signature(fn)

            def observe(args, kwargs, result, exc):
                counts["loop_terms"] += loop_terms(name, sig.bind(*args, **kwargs))
                counts["result_bits"] += result_bits(result)
            return observe
        if layer in ("euler_numbers", "characters"):
            def observe(args, kwargs, result, exc):
                counts["result_bits"] += result_bits(result)
            return observe
        if layer == "zeta":
            sig = inspect.signature(fn)
            series = self.series_results

            def observe(args, kwargs, result, exc):
                if exc is not None:
                    partial = getattr(exc, "partial", None)
                    if type(exc).__name__ == "NonConvergenceError":
                        counts["nonconvergence"] += 1
                    if partial is not None:
                        counts["series_terms"] += partial.terms_used
                elif hasattr(result, "terms_used"):
                    counts["series_terms"] += result.terms_used
                    series.append((name, sig.bind(*args, **kwargs), result))
                else:
                    counts["result_bits"] += result_bits(result)
            return observe
        if layer == "_verify" and name == "run_suites":
            def observe(args, kwargs, result, exc):
                counts["checks"] += len(result) if result is not None else 0
            return observe
        return None

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """calls and self_s per layer, plus the counters, keyed by metric name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        calls = Counter()
        self_s = Counter()
        for i, span in enumerate(self.spans):
            calls[span[0]] += 1
            self_s[span[0]] += (span[3] - span[2]) - child[i]
        out = {}
        for layer, metrics in LAYER_METRICS.items():
            for metric, unit in metrics:
                if metric == "calls":
                    value = calls[layer]
                elif metric == "self_s":
                    value = self_s[layer]
                else:
                    value = self.counts[layer][metric]
                out[metric_name(layer, metric)] = (value, unit)
        return out

    def write_spans(self, path, t0):
        """One JSON object per span; times in seconds from ``t0``."""
        with open(path, "w") as fh:
            for i, (layer, name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": f"{layer.lstrip('_')}.{name}",
                                     "start": round(start - t0, 9), "end": round(end - t0, 9),
                                     "parent": parent, "op": op}) + "\n")
