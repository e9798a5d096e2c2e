"""The ``qeuler`` command line: evaluate, tabulate, verify.

Subcommands
    eval    one evaluation -> one JSON record on stdout
    table   sweep one parameter -> CSV (default) or JSON array
    verify  run verification suites -> pass/fail lines (or JSON report)

``eval`` and ``table`` share six options: ``--q`` (a rational, 'a/b' or
decimal), ``--s`` ('re' or 're,im'), ``--k`` (order, default 1),
``--exact``, ``--eps`` and ``--max-terms``.  ``eval`` adds the other
parameters of its eight functions (``--m --x --char --a --F --p --N``)
and ``--method``.  ``table`` sweeps exactly one of ``--m a..b``,
``--s-grid a..b`` or ``--q-list q1,q2,...``; a ``--q-list`` sweep of
``qeuler`` takes its degree from ``--m-fixed``.  Every row of a table is
the record ``eval`` gives at that point.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 non-convergence.  Exact values are rendered as "num/den" strings that
parse back to the identical rational; numeric values use shortest
round-trip floats.  Identical invocations (including --seed) produce
byte-identical output.  The environment variable QEULER_MAX_TERMS
overrides the default series term cap (explicit --max-terms wins).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from ._verify import SUITES, Check, run_suites
from .characters import characters_mod
from .errors import DomainError, NearSingularError, NonConvergenceError, ResourceLimitError
from .euler_numbers import (
    euler_classical,
    qeuler_higher,
    qeuler_poly_exact,
    qeuler_poly_numeric,
)
from .fermionic import higher_order_stage
from .numeric import PAdicQParam
from .zeta import (
    PrecisionPolicy,
    SeriesValue,
    euler_zeta_neg_int_exact,
    euler_zeta_q,
    euler_zeta_q_direct,
    hurwitz_neg_int_exact,
    hurwitz_zeta_q,
    hurwitz_zeta_q_direct,
    l_neg_int_exact,
    l_series,
    l_series_direct,
    partial_zeta,
    partial_zeta_direct,
    partial_zeta_neg_int_exact,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Argument parsing helpers.


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from None


def _parse_s(text):
    parts = text.split(",")
    if len(parts) > 2:
        raise DomainError(f"s must be 're' or 're,im', got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise DomainError(f"cannot parse s {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise DomainError(f"s must be finite, got {text!r}")
    return complex(re, im)


def _parse_char(text):
    try:
        d_text, idx_text = text.split(":")
        d, idx = int(d_text), int(idx_text)
    except ValueError:
        raise DomainError(f"character must be 'modulus:index', got {text!r}") from None
    chars = characters_mod(d)
    if not 0 <= idx < len(chars):
        raise DomainError(f"character index {idx} out of range for modulus {d} (phi = {len(chars)})")
    return chars[idx]


def _parse_int_range(text):
    """'a..b' inclusive, or a single integer."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise DomainError(f"cannot parse range {text!r} (expected 'a..b')") from None
    if hi < lo:
        raise DomainError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_q_list(text):
    return [_parse_rational(part) for part in text.split(",")]


def _option(parse):
    """``parse`` as an argparse ``type``: argparse prints the message of an
    ArgumentTypeError after the option's name, but only the converter's name
    for a ValueError, which a DomainError is."""
    def convert(text):
        try:
            return parse(text)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _iroot(n, d):
    """Exact integer d-th root of n >= 0, or None."""
    if n < 0:
        return None
    lo, hi = 0, 1 << (n.bit_length() // d + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**d == n else None


def _exact_root(q, d):
    """Rational r with r**d = q, or a domain error explaining the need."""
    num = _iroot(q.numerator, d)
    den = _iroot(q.denominator, d)
    if num is None or den is None:
        raise DomainError(
            f"exact evaluation at x = a/{d} needs q to be an exact {d}-th power "
            f"of a rational; {q} is not"
        )
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Output records.


def _value_obj(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, complex):
        # + 0.0 folds IEEE negative zero into plain zero for stable goldens.
        return {"re": v.real + 0.0, "im": v.imag + 0.0}
    return {"re": float(v), "im": 0.0}


def _cell(v):
    """Render a record's value object as one CSV cell: exact rationals as
    num/den, numeric values as round-trip floats (complex when Im != 0)."""
    if "num" in v:
        return str(Fraction(v["num"], v["den"]))
    if v["im"] == 0:
        return repr(v["re"])
    return repr(complex(v["re"], v["im"]))


def _real_str(x):
    return str(int(x)) if x == int(x) else repr(x)


def _param_str(v):
    if isinstance(v, complex):
        if v.imag:
            return f"{_real_str(v.real)},{_real_str(v.imag)}"
        return _real_str(v.real)
    return str(v)


def _policy_from_args(args):
    max_terms, env = args.max_terms, os.environ.get("QEULER_MAX_TERMS")
    if max_terms is None and env is not None:
        try:
            max_terms = int(env)
        except ValueError:
            raise DomainError(f"QEULER_MAX_TERMS must be an integer, got {env!r}") from None
    return PrecisionPolicy(args.eps, PrecisionPolicy.max_terms if max_terms is None else max_terms)


# ---------------------------------------------------------------------------
# eval and table: one row per function.
#
# Each evaluator takes the parsed options and the series policy and returns
# the value: exact (or a closed-form float) or a SeriesValue.  Library
# functions are looked up in this module's globals at call time, so
# wrappers installed on these names (the benchmark's per-layer tracer) see
# every call.


def _exact_s(args, fn, allow_zero=False):
    """The m with s = -m (m > 0, or m >= 0 with allow_zero), else a domain error."""
    s = args.s
    if s.imag == 0 and s.real == int(s.real) and (s.real < 0 or (allow_zero and s.real == 0)):
        return -int(s.real)
    kind = "nonpositive" if allow_zero else "negative"
    raise DomainError(f"exact {fn} needs s a {kind} integer, got {s}")


def _exact_point(args, kind):
    """(r, d, a) for the exact point x = a/d at base q = r**d; x > 0, or
    x >= 0 where ``kind`` is "nonnegative"."""
    x = _parse_rational(args.x)
    if not (x > 0 or x == 0 and kind == "nonnegative"):
        raise DomainError(f"x must be {kind}, got {x}")
    return _exact_root(args.q, x.denominator), x.denominator, x.numerator


def _series(args, policy, continuation, direct, *point):
    """The series at (s, *point, q) by the route --method names."""
    route = direct if args.method == "direct" else continuation
    return route(args.s, *point, args.q, policy)


def _eval_qeuler(args, policy):
    value = qeuler_higher(args.m, args.k, args.q)
    return value if args.exact else float(value)


def _eval_qeuler_poly(args, policy):
    if args.exact:
        return qeuler_poly_exact(args.m, *_exact_point(args, "nonnegative"))
    return qeuler_poly_numeric(args.m, args.q, Fraction(args.x))


def _eval_classical(args, policy):
    return euler_classical(args.m, args.k)


def _eval_stage(args, policy):
    return higher_order_stage(args.m, args.k, PAdicQParam(args.p, args.q), args.N)


def _eval_zeta(args, policy):
    if args.exact:
        return euler_zeta_neg_int_exact(_exact_s(args, "zeta", True), args.q)
    return _series(args, policy, euler_zeta_q, euler_zeta_q_direct)


def _eval_hurwitz(args, policy):
    if args.exact:
        return hurwitz_neg_int_exact(_exact_s(args, "hurwitz"), *_exact_point(args, "positive"))
    return _series(args, policy, hurwitz_zeta_q, hurwitz_zeta_q_direct, Fraction(args.x))


def _eval_lseries(args, policy):
    chi = _parse_char(args.char)
    if args.exact:
        return l_neg_int_exact(_exact_s(args, "lseries"), chi, args.q)
    return _series(args, policy, l_series, l_series_direct, chi)


def _eval_partial(args, policy):
    if args.exact:
        return partial_zeta_neg_int_exact(_exact_s(args, "partial"), args.a, args.F, args.q)
    return _series(args, policy, partial_zeta, partial_zeta_direct, args.a, args.F)


_EXACT = "exact-negative-integer"

# name -> (the record's params in output order, each required but k, which
# defaults to 1; method of a non-series value; evaluator)
_FUNCTIONS = {
    "zeta": (("s", "q"), _EXACT, _eval_zeta),
    "hurwitz": (("s", "x", "q"), _EXACT, _eval_hurwitz),
    "lseries": (("s", "char", "q"), _EXACT, _eval_lseries),
    "partial": (("s", "a", "F", "q"), _EXACT, _eval_partial),
    "qeuler": (("m", "k", "q"), "closed-form", _eval_qeuler),
    "qeuler-poly": (("m", "q", "x"), "closed-form", _eval_qeuler_poly),
    "classical": (("m", "k"), "closed-form", _eval_classical),
    "integral-stage": (("m", "k", "p", "q", "N"), "stage", _eval_stage),
}


def _eval_record(args):
    policy = _policy_from_args(args)
    names, method, evaluate = _FUNCTIONS[args.function]
    params = {}
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise DomainError(f"--{name} is required for this function")
        params[name] = _param_str(value) if name in ("s", "q") else value
    value = evaluate(args, policy)
    err = terms = None
    if isinstance(value, SeriesValue):
        value, method, err, terms = (value.value, value.method, value.abs_error_estimate,
                                     value.terms_used)
    return {"function": args.function, "params": params, "value": _value_obj(value),
            "method": method, "err": err, "terms": terms}


def _cmd_eval(args):
    print(json.dumps(_eval_record(args)))
    return 0


# (table option, evaluator option) per sweep
_SWEEPS = (("m_range", "m"), ("s_grid", "s"), ("q_list", "q"))


def _table_rows(args):
    """Yield (sweep_name, sweep_value, record) per row in sweep order."""
    sweeps = [sweep for sweep in _SWEEPS if getattr(args, sweep[0]) is not None]
    if len(sweeps) != 1:
        raise DomainError("exactly one of --m, --s-grid, --q-list must sweep")
    sweep, name = sweeps[0]
    params = _FUNCTIONS[args.function][0]
    if name not in params:
        raise DomainError(f"{args.function} has no parameter {name} to sweep")
    if "m" in params and name != "m" and args.m is None:
        raise DomainError(f"table {args.function} needs --m-fixed unless it sweeps --m")
    for value in getattr(args, sweep):
        setattr(args, name, value)
        yield name, _param_str(value), _eval_record(args)


def _cmd_table(args):
    rows = list(_table_rows(args))
    if args.format == "json":
        print(json.dumps([rec for _, _, rec in rows], indent=2))
        return 0
    print(f"{rows[0][0]},value")
    for _, sweep_value, rec in rows:
        print(f"{sweep_value},{_cell(rec['value'])}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, seed=args.seed)
    if args.inject_failure:
        checks.append(Check("injected-failure", False, "requested via --inject-failure"))
    failed = [c for c in checks if not c.passed]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suites": names,
                    "seed": args.seed,
                    "passed": not failed,
                    "checks": [dataclasses.asdict(c) for c in checks],
                },
                indent=2,
            )
        )
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f": {c.detail}" if (not c.passed and c.detail) else ""
            print(f"{status} {c.name}{detail}")
        if failed:
            print(f"FAILED {len(failed)} of {len(checks)} checks")
        else:
            print(f"ok {len(checks)} checks")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Evaluate q-Euler numbers, zeta continuations, and L-series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options eval and table share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--q", type=_option(_parse_rational), help="base q, as 'a/b' or decimal")
    shared.add_argument("--s", type=_option(_parse_s), help="s as 're' or 're,im'")
    shared.add_argument("--k", type=int, default=1, help="order (default 1)")
    shared.add_argument("--exact", action="store_true", help="exact rational values")
    shared.add_argument("--eps", type=float, default=PrecisionPolicy.eps,
                        help="stopping threshold")
    shared.add_argument("--max-terms", type=int,
                        help=f"series term cap (default {PrecisionPolicy.max_terms}; "
                             "env QEULER_MAX_TERMS)")

    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate one function at one point")
    p_eval.add_argument("function", choices=list(_FUNCTIONS))
    p_eval.add_argument("--x", help="polynomial argument x (rational 'a/b' or decimal)")
    p_eval.add_argument("--char", help="Dirichlet character as 'modulus:index'")
    p_eval.add_argument("--m", type=int, help="degree")
    p_eval.add_argument("--a", type=int, help="residue class for partial zeta")
    p_eval.add_argument("--F", type=int, help="modulus for partial zeta")
    p_eval.add_argument("--p", type=int, help="odd prime for integral-stage")
    p_eval.add_argument("--N", type=int, help="stage index for integral-stage")
    p_eval.add_argument("--method", choices=["continuation", "direct"],
                        default="continuation", help="numeric series route")
    p_eval.set_defaults(run=_cmd_eval)

    p_table = sub.add_parser("table", parents=[shared], help="sweep one parameter into a table")
    p_table.add_argument("function", choices=["qeuler", "classical", "zeta"])
    p_table.add_argument("--m", dest="m_range", type=_option(_parse_int_range),
                         help="m sweep 'a..b'")
    p_table.add_argument("--m-fixed", dest="m", type=int, help="fixed m (for --q-list sweeps)")
    p_table.add_argument("--s-grid", type=_option(_parse_int_range), help="integer s sweep 'a..b'")
    p_table.add_argument("--q-list", type=_option(_parse_q_list), help="comma-separated q sweep")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.set_defaults(run=_cmd_table, method="continuation")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--inject-failure", action="store_true",
                          help="append one failing check (exit-code testing)")
    p_verify.set_defaults(run=_cmd_verify)

    return parser


_VALUE_OPTS = frozenset(
    {"--s", "--s-grid", "--m", "--m-fixed", "--x", "--q", "--q-list", "--eps"}
)


def _merge_negative_values(argv, options):
    """Join value options with a following ``-``-leading token that is not
    one of the parser's ``options``.

    argparse treats a bare ``-3..0`` or ``-inf`` as an option string;
    rewriting ``--s-grid -3..0`` to ``--s-grid=-3..0`` lets ranges,
    negative s, scientific eps and non-finite values through to their
    converters, which state why a value is refused.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and nxt.partition("=")[0] not in options:
                out.append(f"{tok}={nxt}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def _call_label(args):
    """The subcommand, function and route of a call, e.g. 'eval zeta (route direct)'."""
    function = getattr(args, "function", None)
    if function is None:
        return args.command
    method = _FUNCTIONS[function][1]
    route = "exact" if args.exact else args.method if method == _EXACT else method
    return f"{args.command} {function} (route {route})"


@functools.cache
def _parser():
    """The one parser of the process, built on the first call of ``main``
    (not at import); each parse gets a fresh namespace, so no option state
    carries over from one call to the next."""
    return _build_parser()


@functools.cache
def _option_strings():
    """Every option string of the parser, those of its subcommands included."""
    parser = _parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return frozenset(o for p in (parser, *sub.choices.values()) for a in p._actions
                     for o in a.option_strings)


def main(argv=None):
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv), _option_strings()))
    try:
        return args.run(args)
    except NonConvergenceError as exc:
        print(f"qeuler: non-convergence: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"qeuler: error: {_call_label(args)}: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ResourceLimitError, NearSingularError, ValueError) as exc:
        print(f"qeuler: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
