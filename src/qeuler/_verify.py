"""Verification suites behind ``qeuler verify``.

Each suite is a table of checks.  A row is ``(name, cases, tol)``, or
``(name, cases, tol, summary)``: ``cases`` yields ``(label, got, want)``
and ``tol`` is ``None`` for exact equality ``got == want``, else the
relative tolerance of a floating comparison.  One runner, :func:`_run`,
evaluates every row: it owns the pass rule, counts the cases, and reports
the first failing case with its residual ``got - want`` (or
``|got - want|`` against its bound), so a failure is reproducible from
the printed line alone.  ``summary``, if given, replaces the case count
of a passing row.  A check whose report is bespoke (the pinned p-adic
convergence runs, the induced character mod 9) is a finished
:class:`Check` in its table.

Every suite is a function of ``seed``; :func:`_seeded` builds its table
from ``random.Random(seed)``, the only source of randomness, so a seed
pins the whole run.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import (
    Integrand,
    PAdicQParam,
    characters_mod,
    classical_multiplication_residual,
    conductor,
    distribution_residual,
    euler_classical,
    euler_zeta_neg_int_exact,
    euler_zeta_q,
    euler_zeta_q_direct,
    generalized_qeuler,
    higher_order_stage,
    hurwitz_neg_int_exact,
    hurwitz_zeta_q,
    hurwitz_zeta_q_direct,
    l_neg_int_decomposition,
    l_neg_int_exact,
    l_series,
    l_series_direct,
    multiplication_residual_x0,
    p_valuation,
    partial_zeta,
    partial_zeta_direct,
    partial_zeta_neg_int_exact,
    qeuler_higher,
    qeuler_mixed,
    qeuler_poly_exact,
    stage_sum,
)
from .characters import _exponent_sum_is_zero

__all__ = ["Check", "SUITES", "run_suites"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _run(name, cases, tol=None, summary=None):
    """The check ``name``: passes iff every case has got == want (tol None)
    or |got - want| <= tol * max(1, |want|)."""
    count = 0
    for label, got, want in cases:
        count += 1
        if tol is None:
            if got == want:
                continue
            # a truth value has no residual: the case alone is reported
            why = "" if isinstance(got, bool) else f": residual = {got - want}"
        else:
            err = abs(got - want)
            bound = tol * max(1.0, abs(want))
            if err <= bound:
                continue
            why = f": |{got} - {want}| = {err} > {bound}"
        return Check(name, False, f"first failure at {label}{why}")
    if summary is None:
        if tol is None:
            summary = f"{count} cases, all residuals exactly 0"
        else:
            summary = f"{count} cases within {tol} relative"
    return Check(name, True, summary)


def _seeded(table):
    """The suite of ``seed`` whose checks are the rows of ``table(rng)``."""

    @functools.wraps(table)
    def suite(seed):
        rows = table(random.Random(seed))
        return [row if isinstance(row, Check) else _run(*row) for row in rows]

    return suite


def _random_q(rng):
    den = rng.choice([7, 10, 16, 23, 100])
    return Fraction(rng.randrange(1, den), den)


@_seeded
def suite_identities(rng):
    qs = [Fraction(1, 2), Fraction(2, 3)] + [_random_q(rng) for _ in range(4)]
    half = Fraction(1, 2)
    return [
        ("identities/E1-constant", ((f"q={q}", qeuler_higher(1, 1, q), -half) for q in qs)),
        (
            "identities/E0-closed-form",
            ((f"q={q}", qeuler_higher(0, 1, q), (1 + q) / 2) for q in qs),
        ),
        (
            "identities/E2-closed-form",
            ((f"q={q}", qeuler_higher(2, 1, q), (1 - q) / (2 * (1 + q**2))) for q in qs),
        ),
        (
            "identities/mixed-diagonal",
            # E_{m,m} = E_m against the terminating continuation, a separate route
            ((f"m={m}", qeuler_mixed(m, m, half),
              hurwitz_neg_int_exact(m, half, 1, 0) if m else (1 + half) / 2) for m in range(16)),
        ),
        (
            "identities/distribution",
            (
                (f"n={n} d={d} x={x} q={q}", distribution_residual(n, d, x, q), 0)
                for q in qs[:3]
                for n in range(6)
                for d in (1, 3, 5)
                for x in (0, 1, 2)
            ),
        ),
        (
            "identities/multiplication-x0",
            (
                (f"m={m} n={n} q={q}", multiplication_residual_x0(m, n, q), 0)
                for q in qs[:2]
                for m in range(7)
                for n in (1, 3, 5)
            ),
        ),
        (
            "identities/classical-multiplication",
            (
                (f"m={m} n={n}", classical_multiplication_residual(m, n), 0)
                for m in range(1, 9)
                for n in (1, 3, 5)
            ),
        ),
        (
            "identities/classical-limit",
            (
                (
                    f"m={m} k={k}",
                    float(qeuler_higher(m, k, 1 - Fraction(1, 10**6))),
                    float(euler_classical(m, k)),
                )
                for m in range(7)
                for k in (1, 2, 3)
            ),
            1e-4,
        ),
    ]


@_seeded
def suite_interpolation(rng):
    qs = [Fraction(1, 2), Fraction(2, 3), Fraction(9999, 10000), _random_q(rng)]
    return [
        (
            "interpolation/zeta-neg-int",
            (
                (f"m={m} q={q}", euler_zeta_neg_int_exact(m, q), qeuler_higher(m, 1, q))
                for q in qs
                for m in range(1, 13)
            ),
        ),
        (
            "interpolation/zeta-sign-boundary",
            ((f"q={q}", euler_zeta_neg_int_exact(0, q), -(1 + q) / 2) for q in qs),
        ),
        (
            "interpolation/hurwitz-neg-int",
            (
                (
                    f"m={m} r={r} d={d} a={a}",
                    hurwitz_neg_int_exact(m, r, d, a),
                    qeuler_poly_exact(m, r, d, a),
                )
                for r in (Fraction(1, 2), Fraction(2, 3))
                for m in range(1, 9)
                for d in (1, 3, 5)
                for a in range(1, d + 1)
            ),
        ),
        (
            "interpolation/continuation-terminates",
            (
                (f"m={m} q={q}", euler_zeta_q(-m, float(q)).value, float(qeuler_higher(m, 1, q)))
                for q in (Fraction(1, 2), Fraction(2, 3))
                for m in range(1, 7)
            ),
            1e-12,
        ),
        (
            "interpolation/sign-boundary-continuation",
            ((f"q={q}", euler_zeta_q(0, float(q)).value, -(1 + float(q)) / 2) for q in qs),
            1e-12,
        ),
    ]


# Committed regression values for the p-adic convergence runs (p = 3, q = 4):
# stage valuations v_3(S_N - reference) per (m, k).
_PADIC_PINS = [
    # (m, k, N_max, reference, expected valuations)
    (1, 1, 6, Fraction(-1, 2), [1, 2, 3, 4, 5, 6]),
    (2, 1, 6, Fraction(-3, 34), [1, 2, 3, 4, 5, 6]),
    (3, 1, 6, Fraction(-5, 442), [2, 3, 4, 5, 6, 7]),
    (1, 2, 3, Fraction(-50, 17), [1, 2, 3]),
    (2, 2, 3, Fraction(-110, 221), [1, 2, 3]),
]


def _padic_pin(ctx, m, k, n_max, ref, expected):
    vals = [
        p_valuation(higher_order_stage(m, k, ctx, N) - ref, 3)
        for N in range(1, n_max + 1)
    ]
    nondecreasing = all(b >= a for a, b in zip(vals, vals[1:]))
    detail = f"valuations {vals} (pinned {expected}), reference {ref}"
    closed = qeuler_higher(m, k, Fraction(4))
    if closed != ref:
        detail += f" != closed form {closed}"
    return Check(
        f"padic/convergence-m{m}-k{k}",
        vals == expected and nondecreasing and closed == ref,
        detail,
    )


@_seeded
def suite_padic(rng):
    ctx = PAdicQParam(3, Fraction(4))
    return [
        (
            "padic/normalization",
            ((f"N={N}", stage_sum(Integrand.constant(), ctx, N), 1) for N in range(1, 5)),
        ),
        (
            "padic/worked-example-N1",
            [("f=[t]q^-2t", stage_sum(Integrand.term(1, 1, -2), ctx, 1), Fraction(1, 208))],
        ),
        *(_padic_pin(ctx, *pin) for pin in _PADIC_PINS),
    ]


# The character checks compare integer exponents: chi(n) = e**(2*pi*i*k/L)
# with k = chi._exponent(n), None off the units, and L = chi._lcm.


def _rows_orthogonal(chi, psi):
    """sum over a of chi(a) conj(psi(a)) is phi(d) when chi == psi, else 0:
    every exponent k_chi(a) - k_psi(a) (mod L) is 0, or their roots sum to 0."""
    L = chi._lcm
    ks = [(k1 - k2) % L for (_, k1, _), (_, k2, _) in zip(chi._unit_table(), psi._unit_table())]
    return not any(ks) if chi == psi else _exponent_sum_is_zero(ks, L)


def _column_orthogonal(chars, n):
    """sum over the characters mod d of chi(n) is phi(d) when n == 1 (mod d), else 0."""
    col = [c._exponent(n) for c in chars]
    if n % chars[0].modulus == 1:
        return all(k == 0 for k in col)
    return _exponent_sum_is_zero(col, chars[0]._lcm)


def _is_product(chi, a, b, c):
    """chi(c) == chi(a) chi(b): k(c) = k(a) + k(b) (mod L), or c a non-unit
    when a or b is."""
    ka, kb, kc = chi._exponent(a), chi._exponent(b), chi._exponent(c)
    return kc is None if ka is None or kb is None else kc == (ka + kb) % chi._lcm


def _orthogonality_cases():
    for d in (3, 5, 9, 15):
        chars = characters_mod(d)
        for c1 in chars:
            for c2 in chars:
                yield f"d={d}, chi={c1.index}, psi={c2.index}", _rows_orthogonal(c1, c2), True


def _column_cases():
    for d in (3, 5, 9, 15):
        chars = characters_mod(d)
        for n in range(d):
            yield f"d={d} n={n}", _column_orthogonal(chars, n), True


def _multiplicative_cases(rng):
    chars = {d: characters_mod(d) for d in (3, 5, 9, 15, 45)}
    for _ in range(500):
        d = rng.choice([3, 5, 9, 15, 45])
        chi = rng.choice(chars[d])
        a = rng.randrange(2 * d)
        b = rng.randrange(2 * d)
        yield f"d={d} chi={chi.index} a={a} b={b}", _is_product(chi, a, b, a * b), True


def _brute_force_conductor(chi):
    # smallest divisor f of d with chi(n) = 1 (exponent 0) on the units
    # n == 1 (mod f) (n % f == 1 % f: for f = 1 every n is congruent)
    d = chi.modulus
    units = chi._unit_table()
    return next(
        f
        for f in range(1, d + 1)
        if d % f == 0 and all(k == 0 for n, k, _ in units if n % f == 1 % f)
    )


@_seeded
def suite_characters(rng):
    counts = {1: 1, 3: 2, 5: 4, 9: 6, 15: 8}
    induced = [c for c in characters_mod(9) if c.order == 2]
    return [
        (
            "characters/counts",
            ((f"d={d}", len(characters_mod(d)), n) for d, n in counts.items()),
        ),
        (
            "characters/orthogonality-exact",
            _orthogonality_cases(),
            None,
            "rows orthogonal over d in {3, 5, 9, 15}, cyclotomic reduction",
        ),
        ("characters/column-orthogonality", _column_cases()),
        ("characters/multiplicative", _multiplicative_cases(rng)),
        (
            "characters/conductor-brute-force",
            (
                (f"d={d} chi={chi.index}", conductor(chi), _brute_force_conductor(chi))
                for d in (3, 5, 9, 15, 45)
                for chi in characters_mod(d)
            ),
        ),
        Check(
            "characters/induced-mod9",
            len(induced) == 1 and conductor(induced[0]) == 3,
            f"quadratic character mod 9 has conductor {conductor(induced[0])}",
        ),
    ]


def _route_cases(route, other, grid):
    """Cases comparing two routes of one function: ``grid`` yields
    (label, args), and each route is called with ``args``."""
    for label, args in grid:
        yield label, route(*args).value, other(*args).value


@_seeded
def suite_methods(rng):
    spot = _random_q(rng)
    half = Fraction(1, 2)
    return [
        (
            "methods/zeta-direct-vs-continuation",
            _route_cases(
                euler_zeta_q,
                euler_zeta_q_direct,
                (
                    (f"s={s} q={q}", (s, q))
                    for s, q in [
                        *((s, q) for s in (1, 1.5, 2, 3, complex(2, 1)) for q in (0.3, 0.5, 0.8)),
                        (2, 0.999),
                        (complex(2, 1), 0.999),
                    ]
                ),
            ),
            1e-9,
        ),
        (
            "methods/hurwitz-direct-vs-continuation",
            _route_cases(
                hurwitz_zeta_q,
                hurwitz_zeta_q_direct,
                (
                    (f"s={s} x={x} q={q}", (s, x, q))
                    for s, x, q in [
                        *((s, x, q) for s in (1, 2, complex(1.5, -0.5))
                          for x in (1 / 3, 1.0, 2.5) for q in (0.4, 0.7)),
                        (2, 1 / 3, 0.999),
                        (complex(1.5, -0.5), 1 / 3, 0.999),
                    ]
                ),
            ),
            1e-9,
        ),
        (
            "methods/lseries-direct-vs-decomposition",
            _route_cases(
                l_series,
                l_series_direct,
                (
                    (f"s={s} d={chi.modulus} chi={chi.index} q=0.5", (s, chi, 0.5))
                    for chi in characters_mod(3) + characters_mod(5)
                    for s in (2, complex(2, 1))
                ),
            ),
            1e-9,
        ),
        (
            "methods/partial-direct-vs-decomposition",
            _route_cases(
                partial_zeta,
                partial_zeta_direct,
                (
                    (f"s=2 a={a} F={F} q={q}", (2, a, F, q))
                    for F, q in ((3, 0.5), (5, 0.5), (3, 0.999))
                    for a in range(1, F + 1)
                ),
            ),
            1e-9,
        ),
        (
            "methods/partial-partition-exact",
            (
                (
                    f"n={n} F={F}",
                    sum(partial_zeta_neg_int_exact(n, a, F, half) for a in range(1, F + 1)),
                    euler_zeta_neg_int_exact(n, half),
                )
                for n in range(1, 5)
                for F in (3, 5)
            ),
        ),
        (
            "methods/lseries-neg-int-exact",
            (
                (
                    f"k={k} d={chi.modulus} chi={chi.index}",
                    l_neg_int_decomposition(k, chi, half),
                    l_neg_int_exact(k, chi, half),
                )
                for k in (1, 2, 3)
                for chi in characters_mod(3) + [c for c in characters_mod(5) if c.order <= 2]
            ),
        ),
        (
            "methods/lseries-neg-int-complex",
            (
                (
                    f"k={k} d=5 chi={chi.index}",
                    l_neg_int_decomposition(k, chi, half),
                    l_neg_int_exact(k, chi, half),
                )
                for k in (1, 2)
                for chi in characters_mod(5)
                if chi.order > 2
            ),
            1e-12,
        ),
        (
            "methods/lseries-continuation-at-neg-int",
            (
                (
                    f"k={k} d={chi.modulus} chi={chi.index}",
                    l_series(-k, chi, 0.5).value,
                    complex(generalized_qeuler(k, chi, half)),
                )
                for k in (1, 2)
                for chi in characters_mod(3) + characters_mod(5)
            ),
            1e-9,
        ),
        (
            "methods/seeded-spot-check",
            _route_cases(euler_zeta_q, euler_zeta_q_direct, [(f"s=2 q={spot}", (2, float(spot)))]),
            1e-9,
        ),
    ]


SUITES = {
    "identities": suite_identities,
    "interpolation": suite_interpolation,
    "padic": suite_padic,
    "characters": suite_characters,
    "methods": suite_methods,
}


def run_suites(names, seed=0):
    return [check for name in names for check in SUITES[name](seed)]
