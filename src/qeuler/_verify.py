"""Verification suites behind ``qeuler verify``.

Each suite returns a list of :class:`Check` results; a check that fails
reports the first offending case with its exact residual so the failure
is reproducible from the printed line alone.  Randomized checks draw
from ``random.Random(seed)`` only, so a seed pins the whole run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import (
    Integrand,
    PAdicQParam,
    RootOfUnity,
    characters_mod,
    classical_multiplication_residual,
    conductor,
    convergence_report,
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
    root_sum_is_zero,
    stage_sum,
)

__all__ = ["Check", "SUITES", "run_suites"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _random_q(rng):
    den = rng.choice([7, 10, 16, 23, 100])
    return Fraction(rng.randrange(1, den), den)


def _check_all(name, cases):
    """cases yields (label, residual); pass iff every residual == 0."""
    count = 0
    for label, residual in cases:
        count += 1
        if residual != 0:
            return Check(name, False, f"first failure at {label}: residual = {residual}")
    return Check(name, True, f"{count} cases, all residuals exactly 0")


def _check_close(name, cases, tol):
    count = 0
    for label, got, want in cases:
        count += 1
        err = abs(got - want)
        bound = tol * max(1.0, abs(want))
        if not err <= bound:
            return Check(name, False, f"first failure at {label}: |{got} - {want}| = {err} > {bound}")
    return Check(name, True, f"{count} cases within {tol} relative")


def suite_identities(seed):
    rng = random.Random(seed)
    qs = [Fraction(1, 2), Fraction(2, 3)] + [_random_q(rng) for _ in range(4)]
    checks = [
        _check_all(
            "identities/E1-constant",
            ((f"q={q}", qeuler_higher(1, 1, q) + Fraction(1, 2)) for q in qs),
        ),
        _check_all(
            "identities/E0-closed-form",
            ((f"q={q}", qeuler_higher(0, 1, q) - (1 + q) / 2) for q in qs),
        ),
        _check_all(
            "identities/E2-closed-form",
            ((f"q={q}", qeuler_higher(2, 1, q) - (1 - q) / (2 * (1 + q**2))) for q in qs),
        ),
        _check_all(
            "identities/mixed-diagonal",
            (
                (f"m={m}", qeuler_mixed(m, m, Fraction(1, 2)) - qeuler_higher(m, 1, Fraction(1, 2)))
                for m in range(16)
            ),
        ),
        _check_all(
            "identities/distribution",
            (
                (f"n={n} d={d} x={x} q={q}", distribution_residual(n, d, x, q))
                for q in qs[:3]
                for n in range(6)
                for d in (1, 3, 5)
                for x in (0, 1, 2)
            ),
        ),
        _check_all(
            "identities/multiplication-x0",
            (
                (f"m={m} n={n} q={q}", multiplication_residual_x0(m, n, q))
                for q in qs[:2]
                for m in range(7)
                for n in (1, 3, 5)
            ),
        ),
        _check_all(
            "identities/classical-multiplication",
            (
                (f"m={m} n={n}", classical_multiplication_residual(m, n))
                for m in range(1, 9)
                for n in (1, 3, 5)
            ),
        ),
        _check_close(
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
    return checks


def suite_interpolation(seed):
    rng = random.Random(seed)
    qs = [Fraction(1, 2), Fraction(2, 3), Fraction(9999, 10000), _random_q(rng)]
    checks = [
        _check_all(
            "interpolation/zeta-neg-int",
            (
                (f"m={m} q={q}", euler_zeta_neg_int_exact(m, q) - qeuler_higher(m, 1, q))
                for q in qs
                for m in range(1, 13)
            ),
        ),
        _check_all(
            "interpolation/zeta-sign-boundary",
            ((f"q={q}", euler_zeta_neg_int_exact(0, q) + (1 + q) / 2) for q in qs),
        ),
        _check_all(
            "interpolation/hurwitz-neg-int",
            (
                (
                    f"m={m} r={r} d={d} a={a}",
                    hurwitz_neg_int_exact(m, r, d, a) - qeuler_poly_exact(m, r, d, a),
                )
                for r in (Fraction(1, 2), Fraction(2, 3))
                for m in range(1, 9)
                for d in (1, 3, 5)
                for a in range(1, d + 1)
            ),
        ),
        _check_close(
            "interpolation/continuation-terminates",
            (
                (
                    f"m={m} q={q}",
                    euler_zeta_q(-m, float(q)).value,
                    float(qeuler_higher(m, 1, q)),
                )
                for q in (Fraction(1, 2), Fraction(2, 3))
                for m in range(1, 7)
            ),
            1e-12,
        ),
        _check_close(
            "interpolation/sign-boundary-continuation",
            ((f"q={q}", euler_zeta_q(0, float(q)).value, -(1 + float(q)) / 2) for q in qs),
            1e-12,
        ),
    ]
    return checks


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


def suite_padic(seed):
    ctx = PAdicQParam(3, Fraction(4))
    checks = [
        _check_all(
            "padic/normalization",
            (
                (f"N={N}", stage_sum(Integrand.constant(), ctx, N) - 1)
                for N in range(1, 5)
            ),
        ),
        _check_all(
            "padic/worked-example-N1",
            [("f=[t]q^-2t", stage_sum(Integrand.term(1, 1, -2), ctx, 1) - Fraction(1, 208))],
        ),
    ]
    for m, k, n_max, ref, expected in _PADIC_PINS:
        vals = [
            p_valuation(higher_order_stage(m, k, ctx, N) - ref, 3)
            for N in range(1, n_max + 1)
        ]
        nondecreasing = all(b >= a for a, b in zip(vals, vals[1:]))
        detail = f"valuations {vals} (pinned {expected}), reference {ref}"
        closed = qeuler_higher(m, k, Fraction(4))
        if closed != ref:
            detail += f" != closed form {closed}"
        checks.append(
            Check(
                f"padic/convergence-m{m}-k{k}",
                vals == expected and nondecreasing and closed == ref,
                detail,
            )
        )
    return checks


def suite_characters(seed):
    rng = random.Random(seed)
    checks = []
    counts = {1: 1, 3: 2, 5: 4, 9: 6, 15: 8}
    checks.append(
        _check_all(
            "characters/counts",
            ((f"d={d}", len(characters_mod(d)) - n) for d, n in counts.items()),
        )
    )
    ortho_ok = True
    detail = ""
    for d in (3, 5, 9, 15):
        chars = characters_mod(d)
        for c1 in chars:
            for c2 in chars:
                vals = []
                for a in range(d):
                    v1, v2 = c1(a), c2(a)
                    vals.append(v1 * v2.conjugate() if v1 != 0 and v2 != 0 else 0)
                if c1 == c2:
                    good = all(v == 0 or v.is_one() for v in vals)
                else:
                    good = root_sum_is_zero(vals)
                if not good:
                    ortho_ok = False
                    detail = f"first failure at d={d}, chi={c1.index}, psi={c2.index}"
                    break
            if not ortho_ok:
                break
        if not ortho_ok:
            break
    checks.append(
        Check(
            "characters/orthogonality-exact",
            ortho_ok,
            detail or "rows orthogonal over d in {3, 5, 9, 15}, cyclotomic reduction",
        )
    )

    def _column_cases():
        # sum over chi mod d of chi(n): phi(d) when n == 1 (mod d), else 0
        for d in (3, 5, 9, 15):
            chars = characters_mod(d)
            for n in range(d):
                col = [c(n) for c in chars]
                if n % d == 1:
                    ok = all(isinstance(v, RootOfUnity) and v.is_one() for v in col)
                else:
                    ok = root_sum_is_zero(col)
                yield f"d={d} n={n}", 0 if ok else 1

    checks.append(_check_all("characters/column-orthogonality", _column_cases()))

    def _mult_cases():
        chars = {d: characters_mod(d) for d in (3, 5, 9, 15, 45)}
        for _ in range(500):
            d = rng.choice([3, 5, 9, 15, 45])
            chi = rng.choice(chars[d])
            a = rng.randrange(2 * d)
            b = rng.randrange(2 * d)
            va, vb, vab = chi(a), chi(b), chi(a * b)
            if va == 0 or vb == 0:
                ok = vab == 0
            else:
                ok = vab == va * vb
            yield f"d={d} chi={chi.index} a={a} b={b}", 0 if ok else 1

    checks.append(_check_all("characters/multiplicative", _mult_cases()))

    def _conductor_cases():
        for d in (3, 5, 9, 15, 45):
            for chi in characters_mod(d):
                f = conductor(chi)
                # brute force: smallest odd divisor m of d with chi(n) = 1
                # whenever n == 1 (mod m) and gcd(n, d) = 1
                best = None
                for mdiv in sorted(k for k in range(1, d + 1) if d % k == 0):
                    # n % mdiv == 1 % mdiv: for mdiv = 1 every n is congruent.
                    if all(
                        chi(n).is_one()
                        for n in range(1, d + 1)
                        if n % mdiv == 1 % mdiv and chi(n) != 0
                    ):
                        best = mdiv
                        break
                yield f"d={d} chi={chi.index}", f - best

    checks.append(_check_all("characters/conductor-brute-force", _conductor_cases()))
    chars9 = characters_mod(9)
    induced = [c for c in chars9 if c.order == 2]
    checks.append(
        Check(
            "characters/induced-mod9",
            len(induced) == 1 and conductor(induced[0]) == 3,
            f"quadratic character mod 9 has conductor {conductor(induced[0])}",
        )
    )
    return checks


def suite_methods(seed):
    rng = random.Random(seed)
    policy = None
    checks = [
        _check_close(
            "methods/zeta-direct-vs-continuation",
            (
                (
                    f"s={s} q={q}",
                    euler_zeta_q(s, q, policy).value,
                    euler_zeta_q_direct(s, q, policy).value,
                )
                for s, q in [
                    *((s, q) for s in (1, 1.5, 2, 3, complex(2, 1)) for q in (0.3, 0.5, 0.8)),
                    (2, 0.999),
                    (complex(2, 1), 0.999),
                ]
            ),
            1e-9,
        ),
        _check_close(
            "methods/hurwitz-direct-vs-continuation",
            (
                (
                    f"s={s} x={x} q={q}",
                    hurwitz_zeta_q(s, x, q, policy).value,
                    hurwitz_zeta_q_direct(s, x, q, policy).value,
                )
                for s, x, q in [
                    *((s, x, q) for s in (1, 2, complex(1.5, -0.5))
                      for x in (1 / 3, 1.0, 2.5) for q in (0.4, 0.7)),
                    (2, 1 / 3, 0.999),
                    (complex(1.5, -0.5), 1 / 3, 0.999),
                ]
            ),
            1e-9,
        ),
        _check_close(
            "methods/lseries-direct-vs-decomposition",
            (
                (
                    f"s={s} d={chi.modulus} chi={chi.index} q={q}",
                    l_series(s, chi, q, policy).value,
                    l_series_direct(s, chi, q, policy).value,
                )
                for chi in characters_mod(3) + characters_mod(5)
                for s in (2, complex(2, 1))
                for q in (0.5,)
            ),
            1e-9,
        ),
        _check_close(
            "methods/partial-direct-vs-decomposition",
            (
                (
                    f"s=2 a={a} F={F} q={q}",
                    partial_zeta(2, a, F, q, policy).value,
                    partial_zeta_direct(2, a, F, q, policy).value,
                )
                for F, q in ((3, 0.5), (5, 0.5), (3, 0.999))
                for a in range(1, F + 1)
            ),
            1e-9,
        ),
        _check_all(
            "methods/partial-partition-exact",
            (
                (
                    f"n={n} F={F}",
                    sum(partial_zeta_neg_int_exact(n, a, F, Fraction(1, 2)) for a in range(1, F + 1))
                    - euler_zeta_neg_int_exact(n, Fraction(1, 2)),
                )
                for n in range(1, 5)
                for F in (3, 5)
            ),
        ),
        _check_all(
            "methods/lseries-neg-int-exact",
            (
                (
                    f"k={k} d={chi.modulus} chi={chi.index}",
                    l_neg_int_decomposition(k, chi, Fraction(1, 2))
                    - l_neg_int_exact(k, chi, Fraction(1, 2)),
                )
                for k in (1, 2, 3)
                for chi in characters_mod(3) + [c for c in characters_mod(5) if c.order <= 2]
            ),
        ),
        _check_close(
            "methods/lseries-neg-int-complex",
            (
                (
                    f"k={k} d=5 chi={chi.index}",
                    l_neg_int_decomposition(k, chi, Fraction(1, 2)),
                    l_neg_int_exact(k, chi, Fraction(1, 2)),
                )
                for k in (1, 2)
                for chi in characters_mod(5)
                if chi.order > 2
            ),
            1e-12,
        ),
        _check_close(
            "methods/lseries-continuation-at-neg-int",
            (
                (
                    f"k={k} d={chi.modulus} chi={chi.index}",
                    l_series(-k, chi, 0.5, policy).value,
                    complex(generalized_qeuler(k, chi, Fraction(1, 2))),
                )
                for k in (1, 2)
                for chi in characters_mod(3) + characters_mod(5)
            ),
            1e-9,
        ),
    ]
    q = _random_q(rng)
    checks.append(
        _check_close(
            "methods/seeded-spot-check",
            [
                (
                    f"s=2 q={q}",
                    euler_zeta_q(2, float(q), policy).value,
                    euler_zeta_q_direct(2, float(q), policy).value,
                )
            ],
            1e-9,
        )
    )
    return checks


SUITES = {
    "identities": suite_identities,
    "interpolation": suite_interpolation,
    "padic": suite_padic,
    "characters": suite_characters,
    "methods": suite_methods,
}


def run_suites(names, seed=0):
    checks = []
    for name in names:
        checks.extend(SUITES[name](seed))
    return checks
