"""The character checks of ``qeuler verify`` against their RootOfUnity oracle.

``verify`` decides the orthogonality relations, multiplicativity and the
brute-force conductor on integer exponents mod L.  The functions prefixed
``oracle_`` below are the same checks written on :class:`RootOfUnity`
values, as ``verify`` used to run them; both formulations must reach
the same verdict for every character of the moduli the suite uses.
"""

from __future__ import annotations

import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import RootOfUnity, characters_mod, root_sum_is_zero
from qeuler import _verify
from qeuler.characters import _exponent_sum_is_zero, _unit_group

MODULI = (3, 5, 9, 15, 45)


# ---------------------------------------------------------------------------
# The RootOfUnity formulations (oracle).


def oracle_rows_orthogonal(chi, psi):
    # sum over a of chi(a) conj(psi(a)): phi(d) when chi == psi, else 0
    d = chi.modulus
    vals = [u * v.conjugate() if u != 0 and v != 0 else 0
            for u, v in ((chi(a), psi(a)) for a in range(d))]
    if chi == psi:
        return all(v == 0 or v.is_one() for v in vals)
    return root_sum_is_zero(vals)


def oracle_column_orthogonal(chars, n):
    # sum over chi mod d of chi(n): phi(d) when n == 1 (mod d), else 0
    col = [c(n) for c in chars]
    if n % chars[0].modulus == 1:
        return all(isinstance(v, RootOfUnity) and v.is_one() for v in col)
    return root_sum_is_zero(col)


def oracle_is_product(chi, a, b, c):
    va, vb, vc = chi(a), chi(b), chi(c)
    return vc == 0 if va == 0 or vb == 0 else vc == va * vb


def oracle_brute_force_conductor(chi):
    d = chi.modulus
    return next(
        f
        for f in range(1, d + 1)
        if d % f == 0
        and all(chi(n).is_one() for n in range(1, d + 1) if n % f == 1 % f and chi(n) != 0)
    )


# ---------------------------------------------------------------------------
# Same verdicts, every character of every modulus.


@pytest.mark.parametrize("d", MODULI)
class TestSameVerdictAsOracle:
    def test_rows(self, d):
        chars = characters_mod(d)
        for chi in chars:
            for psi in chars:
                assert _verify._rows_orthogonal(chi, psi) is oracle_rows_orthogonal(chi, psi) is True

    def test_row_sums_including_the_diagonal(self, d):
        # the sum over a row with itself is phi(d), not 0: both tests say so
        chars = characters_mod(d)
        L = chars[0]._lcm
        for chi in chars:
            for psi in chars:
                ks = [(k1 - k2) % L for (_, k1, _), (_, k2, _)
                      in zip(chi._unit_table(), psi._unit_table())]
                vals = [chi(a) * psi(a).conjugate() for a, _, _ in chi._unit_table()]
                assert _exponent_sum_is_zero(ks, L) is root_sum_is_zero(vals) is (chi != psi)

    def test_columns(self, d):
        chars = characters_mod(d)
        for n in range(2 * d):
            assert _verify._column_orthogonal(chars, n) is oracle_column_orthogonal(chars, n)
            assert _verify._column_orthogonal(chars, n) is True

    def test_column_sums(self, d):
        # the column at n == 1 sums to phi(d), every other one to 0
        chars = characters_mod(d)
        L = chars[0]._lcm
        for n in range(d):
            got = _exponent_sum_is_zero([c._exponent(n) for c in chars], L)
            assert got is root_sum_is_zero([c(n) for c in chars]) is (n != 1)

    def test_products(self, d):
        # c = ab must hold; c = ab + 1 and a random c mostly must not
        rng = random.Random(d)
        verdicts = set()
        for chi in characters_mod(d):
            for a in range(0, 2 * d, 1 if d < 45 else 7):
                for b in range(0, 2 * d, 1 if d < 45 else 5):
                    for c in (a * b, a * b + 1, rng.randrange(d)):
                        got = _verify._is_product(chi, a, b, c)
                        assert got is oracle_is_product(chi, a, b, c)
                        verdicts.add(got)
                    assert _verify._is_product(chi, a, b, a * b)
        assert verdicts == {True, False}

    def test_conductor(self, d):
        for chi in characters_mod(d):
            assert _verify._brute_force_conductor(chi) == oracle_brute_force_conductor(chi)


def test_suite_verdicts_follow_the_oracle():
    # the multiplicative cases of seeds 0..3 are drawn as before; each verdict
    # equals the oracle's on the same draw
    for seed in range(4):
        rng = random.Random(seed)
        chars = {d: characters_mod(d) for d in MODULI}
        cases = list(_verify._multiplicative_cases(random.Random(seed)))
        assert len(cases) == 500
        for label, good, want in cases:
            d = rng.choice(MODULI)
            chi = rng.choice(chars[d])
            a, b = rng.randrange(2 * d), rng.randrange(2 * d)
            assert label == f"d={d} chi={chi.index} a={a} b={b}"
            assert good is oracle_is_product(chi, a, b, a * b) is want


# ---------------------------------------------------------------------------
# The exponent-level vanishing test.

EXPONENT_LISTS = st.integers(1, 60).flatmap(
    lambda L: st.tuples(
        st.just(L),
        st.lists(st.one_of(st.none(), st.integers(-2 * L, 2 * L)), max_size=16),
    )
)


def _mp_sum_is_zero(exponents, L):
    # A nonzero sum S of k roots of unity of order L is an algebraic integer
    # whose phi(L) conjugates all have modulus <= k, and whose norm is a
    # nonzero integer, so |S| >= k**(1 - phi(L)) >= 16**-57 > 1e-69 (k <= 16,
    # phi(L) <= 58 for L <= 60).
    with mpmath.workdps(100):
        total = mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * k) / L) for k in exponents if k is not None)
        return abs(total) < mpmath.mpf("1e-80")


@given(EXPONENT_LISTS)
@example((1, []))
@example((45, []))
@example((12, [None, None, None]))
@example((60, [None]))
@settings(max_examples=300, deadline=None)
def test_exponent_test_equals_root_sum_test(case):
    L, ks = case
    roots = [0 if k is None else RootOfUnity(k, L) for k in ks]
    got = _exponent_sum_is_zero(ks, L)
    assert got is root_sum_is_zero(roots)
    assert got is _mp_sum_is_zero(ks, L)


@pytest.mark.parametrize("L", [1, 2, 6, 45, 60])
def test_empty_and_non_unit_lists_vanish(L):
    assert _exponent_sum_is_zero([], L)
    assert _exponent_sum_is_zero([None] * 5, L)
    assert root_sum_is_zero([0] * 5)


def test_full_orbits_vanish_and_single_roots_do_not():
    for L in range(2, 61):
        assert _exponent_sum_is_zero(range(L), L)
        assert not _exponent_sum_is_zero([L - 1], L)


# ---------------------------------------------------------------------------
# Structural guard: the checks build no RootOfUnity.


def test_verify_builds_no_root_of_unity(monkeypatch):
    built = []
    post_init = RootOfUnity.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RootOfUnity, "__post_init__", counting)
    _unit_group.cache_clear()  # the per-modulus root tables are built afresh, without one
    checks = _verify.run_suites(["characters"], 0)
    assert all(check.passed for check in checks)
    assert built == []
    checks = _verify.run_suites(list(_verify.SUITES), 1)
    assert all(check.passed for check in checks)
    assert built == []
