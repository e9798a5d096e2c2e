"""The 2-adic class join of the exact sums.

For coprime a, b an odd prime divides a**e + b**e and a**f + b**f only
when v2(e) = v2(f), so ``numeric._exact_sum`` adds each 2-adic class of
its terms on its own tree and joins the classes' reduced Fractions with
gcds read from trailing zeros (``_coprime_add``), building each result
with no gcd (``_reduced``).  A join that trusted the lemma wrongly would
return an unreduced Fraction, which compares unequal to the reduced one:
the grid below compares every value with the term-by-term oracle by
``==`` and checks gcd(num, den) = 1 on it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
    characters_mod,
    distribution_residual,
    euler_zeta_neg_int_exact,
    generalized_qeuler,
    hurwitz_neg_int_exact,
    l_neg_int_decomposition,
    partial_zeta_neg_int_exact,
    qeuler_higher,
    qeuler_mixed,
    qeuler_poly_exact,
)
from qeuler import characters, numeric, zeta
from qeuler.numeric import (_MERGE_BITS, _coprime_add, _exact_sum, _factor_order, _factor_runs,
                            _fraction, _reduced, _v2_runs)

import closed_form_oracle as oracle

F = Fraction


def _v2(n):
    return (n & -n).bit_length() - 1


def _odd(n):
    return n >> _v2(n)


COPRIME_BASES = st.tuples(st.integers(1, 60), st.integers(1, 60)).filter(
    lambda ab: math.gcd(*ab) == 1)


class TestLemma:
    @given(ab=COPRIME_BASES, e=st.integers(0, 200), f=st.integers(0, 200))
    @settings(deadline=None, max_examples=300)
    def test_odd_parts_of_different_classes_are_coprime(self, ab, e, f):
        a, b = ab
        if e and f and _v2(e) == _v2(f) or e == f:
            return
        assert math.gcd(_odd(a**e + b**e), _odd(a**f + b**f)) == 1

    def test_same_class_may_share(self):
        # the lemma is about different classes only: 2**3 + 1 divides 2**9 + 1
        assert math.gcd(2**3 + 1, 2**9 + 1) == 9


class TestFactorRuns:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 45, 148])
    def test_runs_are_the_classes_of_the_order(self, n):
        order, runs = _factor_order(n), _factor_runs(n)
        assert _factor_runs(n) is runs  # built once per n
        assert sum(runs) == n + 1 and all(runs)
        starts = [sum(runs[:i]) for i in range(len(runs))]
        classes = [{_v2(e) if e else -1 for e in order[s:s + k]} for s, k in zip(starts, runs)]
        assert all(len(c) == 1 for c in classes)  # one class per run
        keys = [c.pop() for c in classes]
        assert len(keys) == len(set(keys))  # and one run per class
        assert runs[-1] == 1 and order[-1] == 0  # e = 0 (the denominator 2) alone
        assert len(runs) == (n.bit_length() + 1 if n else 1)

    def test_runs_of_signed_exponents(self):
        # e and -e are in one class: qeuler_mixed with n > m has both
        assert _v2_runs([1, -3, 5, 2, -6, 4, 0, 0]) == (3, 2, 1, 2)
        assert _v2_runs([]) == ()


class TestNoGcdFraction:
    def test_reduced_builds_with_no_gcd(self):
        # it trusts its caller: an unreduced pair stays as given
        assert (_reduced(6, 4).numerator, _reduced(6, 4).denominator) == (6, 4)
        x = _reduced(-3, 8)
        assert type(x) is Fraction and x == F(-3, 8) and x + 1 == F(5, 8)
        assert _reduced(0, 1) == 0 and hash(_reduced(7, 1)) == hash(7)

    @given(ab=COPRIME_BASES, es=st.lists(st.integers(0, 40), min_size=2, max_size=2,
                                         unique_by=lambda e: _v2(e) if e else -1),
           nums=st.lists(st.integers(-(10**30), 10**30), min_size=2, max_size=2),
           twos=st.lists(st.integers(0, 5), min_size=2, max_size=2))
    @settings(deadline=None)
    def test_coprime_add_equals_fraction_sum(self, ab, es, nums, twos):
        # denominators from two classes, times any powers of 2
        a, b = ab
        x, y = (F(n, (a**e + b**e) << t) for n, e, t in zip(nums, es, twos))
        got = _coprime_add(x, y)
        want = x + y
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_coprime_add_edges(self):
        zero = _coprime_add(F(1, 2), F(-1, 2))
        assert zero == 0 and zero.denominator == 1
        assert _coprime_add(F(1, 4), F(1, 4)) == F(1, 2)
        assert _coprime_add(F(3), F(1, 3)).denominator == 3
        assert _coprime_add(F(1, 12), F(1, 20)) == F(2, 15)  # gcd 4, the sum's 2s cancel


class TestExactSumRuns:
    @given(ab=COPRIME_BASES, n=st.integers(0, 120), data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_class_join_equals_the_sum(self, ab, n, data):
        a, b = ab
        order = _factor_order(n)
        nums = data.draw(st.lists(st.integers(-(10**9), 10**9), min_size=n + 1, max_size=n + 1))
        pairs = [(c, a**e + b**e) for c, e in zip(nums, order)]
        prefactor = data.draw(st.sampled_from([(1, 1), (3, 4), (-5, 6 * (a + b))]))
        got = _fraction(_exact_sum(pairs, prefactor, _factor_runs(n)))
        want = Fraction(*prefactor) * sum((F(*p) for p in pairs), F(0))
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_runs_pass_reduced_classes(self):
        # two classes whose sums are Fractions past the bound, and a pair
        big = [(1, 3**e + 2**e) for e in (1501, 1503, 1505)]  # v2 = 0
        other = [(-1, 3**e + 2**e) for e in (1502, 1506)]  # v2 = 1
        pairs = big + other + [(5, 2)]
        got = _exact_sum(pairs, runs=(3, 2, 1))
        assert type(got) is Fraction and got.denominator.bit_length() > _MERGE_BITS
        want = sum((F(*p) for p in pairs), F(0))
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


# ---------------------------------------------------------------------------
# The grid: every public value against the term-by-term oracle.

ODD_Q = [F(1, 3), F(5, 7)]
ABOVE_ONE = [F(7, 5), F(3)]


def _reduced_and_equal(got, want):
    assert type(got) is Fraction
    assert got == want
    assert math.gcd(got.numerator, got.denominator) == 1


@pytest.fixture
def joins(monkeypatch):
    """A list that counts the class joins of ``_exact_sum``."""
    seen = []

    def spy(x, y):
        seen.append(1)
        return _coprime_add(x, y)

    monkeypatch.setattr(numeric, "_coprime_add", spy)
    return seen


class TestGridAgainstOracle:
    # m = 80 at q = 1/3 and m = 60 at 5/7 pass _MERGE_BITS, so their sums
    # join classes; the small m do not

    @pytest.mark.parametrize("q", ODD_Q + ABOVE_ONE)
    @pytest.mark.parametrize("m", [0, 1, 5, 60, 80])
    def test_numbers_of_order_one(self, joins, q, m):
        value = qeuler_higher(m, 1, q)
        _reduced_and_equal(value, oracle.qeuler_higher(m, 1, q))
        if q < 1:
            _reduced_and_equal(euler_zeta_neg_int_exact(m, q), value if m else -value)
        assert bool(joins) == (m >= 60 and (m == 80 or q in (F(5, 7), F(7, 5))))

    @pytest.mark.parametrize("q", ODD_Q + ABOVE_ONE)
    @pytest.mark.parametrize("k", [2, 3])
    def test_higher_order(self, joins, q, k):
        # a term over several classes: one run, no join
        for m in (0, 3, 40):
            _reduced_and_equal(qeuler_higher(m, k, q), oracle.qeuler_higher(m, k, q))
        assert not joins

    @pytest.mark.parametrize("q", ODD_Q + ABOVE_ONE)
    @pytest.mark.parametrize("kdeg, m", [(100, 30), (90, 0), (75, 74), (70, 75)])
    def test_mixed(self, joins, q, kdeg, m):
        # kdeg > m adds the exponents e < 0 to the classes of |e|; kdeg < m
        # sums over e = m - kdeg .. m
        _reduced_and_equal(qeuler_mixed(kdeg, m, q), oracle.qeuler_mixed(kdeg, m, q))
        assert joins

    @pytest.mark.parametrize("r", ODD_Q)
    @pytest.mark.parametrize("F_, n", [(3, 45), (5, 33), (15, 19), (15, 2)])
    def test_partial_zeta(self, joins, r, F_, n):
        parts = [partial_zeta_neg_int_exact(n, a, F_, r) for a in range(1, F_ + 1)]
        for a, part in enumerate(parts, 1):
            _reduced_and_equal(part, oracle.distribution_class(n, r, F_, a))
        assert sum(parts) == euler_zeta_neg_int_exact(n, r)
        assert bool(joins) == (n > 2)

    @pytest.mark.parametrize("r", ODD_Q)
    @pytest.mark.parametrize("d, m", [(1, 80), (3, 45), (3, 4)])
    def test_polynomial_and_hurwitz(self, joins, r, d, m):
        # the weights' denominators t**j fold into the prefactor, so the
        # terms are over a**e + b**e alone and may join
        for a in (0, 1, d + 1):
            want = oracle.qeuler_poly_exact(m, r, d, a)
            _reduced_and_equal(qeuler_poly_exact(m, r, d, a), want)
            if m:
                _reduced_and_equal(hurwitz_neg_int_exact(m, r, d, a), want)
        assert bool(joins) == (m > 4)

    @pytest.mark.parametrize("r", ODD_Q)
    @pytest.mark.parametrize("n, d, x", [(45, 3, 2), (35, 5, 1), (19, 15, 0)])
    def test_distribution_residual(self, joins, r, n, d, x):
        assert distribution_residual(n, d, x, r) == oracle.distribution_residual(n, d, x, r) == 0
        assert joins

    @pytest.mark.parametrize("r", ODD_Q)
    @pytest.mark.parametrize("d, m", [(15, 20), (45, 12), (105, 8)])
    def test_real_characters(self, joins, r, d, m):
        chi = next(c for c in characters_mod(d) if c.order == 2)
        want = oracle.generalized_qeuler_real(m, chi, r)
        _reduced_and_equal(generalized_qeuler(m, chi, r), want)
        _reduced_and_equal(l_neg_int_decomposition(m, chi, r), want)
        assert joins

    @pytest.mark.parametrize("r", ODD_Q)
    @pytest.mark.parametrize("d, m", [(15, 20), (45, 12), (105, 8)])
    def test_complex_characters(self, monkeypatch, joins, r, d, m):
        # the exact class cofactors of both routes, before the one complex
        # rounding: each equals the oracle's class and is reduced
        chi = next(c for c in characters_mod(d) if c.order > 2)
        seen = []
        combine = characters._chi_combination

        def spy(chi, sums):
            seen.append([v for _, v in sums])
            return combine(chi, sums)

        monkeypatch.setattr(characters, "_chi_combination", spy)
        monkeypatch.setattr(zeta, "_chi_combination", spy)
        values = generalized_qeuler(m, chi, r), l_neg_int_decomposition(m, chi, r)
        assert values[0] == values[1]
        want = sorted(oracle.distribution_class(m, r, d, i) for i in range(d)
                      if math.gcd(i, d) == 1)
        for raw in seen:
            assert all(type(v) is Fraction for v in raw)  # each past the bound
            for v in raw:
                assert math.gcd(v.numerator, v.denominator) == 1
            assert sorted(raw) == want
        assert joins
