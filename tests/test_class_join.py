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
from hypothesis import example, given, settings
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
from qeuler.numeric import _MERGE_BITS, _coprime_add, _exact_sum, _fraction, _reduced, _sum_order

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
        # for the range 0..n the term indices of the order are the exponents
        order, runs = _sum_order(range(n + 1))
        assert _sum_order(range(n + 1))[1] is runs  # built once per range
        assert sum(runs) == n + 1 and all(runs)
        starts = [sum(runs[:i]) for i in range(len(runs))]
        classes = [{_v2(e) if e else -1 for e in order[s:s + k]} for s, k in zip(starts, runs)]
        assert all(len(c) == 1 for c in classes)  # one class per run
        keys = [c.pop() for c in classes]
        assert len(keys) == len(set(keys))  # and one run per class
        assert runs[-1] == 1 and order[-1] == 0  # e = 0 (the denominator 2) alone
        assert len(runs) == (n.bit_length() + 1 if n else 1)

    def test_runs_of_signed_exponents(self):
        # e and -e are in one class, e first: qeuler_mixed with n > 2m has both
        exponents = range(3, -7, -1)
        order, runs = _sum_order(exponents)
        assert [exponents[i] for i in order] == [1, -1, 3, -3, -5, 2, -2, -6, -4, 0]
        assert runs == (5, 3, 1, 1)
        assert _sum_order(range(0)) == ((), ())


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


PREFACTORS = st.sampled_from([(1, 1), (3, 4), (-5, 42)])


class TestExactSumRuns:
    @given(ab=COPRIME_BASES, m=st.integers(0, 80),
           nums=st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=121),
           prefactor=PREFACTORS)
    @example(ab=(59, 60), m=0, nums=[7], prefactor=(3, 4))  # one term
    @example(ab=(59, 60), m=40, nums=[1] * 121, prefactor=(1, 1))  # both signs, past the bound
    @settings(deadline=None, max_examples=60)
    def test_class_join_equals_the_sum(self, ab, m, nums, prefactor):
        # term j over a**|e| + b**|e|, e = m - j, in the order of j as the
        # producers build them: a signed range once j passes m
        a, b = ab
        exponents = range(m, m - len(nums), -1)
        pairs = [(c, a ** abs(e) + b ** abs(e)) for c, e in zip(nums, exponents)]
        got = _fraction(_exact_sum(pairs, prefactor, exponents))
        want = Fraction(*prefactor) * sum((F(*p) for p in pairs), F(0))
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_one_term_past_the_bound_is_reduced(self):
        d = 3**3000 + 2**3000
        got = _exact_sum([(7 * d, d)], exponents=range(3000, 2999, -1))
        assert type(got) is Fraction and (got.numerator, got.denominator) == (7, 1)

    def test_runs_pass_reduced_classes(self):
        # two classes whose sums are Fractions past the bound (v2 = 0: 1501,
        # 1503, 1505; v2 = 1: 1502, 1506), and two single terms, pairs
        exponents = range(1506, 1499, -1)
        pairs = [((-1) ** e * (e % 7 + 1), 3**e + 2**e) for e in exponents]
        got = _exact_sum(pairs, exponents=exponents)
        assert type(got) is Fraction and got.denominator.bit_length() > _MERGE_BITS
        want = sum((F(*p) for p in pairs), F(0))
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert _sum_order(exponents)[1] == (3, 2, 1, 1)


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

        def spy(sums):
            seen.append([v for _, v in sums])
            return combine(sums)

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
