"""Tests for q-Euler numbers, polynomials, and the identity residuals."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
    DomainError,
    characters_mod,
    classical_multiplication_residual,
    distribution_residual,
    euler_classical,
    euler_zeta_neg_int_exact,
    hurwitz_neg_int_exact,
    multiplication_residual_x0,
    partial_zeta_neg_int_exact,
    qeuler_higher,
    qeuler_mixed,
    qeuler_poly_exact,
    qeuler_poly_numeric,
)
from qeuler import euler_numbers, numeric, zeta
from qeuler._direct import Progression
from qeuler.euler_numbers import _binomial_prefactor, _binomial_sum, _binomial_value, _y_powers
from qeuler.numeric import _MERGE_BITS, _fraction, _sum_order

import closed_form_oracle as oracle

F = Fraction

SOME_Q = (F(1, 3), F(1, 2), F(2, 3), F(9, 10), F(5, 2), F(4))


class TestQEulerHigher:
    def test_degree_zero(self):
        for q in SOME_Q:
            assert qeuler_higher(0, 1, q) == (1 + q) / 2

    def test_degree_one_is_constant(self):
        for q in SOME_Q:
            assert qeuler_higher(1, 1, q) == F(-1, 2)

    def test_degree_two_closed_form(self):
        for q in SOME_Q:
            assert qeuler_higher(2, 1, q) == (1 - q) / (2 * (1 + q**2))

    def test_pinned_values(self):
        assert qeuler_higher(2, 1, F(1, 2)) == F(1, 5)
        assert qeuler_higher(2, 1, F(4)) == F(-3, 34)
        assert qeuler_higher(3, 1, F(4)) == F(-5, 442)

    def test_numeric_path_matches_exact(self):
        for m in range(9):
            for k in (1, 2, 3):
                exact = float(qeuler_higher(m, k, F(1, 2)))
                approx = qeuler_higher(m, k, 0.5)
                assert isinstance(approx, float)
                assert approx == pytest.approx(exact, abs=1e-12, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            qeuler_higher(-1, 1, F(1, 2))
        with pytest.raises(DomainError):
            qeuler_higher(2, 0, F(1, 2))
        with pytest.raises(DomainError):
            qeuler_higher(2, 1, 1)
        with pytest.raises(DomainError):
            qeuler_higher(2, 1, F(-1, 2))
        with pytest.raises(DomainError):
            qeuler_higher(2, 1, "1/2")

    @given(
        num=st.integers(min_value=1, max_value=10**6),
        den=st.integers(min_value=2, max_value=10**6),
    )
    def test_degree_one_constant_property(self, num, den):
        q = F(num, den)
        if q == 1:
            return
        assert qeuler_higher(1, 1, q) == F(-1, 2)


class TestQEulerMixed:
    def test_diagonal_matches_first_order(self):
        for q in (F(1, 2), F(2, 5), F(4)):
            for m in range(16):
                assert qeuler_mixed(m, m, q) == qeuler_higher(m, 1, q)

    def test_degree_zero_closed_form(self):
        for q in (F(1, 3), F(3, 4), F(4)):
            for m in range(6):
                assert qeuler_mixed(0, m, q) == (1 + q) / (1 + q**-m)

    def test_pinned_values(self):
        assert qeuler_mixed(1, 2, F(1, 2)) == F(-2, 5)
        assert qeuler_mixed(1, 2, F(4)) == F(-4, 17)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            qeuler_mixed(-1, 2, F(1, 2))
        with pytest.raises(DomainError):
            qeuler_mixed(1, -2, F(1, 2))
        with pytest.raises(DomainError):
            qeuler_mixed(1, 2, 1)


class TestQEulerPoly:
    def test_argument_zero_reduces_to_numbers(self):
        for r in (F(1, 2), F(2, 3)):
            for d in (1, 3, 5):
                for m in range(7):
                    assert qeuler_poly_exact(m, r, d, 0) == qeuler_higher(m, 1, r**d)

    def test_degree_zero_is_constant_in_x(self):
        r = F(1, 2)
        for a in range(7):
            assert qeuler_poly_exact(0, r, 3, a) == (1 + r**3) / 2

    def test_pinned_value(self):
        # E_1 at x = 1/3, base q = (1/2)**3 = 1/8
        assert qeuler_poly_exact(1, F(1, 2), 3, 1) == F(-5, 28)

    def test_numeric_matches_exact(self):
        for m in range(7):
            for a, d in ((0, 1), (1, 3), (2, 3), (4, 5)):
                exact = float(qeuler_poly_exact(m, F(1, 2), d, a))
                approx = qeuler_poly_numeric(m, 0.5**d, a / d)
                assert approx == pytest.approx(exact, abs=1e-12, rel=1e-12)

    def test_rejects_base_outside_unit_interval(self):
        with pytest.raises(DomainError):
            qeuler_poly_exact(2, F(3, 2), 1, 0)
        with pytest.raises(DomainError):
            qeuler_poly_exact(2, F(1), 1, 0)
        with pytest.raises(DomainError):
            qeuler_poly_numeric(2, 1.5, 0.0)

    def test_rejects_bad_indices(self):
        with pytest.raises(DomainError):
            qeuler_poly_exact(-1, F(1, 2), 1, 0)
        with pytest.raises(DomainError):
            qeuler_poly_exact(1, F(1, 2), 0, 0)
        with pytest.raises(DomainError):
            qeuler_poly_exact(1, F(1, 2), 3, -1)
        with pytest.raises(DomainError):
            qeuler_poly_numeric(1, 0.5, -0.25)


def mp_higher(m, k, q):
    """E_m^(k)(q) by its defining closed form in mpmath, at the binary value
    of the float q, with enough digits to absorb the cancellation; rounded
    to a double."""
    with mpmath.workdps(40 + m * (2 - int(math.log10(1 - q)))):
        qm = mpmath.mpf(q)
        total = mpmath.fsum(
            (-1) ** i * math.comb(m, i) / mpmath.fprod(1 + qm ** (i - m - j) for j in range(k))
            for i in range(m + 1)
        )
        return float((1 + qm) ** k / (1 - qm) ** m * total)


class TestFloatBaseIsRoundedOnce:
    """A float q is evaluated exactly and rounded once, so the result is the
    correctly rounded value at that double.  Every cell lies where the
    closed form cancels catastrophically in floating point (a wrong value,
    inf, or ZeroDivisionError in a float evaluation)."""

    @pytest.mark.parametrize("m,q", [(8, 0.99), (20, 0.9), (150, 1 - 1e-9)])
    def test_first_order_equals_exact_zeta_value(self, m, q):
        assert qeuler_higher(m, 1, q) == float(euler_zeta_neg_int_exact(m, F(q)))

    def test_second_order_near_one(self):
        assert qeuler_higher(60, 2, 0.999) == mp_higher(60, 2, 0.999)

    def test_mixed_and_polynomial(self):
        want = mp_higher(16, 1, 0.99)
        assert qeuler_mixed(16, 16, 0.99) == want
        assert qeuler_poly_numeric(16, 0.99, 0) == want
        assert qeuler_poly_numeric(16, F(99, 100), 0) == float(qeuler_higher(16, 1, F(99, 100)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_raise(self, bad):
        with pytest.raises(DomainError):
            qeuler_higher(2, 1, bad)
        with pytest.raises(DomainError):
            qeuler_mixed(2, 1, bad)
        with pytest.raises(DomainError):
            qeuler_poly_numeric(3, bad, 0.5)
        with pytest.raises(DomainError):
            qeuler_poly_numeric(3, 0.5, bad)


class TestEulerClassical:
    def test_first_order_sequence(self):
        want = [F(1), F(-1, 2), F(0), F(1, 4), F(0), F(-1, 2),
                F(0), F(17, 8), F(0), F(-31, 2), F(0), F(691, 4)]
        assert [euler_classical(n) for n in range(12)] == want

    def test_odd_index_vanishing_beyond_one(self):
        for n in (2, 4, 6, 8, 10, 12):
            assert euler_classical(n) == 0

    def test_order_two_values(self):
        assert euler_classical(0, 2) == 1
        assert euler_classical(1, 2) == -1
        assert euler_classical(4, 2) == -1

    def test_order_convolution(self):
        # E_n^(k) = sum_j C(n,j) E_j^(k-1) E_{n-j}
        from qeuler import binom

        for k in (2, 3):
            for n in range(8):
                want = sum(
                    binom(n, j) * euler_classical(j, k - 1) * euler_classical(n - j)
                    for j in range(n + 1)
                )
                assert euler_classical(n, k) == want

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            euler_classical(-1)
        with pytest.raises(DomainError):
            euler_classical(2, 0)


class TestClassicalLimit:
    def test_higher_order_tends_to_classical(self):
        # The gap closes linearly in 1 - q; at 1 - q = 1e-5 every (m, k)
        # with m <= 6, k <= 3 sits inside 1e-3, the largest being (6, 3)
        # at 567/8 * 1e-5 ~ 7.1e-4, a 1.4x margin.  The gap is taken in
        # Fractions, so no rounding enters the comparison.
        q = 1 - F(1, 10**5)
        for m in range(7):
            for k in (1, 2, 3):
                gap = abs(qeuler_higher(m, k, q) - euler_classical(m, k))
                assert gap <= F(1, 1000), (m, k, float(gap))


class TestResiduals:
    def test_distribution_residual_vanishes(self):
        for r in (F(1, 2), F(1, 3)):
            for d in (1, 3, 5):
                for n in range(5):
                    for x in (0, 1, 2):
                        assert distribution_residual(n, d, x, r) == 0

    def test_distribution_rejects_even_d(self):
        with pytest.raises(DomainError):
            distribution_residual(2, 2, 0, F(1, 2))

    def test_multiplication_residual_vanishes(self):
        for r in (F(1, 2), F(2, 3)):
            for n in (1, 3, 5):
                for m in range(5):
                    assert multiplication_residual_x0(m, n, r) == 0

    def test_multiplication_rejects_even_n(self):
        with pytest.raises(DomainError):
            multiplication_residual_x0(2, 4, F(1, 2))

    def test_classical_multiplication_vanishes(self):
        for n in (3, 5, 7):
            for m in range(1, 11):
                assert classical_multiplication_residual(m, n) == 0

    def test_classical_multiplication_rejects_bad_args(self):
        with pytest.raises(DomainError):
            classical_multiplication_residual(0, 3)
        with pytest.raises(DomainError):
            classical_multiplication_residual(2, 4)


class TestResidualSensitivity:
    # A residual that always returned 0 would pass the tests above: shifting
    # one ingredient by c must move it by exactly the predicted amount.

    @pytest.mark.parametrize("n, d, x, i", [(0, 1, 0, 0), (4, 3, 1, 2), (5, 5, 2, 3)])
    @pytest.mark.parametrize("r", [F(1, 2), F(2, 3)])
    def test_distribution_part_shift(self, monkeypatch, n, d, x, i, r):
        # The right side is one sum of n+1 terms, all d classes in one group,
        # with the prefactor (1+q)/(1-q)**n / a**((d-1) n) / b**(x n), q = a/b
        # (the weights' common denominator b**(x n) folded in): shifting its
        # i-th term by c moves the residual by -c times that prefactor.
        c = F(3, 7)
        exact_sum, calls = euler_numbers._exact_sum, []

        def shifted(values, prefactor=(1, 1), exponents=None):
            values = list(values)
            calls.append(prefactor)
            if len(calls) == 2:  # the left side's sum comes first, their difference last
                num, den = values[i]
                values[i] = (num * c.denominator + c.numerator * den, den * c.denominator)
            return exact_sum(values, prefactor, exponents)

        monkeypatch.setattr(euler_numbers, "_exact_sum", shifted)
        got = distribution_residual(n, d, x, r)
        want = (1 + r) / (1 - r) ** n / r.numerator ** ((d - 1) * n) / r.denominator ** (x * n)
        assert len(calls) == 3 and F(*calls[1]) == want
        assert got == -c * want != 0

    @pytest.mark.parametrize("m, n, j", [(1, 3, 0), (4, 3, 4), (6, 5, 2), (8, 7, 7)])
    def test_classical_euler_shift(self, monkeypatch, m, n, j):
        c = F(5, 3)
        # fill the lru_cache first, so that the cached recursion never
        # reaches the patched name and stores a shifted value
        euler_classical(m)
        first = euler_numbers._euler_first
        monkeypatch.setattr(euler_numbers, "_euler_first",
                            lambda k: first(k) + (c if k == j else 0))
        if j == m:
            want = (1 - n**m) * c  # E_m on the left side
        else:
            inner = sum((-1) ** i * i ** (m - j) for i in range(1, n))
            want = -math.comb(m, j) * n**j * inner * c
        assert want != 0
        assert classical_multiplication_residual(m, n) == want
        monkeypatch.undo()
        assert classical_multiplication_residual(m, n) == 0


# Differential tests: the integer-built terms and the coefficient vector
# shared by every y of a call against the per-term Fraction formula.

RATIONALS = st.integers(2, 100).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: F(num, den))
)
MODULI = st.sampled_from([1, 3, 5, 15])


class TestSharedCoefficientSum:
    @given(m=st.integers(0, 20), r=RATIONALS, d=MODULI, data=st.data())
    @settings(deadline=None)
    def test_polynomial_equals_per_term_oracle(self, m, r, d, data):
        a = data.draw(st.integers(0, 2 * d))
        assert qeuler_poly_exact(m, r, d, a) == oracle.qeuler_poly_exact(m, r, d, a)

    @given(m=st.integers(1, 20), r=RATIONALS, d=MODULI, data=st.data())
    @settings(deadline=None)
    def test_continuation_truncation_equals_per_term_oracle(self, m, r, d, data):
        a = data.draw(st.integers(1, 2 * d))
        assert hurwitz_neg_int_exact(m, r, d, a) == oracle.qeuler_poly_exact(m, r, d, a)

    @given(kdeg=st.integers(0, 20), m=st.integers(0, 20), r=RATIONALS, inverse=st.booleans())
    @settings(deadline=None)
    def test_mixed_equals_per_term_oracle(self, kdeg, m, r, inverse):
        q = 1 / r if inverse else r
        assert qeuler_mixed(kdeg, m, q) == oracle.qeuler_mixed(kdeg, m, q)

    @given(m=st.integers(0, 20), k=st.integers(1, 5), r=RATIONALS, inverse=st.booleans())
    @settings(deadline=None)
    def test_higher_order_equals_per_term_oracle(self, m, k, r, inverse):
        q = 1 / r if inverse else r
        assert qeuler_higher(m, k, q) == oracle.qeuler_higher(m, k, q)

    @given(n=st.integers(0, 20), d=st.sampled_from([1, 3, 5]), x=st.integers(0, 2),
           r=RATIONALS)
    @settings(deadline=None)
    def test_distribution_residual_equals_per_term_oracle(self, n, d, x, r):
        got = distribution_residual(n, d, x, r)
        assert got == oracle.distribution_residual(n, d, x, r) == 0

    @given(n=st.integers(0, 20), m=st.integers(0, 20), r=RATIONALS, d=MODULI)
    @settings(deadline=None)
    def test_batched_call_equals_one_call_per_y(self, n, m, r, d):
        ys = [1, *(r**a for a in range(2 * d + 1)), F(r.denominator, r.numerator + r.denominator)]
        q = r**d
        qp = (q.numerator, q.denominator)
        pairs = [(y.numerator, y.denominator) for y in map(F, ys)]
        weights = [_y_powers(y, n) for y in pairs]
        prefactor = _binomial_prefactor(n, qp)
        assert F(*prefactor) == (1 + q) / (1 - q) ** n
        # the prefactor folded into every sum of one call, or taken in outside
        batched = [_fraction(v) for v in _binomial_sum(n, m, qp, [(w, prefactor) for w in weights])]
        assert batched == [F(*prefactor) * _fraction(v)
                           for v in _binomial_sum(n, m, qp, [(w, (1, 1)) for w in weights])]
        assert batched == [_fraction(_binomial_value(n, m, qp, y)) for y in pairs]
        assert batched == [oracle.binomial_sum(n, m, q, y) for y in ys]

    def test_unreduced_pairs(self):
        # the pairs need not be in lowest terms, and y = s/s is 1
        def reduced(q, ys):
            sums = _binomial_sum(5, 5, q, [(_y_powers(y, 5), (1, 1)) for y in ys])
            return F(*_binomial_prefactor(5, q)), [_fraction(v) for v in sums]

        assert reduced((2, 4), [(3, 3), (6, 8)]) == reduced((1, 2), [(1, 1), (3, 4)])
        assert _y_powers((3, 3), 5) is None

    def test_empty_batch(self):
        # no weights, no sums; the prefactor is formed apart from them
        assert _binomial_sum(4, 4, (1, 2), []) == []
        assert _binomial_sum(4, 4, (1, 2), [], 3) == []
        assert F(*_binomial_prefactor(4, (1, 2))) == F(3, 2) / F(1, 2) ** 4

    def test_pinned_float_cells(self):
        # the exact value at the double 0.99, rounded once
        assert qeuler_mixed(16, 16, 0.99).hex() == "-0x1.048599616686cp+17"
        assert qeuler_poly_numeric(16, 0.99, 0).hex() == "-0x1.048599616686cp+17"
        assert qeuler_poly_numeric(40, 0.99, 0.3).hex() == "-0x1.4e85ffb30ec63p+93"
        assert float(oracle.qeuler_mixed(16, 16, F(0.99))).hex() == "-0x1.048599616686cp+17"


ORDER_Q = st.one_of(st.sampled_from([F(1, 2), F(2, 3)]),
                    st.integers(3, 10_001).map(lambda n: F(n - 1, n)))


def _trees(monkeypatch, module, call):
    """The terms of each ``numeric._tree`` that the one ``_exact_sum``
    of ``call`` in ``module`` adds them by, in order, and whether each
    tree came back an unreduced pair."""
    sums, trees = [], []
    exact_sum, tree = numeric._exact_sum, numeric._tree

    def spy_sum(*args):
        sums.append(args)
        return exact_sum(*args)

    def spy_tree(xs):
        value = tree(xs)
        trees.append((list(xs), type(value) is tuple))
        return value

    monkeypatch.setattr(module, "_exact_sum", spy_sum)
    monkeypatch.setattr(numeric, "_tree", spy_tree)
    call()
    assert len(sums) == 1
    return trees


def _dens(terms):
    return [den for _, den in terms]


class TestFactorOrderedSums:
    """``_exact_sum`` adds the terms of a sum past ``_MERGE_BITS`` in the
    factor order of the exponent e = m - j of their denominators, one tree
    per 2-adic class; an exact sum does not depend on the order, so the
    values equal the term-by-term oracle."""

    @given(m=st.integers(0, 60), k=st.integers(1, 3), q=ORDER_Q)
    @settings(deadline=None, max_examples=60)
    def test_ordered_sums_equal_oracle(self, m, k, q):
        value = qeuler_higher(m, k, q)
        assert value == oracle.qeuler_higher(m, k, q)
        if k == 1 and m:
            assert euler_zeta_neg_int_exact(m, q) == value

    @given(kdeg=st.integers(0, 40), m=st.integers(0, 40), q=ORDER_Q)
    @settings(deadline=None, max_examples=40)
    def test_mixed_sums_equal_oracle(self, kdeg, m, q):
        # kdeg > m has exponents of both signs
        assert qeuler_mixed(kdeg, m, q) == oracle.qeuler_mixed(kdeg, m, q)

    @pytest.mark.parametrize("module, call", [
        (euler_numbers, lambda m, q: qeuler_higher(m, 1, q)),
        (zeta, euler_zeta_neg_int_exact),
    ])
    @pytest.mark.parametrize("m", [1, 12, 45, 80])
    def test_terms_arrive_in_factor_order(self, monkeypatch, module, call, m):
        # term e of either route is over a**e + b**e alone at k = 1 and x = 0,
        # so the denominators show the order; a sum past _MERGE_BITS (m = 80)
        # adds each 2-adic class on its own tree, a smaller one is one
        # unreduced pair in the order of j
        trees = _trees(monkeypatch, module, lambda: call(m, F(2, 3)))
        big = sum((2**e + 3**e).bit_length() for e in range(m + 1)) > _MERGE_BITS
        assert big == (m == 80)
        if big:
            order, runs = _sum_order(range(m + 1))  # the indices are the exponents
            assert [den for terms, _ in trees for den in _dens(terms)] == [
                2**e + 3**e for e in order]
            assert tuple(len(terms) for terms, _ in trees) == runs
        else:
            ((terms, pair),) = trees
            assert _dens(terms) == [2**e + 3**e for e in range(m, -1, -1)] and pair

    @pytest.mark.parametrize("n, m", [(100, 30), (130, 40)])
    def test_mixed_terms_put_e_before_minus_e(self, monkeypatch, n, m):
        # n > 2m: term j is over the denominator of |e|, e = m - j, and its
        # numerator C(n,j) (-1)**j b**(-e) or a**e tells e from -e; the terms
        # of e >= 0 (j <= m) come before those of -e in each class
        a, b = 2, 3
        trees = _trees(monkeypatch, euler_numbers, lambda: qeuler_mixed(n, m, F(a, b)))
        rank = {e: i for i, e in enumerate(_sum_order(range(n - m + 1))[0])}
        js = sorted(range(n + 1), key=lambda j: (rank[abs(m - j)], j))
        want = [((-1) ** j * math.comb(n, j) * (a ** (m - j) if j < m else b ** (j - m)),
                 a ** abs(m - j) + b ** abs(m - j)) for j in js]
        assert [t for terms, _ in trees for t in terms] == want and len(trees) > 1

    @pytest.mark.parametrize("m", [3, 20, 90])
    def test_higher_order_terms_stay_in_order_of_j(self, monkeypatch, m):
        # at k = 2 term j is over the denominators of e = m-j and m-j+1, so
        # neighbours in the order of j share one of their two, and a term
        # spans two 2-adic classes: the sum is one tree in the order of j
        ((terms, pair),) = _trees(monkeypatch, euler_numbers,
                                  lambda: qeuler_higher(m, 2, F(2, 3)))
        assert _dens(terms) == [(2**e + 3**e) * (2 ** (e + 1) + 3 ** (e + 1))
                                for e in range(m, -1, -1)]
        assert pair == (m < 90)  # m = 90 passes the bound: its tree is a Fraction


class TestTruncationEdgeClasses:
    """The exact truncation cancels the q**(a e) of its class against the
    Q**e = q**(step e) of its numerators, which needs 0 <= a <= step: the
    edge classes a = step (partial zeta at a = F) and a = 0 (Hurwitz)
    against the per-term oracle, and the class tables of every route."""

    @given(n=st.integers(1, 16), F_=st.sampled_from([3, 5, 9, 15]), r=RATIONALS)
    @settings(deadline=None)
    def test_class_at_its_step_equals_oracle(self, n, F_, r):
        # H(-n, F, F) is the term i = F of the distribution sum at base r**F
        want = ((1 + r) / (1 + r**F_) * oracle.q_bracket(F_, r) ** n * (-1) ** F_
                * r ** (-n * F_) * oracle.qeuler_poly_exact(n, r, F_, F_))
        assert partial_zeta_neg_int_exact(n, F_, F_, r) == want

    @given(m=st.integers(1, 16), r=RATIONALS, d=MODULI, data=st.data())
    @settings(deadline=None)
    def test_class_zero_equals_oracle(self, m, r, d, data):
        a = data.draw(st.integers(0, 2 * d))
        assert hurwitz_neg_int_exact(m, r, d, a) == oracle.qeuler_poly_exact(m, r, d, a)

    def test_every_class_lies_within_its_step(self):
        # a negative step - a would be a power of qa below zero: no route builds one
        tables = [Progression.of(n0=0), Progression.of()]
        tables += [Progression.of(n0=a, step=F_) for F_ in (3, 5, 7, 9) for a in range(1, F_ + 1)]
        tables += [Progression.of(chi=chi) for d in (1, 3, 5, 7, 9, 15, 21, 45, 105)
                   for chi in characters_mod(d)]
        for progression in tables:
            assert all(0 <= a <= progression.period for a, _, _ in progression.classes)
        # and the partial zeta keeps its class in 1..F
        for a in (0, 6):
            with pytest.raises(DomainError):
                partial_zeta_neg_int_exact(2, a, 5, F(1, 2))


class TestOneGcdPerValue:
    """A value that ``_exact_sum`` has already reduced to a Fraction
    (its sum passed ``_MERGE_BITS``) enters a larger sum as it is, and is
    never rebuilt by ``Fraction(*pair)``, a second full gcd."""

    CHI105 = characters_mod(105)
    CASES = [
        ("decomposition real chi", zeta.l_neg_int_decomposition,
         (4, next(c for c in CHI105 if c.order == 2), F(99, 100))),
        ("decomposition complex chi", zeta.l_neg_int_decomposition,
         (4, next(c for c in CHI105 if c.order > 2), F(99, 100))),
        ("distribution residual", distribution_residual, (12, 15, 3, F(9999, 10000))),
        ("multiplication residual", multiplication_residual_x0, (20, 9, F(9999, 10000))),
    ]

    @pytest.mark.parametrize("name,fn,args", CASES, ids=[c[0] for c in CASES])
    def test_reduced_values_are_not_rebuilt(self, monkeypatch, name, fn, args):
        reduced, rebuilt = set(), []
        exact_sum, fraction = numeric._exact_sum, numeric._fraction

        def spy_sum(*args):
            value = exact_sum(*args)
            if type(value) is not tuple:
                reduced.add((value.numerator, value.denominator))
            return value

        def spy_fraction(x):
            if type(x) is tuple and x in reduced:
                rebuilt.append(x)
            return fraction(x)

        for module in (zeta, euler_numbers):
            monkeypatch.setattr(module, "_exact_sum", spy_sum)
        monkeypatch.setattr(numeric, "_fraction", spy_fraction)
        fn(*args)
        assert reduced, "the case must pass _MERGE_BITS"
        assert not rebuilt


class TestLargeSizeCells:
    """Cells past ``_MERGE_BITS``, where ``_exact_sum`` adds Fractions, and
    bases q > 1, where (1 - q)**n is negative for odd n."""

    @pytest.mark.parametrize("m, q", [(148, F(9999, 10000)), (60, F(10001, 10002)),
                                      (150, F(1, 2))])
    def test_closed_form_equals_continuation_and_oracle(self, m, q):
        value = qeuler_higher(m, 1, q)
        assert value == euler_zeta_neg_int_exact(m, q) == oracle.qeuler_higher(m, 1, q)
        assert value.denominator.bit_length() > _MERGE_BITS

    @pytest.mark.parametrize("q", [F(4), F(7, 4)])
    def test_base_above_one_equals_oracle(self, q):
        for m in range(41):
            for k in (1, 2, 3):
                assert qeuler_higher(m, k, q) == oracle.qeuler_higher(m, k, q), (m, k)
