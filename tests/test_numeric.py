"""Tests for the scalar kernel: q-brackets, binomials, valuations."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
    DomainError,
    PAdicQParam,
    binom,
    gen_binom,
    is_prime,
    p_valuation,
    q_bracket,
    q_bracket_signed,
)
from qeuler.numeric import (_MERGE_BITS, _exact_sum, _float, _fraction, _pair, _power_sums,
                            _sum_order)

F = Fraction


class TestQBracket:
    def test_small_values(self):
        assert q_bracket(2, F(1, 2)) == F(3, 2)
        assert q_bracket(3, F(1, 2)) == F(7, 4)
        assert q_bracket(0, F(1, 2)) == 0
        assert q_bracket(1, F(7, 3)) == 1

    def test_symbolic_two(self):
        for q in (F(1, 3), F(2, 5), F(7, 2), 4):
            assert q_bracket(2, q) == 1 + F(q)

    def test_limit_branch_at_one(self):
        assert q_bracket(5, 1) == 5
        assert q_bracket(5, F(1)) == 5
        assert q_bracket(2.5, 1) == 2.5

    def test_float_path(self):
        assert q_bracket(3, 0.5) == pytest.approx(1.75)
        assert isinstance(q_bracket(3, 0.5), float)
        assert q_bracket(0.5, 0.25) == pytest.approx((1 - 0.25**0.5) / 0.75)

    @pytest.mark.parametrize("x, q", [(10**400, 0.5), (0.5, F(10**400)), (F(-(10**400), 3), 0.5),
                                      (1 + 1j, 10**400), (2.0, 10**400)])
    def test_float_path_beyond_double_range_raises_domain_error(self, x, q):
        # an exact argument the floating path cannot convert is outside the
        # domain, never the OverflowError of the conversion
        with pytest.raises(DomainError, match="double range"):
            q_bracket(x, q)

    @pytest.mark.parametrize("call", [lambda: q_bracket(-2000.0, 0.5),
                                      lambda: q_bracket(2000, 2.0),
                                      lambda: q_bracket_signed(2000, 1e300)],
                             ids=["q_bracket(-2000.0, 0.5)", "q_bracket(2000, 2.0)",
                                  "q_bracket_signed(2000, 1e300)"])
    def test_float_power_beyond_double_range_raises(self, call):
        # doubles whose power overflows: a typed OverflowError naming it
        with pytest.raises(OverflowError, match=r"q\*\*x exceeds the double range at q = "):
            call()

    def test_geometric_identity_exact(self):
        # [x]_q (1 - q) + q**x = 1 for integer x >= 0
        for q in (F(1, 3), F(2, 5), F(5, 2)):
            for x in range(21):
                assert q_bracket(x, q) * (1 - q) + q**x == 1

    def test_limit_rate(self):
        # |[x]_{1-eps} - x| <= x**2 * eps, checked exactly
        eps = F(1, 10**6)
        for x in range(11):
            assert abs(q_bracket(x, 1 - eps) - x) <= x * x * eps

    def test_negative_exponent_exact(self):
        q = F(1, 2)
        assert q_bracket(-1, q) == (1 - q**-1) / (1 - q)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            q_bracket(2, 0)
        with pytest.raises(DomainError):
            q_bracket(2, F(-1, 2))

    def test_rejects_fractional_exponent_in_exact_mode(self):
        with pytest.raises(DomainError):
            q_bracket(F(1, 3), F(1, 2))

    @given(
        x=st.integers(min_value=0, max_value=60),
        num=st.integers(min_value=1, max_value=40),
        den=st.integers(min_value=1, max_value=40),
    )
    def test_geometric_identity_property(self, x, num, den):
        q = F(num, den)
        if q == 1:
            return
        assert q_bracket(x, q) * (1 - q) + q**x == 1


class TestQBracketSigned:
    def test_one_is_always_one(self):
        for q in (F(1, 2), F(3, 7), 4, 0.3):
            assert q_bracket_signed(1, q) == 1

    def test_small_values(self):
        assert q_bracket_signed(2, F(1, 2)) == F(1, 2)
        assert q_bracket_signed(3, F(1, 2)) == F(3, 4)

    def test_odd_arguments_positive_form(self):
        # for odd x, [x]_{-q} = (1 + q**x)/(1 + q)
        for q in (F(1, 3), F(5, 2)):
            for x in (1, 3, 5, 9):
                assert q_bracket_signed(x, q) == (1 + q**x) / (1 + q)

    @pytest.mark.parametrize("x, q, value", [
        (10**400, 0.5, 1 / 1.5), (10**400, 0.999, 1 / 1.999), (10**5000, 0.5, 1 / 1.5),
        (10**400 + 1, 1.0, 1.0), (10**400, 1.0, 0.0),
        (2**53 + 1, 1.0, 1.0),
    ], ids=["1e400 at 0.5", "1e400 at 0.999", "1e5000 at 0.5", "1e400+1 at 1", "1e400 at 1",
            "2**53+1 at 1"])
    def test_huge_x_at_float_q_gives_the_value(self, x, q, value):
        # q < 1: q**x underflows; q = 1: the parity of x alone
        assert q_bracket_signed(x, q) == value

    def test_sign_follows_the_parity_of_an_int_past_2_53(self):
        # float(2**53 + 1) is the even 2**53; q**x is about 1/e here, so an
        # even sign would give (1 - 1/e)/2 in place of (1 + 1/e)/2
        q = 1 - 2**-53
        assert q_bracket_signed(2**53 + 1, q) == pytest.approx((1 + math.exp(-1)) / 2)
        assert q_bracket_signed(2**53 + 2, q) == pytest.approx((1 - math.exp(-1)) / 2)

    def test_huge_x_past_one_overflows(self):
        with pytest.raises(OverflowError, match=r"at q = 1.5, x = <int of 16610 bits>$"):
            q_bracket_signed(10**5000, 1.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            q_bracket_signed(-1, F(1, 2))
        with pytest.raises(DomainError):
            q_bracket_signed(F(1, 2), F(1, 2))
        with pytest.raises(DomainError):
            q_bracket_signed(2, -1)


class TestBinom:
    def test_values(self):
        assert binom(4, 2) == 6
        assert binom(3, 5) == 0
        assert binom(0, 0) == 1
        assert binom(7, -1) == 0

    def test_matches_math_comb(self):
        for m in range(12):
            for i in range(m + 1):
                assert binom(m, i) == math.comb(m, i)

    def test_rejects_negative_m(self):
        with pytest.raises(DomainError):
            binom(-1, 0)


class TestGenBinom:
    def test_base_cases(self):
        assert gen_binom(F(7, 3), 0) == 1
        assert gen_binom(-2, 3) == 0
        assert gen_binom(3, 2) == 6  # C(4, 2)

    def test_negative_integer_s_alternating(self):
        # gen_binom(-m, j) = (-1)**j * C(m, j)
        for m in range(21):
            for j in range(26):
                want = -binom(m, j) if j % 2 else binom(m, j)
                assert gen_binom(-m, j) == want

    def test_positive_integer_shift(self):
        # gen_binom(s, j) = C(s+j-1, j) for integer s >= 1
        for s in range(1, 8):
            for j in range(8):
                assert gen_binom(s, j) == math.comb(s + j - 1, j)

    def test_float_and_complex_paths(self):
        assert gen_binom(0.5, 2) == pytest.approx(0.5 * 1.5 / 2)
        z = gen_binom(1 + 1j, 2)
        assert isinstance(z, complex)
        assert z == pytest.approx((1 + 1j) * (2 + 1j) / 2)

    @staticmethod
    def _product(s, j, one):
        """The definition prod_{i=1}^{j} (s + i - 1)/i, one factor at a time."""
        out = one
        for i in range(1, j + 1):
            out *= (s + i - 1) / i
        return out

    def test_exact_matches_product_definition(self):
        for s in (-7, -1, 0, 1, 5, F(-7, 3), F(-1, 2), F(0), F(2, 5), F(9, 4), F(6)):
            for j in range(41):
                got = gen_binom(s, j)
                assert isinstance(got, Fraction)
                assert got == self._product(Fraction(s), j, Fraction(1))

    def test_floating_paths_match_the_loop_bitwise(self):
        for s in (0.5, -2.0, 3.0, -2.75, 1e-3, 17.25):
            for j in range(41):
                assert gen_binom(s, j).hex() == self._product(s, j, 1.0).hex()
        for s in (1 + 1j, -2.5 + 0.25j, 3j, -4 + 0j):
            for j in range(41):
                got, want = gen_binom(s, j), self._product(s, j, complex(1))
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("s", [1e300, -1e300, 1e300 + 1j, 1e200j, 2e154])
    def test_coefficient_beyond_double_range_raises(self, s):
        # a finite s whose coefficient overflows: a typed OverflowError
        # naming the coefficient, never an inf or a NaN
        with pytest.raises(OverflowError, match=r"C\(s\+j-1, j\) exceeds the double range"):
            gen_binom(s, 3)
        assert math.isfinite(abs(gen_binom(s, 1)))  # s itself is a double

    def test_rejects_bad_j(self):
        with pytest.raises(DomainError):
            gen_binom(2, -1)
        with pytest.raises(DomainError):
            gen_binom(2, F(1, 2))


def _pairs_of(bits):
    return st.tuples(st.integers(-(2**bits), 2**bits), st.integers(1, 2**bits))


# lists of pairs whose denominators total below, near and far above _MERGE_BITS
PAIR_LISTS = st.one_of(
    st.lists(st.integers(0, 400).flatmap(_pairs_of), max_size=17),
    st.lists(st.integers(0, 6000).flatmap(_pairs_of), max_size=33),
)
# prefactor pairs, with a denominator of either sign
PREFACTORS = st.tuples(st.integers(-(2**80), 2**80),
                       st.integers(1, 2**80).flatmap(lambda d: st.sampled_from([d, -d])))


def _sum(pairs):
    return sum((Fraction(n, d) for n, d in pairs), Fraction(0))


def _bits(pairs):
    return sum(d.bit_length() for _, d in pairs)


def _unreduced(pairs):
    """(sum_i n_i prod_{j != i} d_j, prod_i d_i): the sum with no gcd."""
    dens = [d for _, d in pairs]
    return (sum(n * math.prod(dens[:i] + dens[i + 1:]) for i, (n, _) in enumerate(pairs)),
            math.prod(dens))


class TestExactSum:
    # denominators from 1 bit to about 2**6000, so that pairs merge as
    # integers below _MERGE_BITS, as Fractions above it, and across it
    @given(PAIR_LISTS)
    @settings(deadline=None)
    def test_equals_sum_of_fractions(self, pairs):
        raw = _exact_sum(pairs)
        got = _fraction(raw)
        assert isinstance(got, Fraction)
        assert got == _sum(pairs)
        # a pair up to the bound; past it a Fraction comes back reduced
        if _bits(pairs) <= _MERGE_BITS:
            assert type(raw) is tuple
        elif isinstance(raw, Fraction):
            assert raw.denominator == got.denominator

    @given(PAIR_LISTS)
    @settings(deadline=None)
    def test_pair_is_the_unreduced_sum(self, pairs):
        # within the bound no merge of the tree passes it, so the level-by-level
        # merges build the same integers as the sum over one common denominator
        if _bits(pairs) <= _MERGE_BITS:
            assert _exact_sum(pairs) == _unreduced(pairs)

    @given(PAIR_LISTS, PREFACTORS)
    @settings(deadline=None)
    def test_prefactor_multiplies_the_sum(self, pairs, prefactor):
        raw = _exact_sum(pairs, prefactor)
        want = Fraction(*prefactor) * _sum(pairs)
        assert _fraction(raw) == want
        num, den = _pair(raw)
        assert Fraction(num, den) == want
        if _bits(pairs) <= _MERGE_BITS:
            # multiplied in as integers, before the one gcd
            n, d = _unreduced(pairs)
            assert raw == (prefactor[0] * n, prefactor[1] * d)

    @given(st.lists(st.integers(0, 300).flatmap(_pairs_of), max_size=9), PREFACTORS)
    @settings(deadline=None)
    def test_raw_value_rounds_like_its_fraction(self, pairs, prefactor):
        raw = _exact_sum(pairs, prefactor)
        try:
            want = float(_fraction(raw))
        except OverflowError:
            with pytest.raises(OverflowError):
                _float(raw)
            return
        # bit for bit, the sign of a zero included
        assert _float(raw).hex() == want.hex()

    def test_edges(self):
        assert _exact_sum([]) == (0, 1) and _fraction(_exact_sum([])) == 0
        assert _fraction(_exact_sum([(7, 1)])) == 7 and isinstance(_fraction((7, 1)), Fraction)
        assert _exact_sum([(6, 4)]) == (6, 4)  # an unreduced pair stays unreduced
        assert _fraction(_exact_sum([(6, 4)])) == F(3, 2)  # and is reduced once
        assert _fraction(_exact_sum(iter([(1, 2), (1, 3), (1, 1)]))) == F(11, 6)
        assert _fraction(_exact_sum([(0, 5), (-3, 6), (0, 1)])) == F(-1, 2)
        pairs = [((-1) ** n, n + 2) for n in range(7)]
        assert _fraction(_exact_sum(pairs)) == _sum(pairs)
        assert _exact_sum([(1, 2), (1, 3)], (5, -7)) == (25, -42)
        assert _float((0, -5)).hex() == float(F(0, 5)).hex() == "0x0.0p+0"
        assert _pair(F(6, 4)) == (3, 2) and _pair((6, 4)) == (6, 4)

    def test_both_sides_of_the_merge_bound(self):
        big = 2**_MERGE_BITS + 1
        # level 0 merges two small neighbours as integers and the big ones as Fractions
        pairs = [(1, 3), (2, 5), (1, big), (-1, 3 * big), (5, 7), (-2, 5), (0, big * big)]
        want = F(1, 3) + F(2, 3 * big) + F(5, 7)
        got = _exact_sum(pairs)
        assert got == want and got.denominator == want.denominator
        # a large sum takes the prefactor into its reduced Fraction
        got = _exact_sum(pairs, (3, 4))
        assert isinstance(got, Fraction) and got == F(3, 4) * want


def _v2(e):
    return (e & -e).bit_length() - 1


def _largest_odd_prime(e):
    odd = e >> _v2(e)
    return max((p for p in range(3, odd + 1, 2) if odd % p == 0 and is_prime(p)), default=1)


def _factor_order(n):
    """The exponents 0..n in the order ``_exact_sum`` adds their terms
    past its gate: for the range 0..n the term indices are the exponents."""
    return _sum_order(range(n + 1))[0]


class TestFactorOrder:
    """The order in which the exact sums add their terms over a**e + b**e."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 45, 148, 300])
    def test_is_a_permutation(self, n):
        order = _factor_order(n)
        assert sorted(order) == list(range(n + 1))
        assert _factor_order(n) is order  # built once per range
        # the producers' order of j, e = n - j, gives the same exponents
        assert tuple(n - j for j in _sum_order(range(n, -1, -1))[0]) == order

    @pytest.mark.parametrize("n", [1, 16, 45, 148, 300])
    def test_each_class_is_contiguous(self, n):
        # a**e + b**e and a**f + b**f share a cyclotomic factor only when
        # v2(e) = v2(f): each 2-adic class is one run, 0 comes last, and in a
        # class the exponents with the same largest odd prime are one run
        order = _factor_order(n)
        assert order[-1] == 0
        rest = order[:-1]
        classes = [_v2(e) for e in rest]
        assert classes == sorted(classes)
        keys = [(_v2(e), _largest_odd_prime(e)) for e in rest]
        runs = [k for i, k in enumerate(keys) if i == 0 or keys[i - 1] != k]
        assert len(runs) == len(set(runs))

    def test_small_order(self):
        assert _factor_order(12) == (1, 3, 9, 5, 7, 11, 2, 6, 10, 4, 12, 8, 0)

    def test_power_sums(self):
        # sum of c * z**e over (c, z), for e = 0..n
        assert _power_sums([(1, 2), (-1, 3)], 3) == [0, -1, -5, -19]
        assert _power_sums([], 2) == [0, 0, 0]
        zs = [(-1, 7), (1, 1), (1, 10**30)]
        assert _power_sums(zs, 5) == [sum(c * z**e for c, z in zs) for e in range(6)]


class TestPValuation:
    def test_examples(self):
        assert p_valuation(F(18, 5), 3) == 2
        assert p_valuation(0, 7) == math.inf
        assert p_valuation(F(3, 8), 2) == -3
        assert p_valuation(1, 5) == 0
        assert p_valuation(-9, 3) == 2

    def test_additivity_random(self):
        rng = random.Random(20240817)
        for p in (2, 3, 5, 7):
            for _ in range(50):
                a = F(rng.randrange(-500, 500) or 1, rng.randrange(1, 500))
                b = F(rng.randrange(-500, 500) or 1, rng.randrange(1, 500))
                assert p_valuation(a * b, p) == p_valuation(a, p) + p_valuation(b, p)

    def test_rejects_composite_p(self):
        with pytest.raises(DomainError):
            p_valuation(F(1, 2), 6)
        with pytest.raises(DomainError):
            p_valuation(F(1, 2), 1)


class TestIsPrime:
    def test_small_table(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        for n in range(31):
            assert is_prime(n) == (n in primes)

    def test_larger(self):
        assert is_prime(7919)
        assert not is_prime(7917)


class TestPAdicQParam:
    def test_accepts_valid_parameters(self):
        ctx = PAdicQParam(3, 4)
        assert ctx.p == 3
        assert ctx.q == F(4)
        assert PAdicQParam(5, 6).q == 6
        assert PAdicQParam(3, F(7, 4)).q == F(7, 4)

    def test_rejects_bad_prime(self):
        with pytest.raises(DomainError):
            PAdicQParam(2, 3)  # p must be odd
        with pytest.raises(DomainError):
            PAdicQParam(9, 10)  # not prime

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            PAdicQParam(3, 3)  # v_3(q) = 1, not a unit
        with pytest.raises(DomainError):
            PAdicQParam(3, F(1, 3))  # v_3(q) = -1
        with pytest.raises(DomainError):
            PAdicQParam(3, 5)  # v_3(q - 1) = 0
        with pytest.raises(DomainError):
            PAdicQParam(3, F(-2, 1))  # q must be positive

    def test_frozen(self):
        ctx = PAdicQParam(3, 4)
        with pytest.raises(AttributeError):
            ctx.p = 5
