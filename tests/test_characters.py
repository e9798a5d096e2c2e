"""Tests for Dirichlet characters, exact root-of-unity sums, conductors."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
    DirichletCharacter,
    DomainError,
    RootOfUnity,
    characters_mod,
    conductor,
    generalized_qeuler,
    is_primitive,
    l_neg_int_decomposition,
    qeuler_higher,
    root_sum_is_zero,
)
from qeuler import euler_numbers, numeric, zeta
from qeuler.characters import _class_groups, _factorize, _primitive_root, _unit_group

import closed_form_oracle as oracle

F = Fraction


def phi(d):
    return sum(1 for n in range(1, d + 1) if math.gcd(n, d) == 1)


class TestRootOfUnity:
    def test_exponent_reduction(self):
        assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
        assert RootOfUnity(5, 4) == RootOfUnity(1, 4)
        assert RootOfUnity.from_exponent(F(5, 4)) == RootOfUnity(1, 4)
        assert RootOfUnity(-1, 4) == RootOfUnity(3, 4)

    def test_multiplication_and_powers(self):
        z = RootOfUnity(1, 6)
        assert z * z == RootOfUnity(1, 3)
        assert z**6 == RootOfUnity(0, 1)
        assert z**-1 == z.conjugate()

    def test_rational_values(self):
        assert RootOfUnity(0, 1).as_rational() == 1
        assert RootOfUnity(1, 2).as_rational() == -1
        assert RootOfUnity(1, 4).as_rational() is None

    def test_to_complex_exact_small_orders(self):
        assert RootOfUnity(0, 1).to_complex() == 1
        assert RootOfUnity(1, 2).to_complex() == -1
        assert RootOfUnity(1, 4).to_complex() == 1j
        assert RootOfUnity(3, 4).to_complex() == -1j

    def test_to_complex_general(self):
        z = RootOfUnity(1, 3).to_complex()
        assert z.real == pytest.approx(-0.5)
        assert z.imag == pytest.approx(math.sqrt(3) / 2)

    def test_is_one(self):
        assert RootOfUnity(0, 5).is_one()
        assert not RootOfUnity(1, 5).is_one()

    def test_integer_exponent_arithmetic_matches_fractions(self):
        rng = random.Random(17)
        for _ in range(300):
            a = RootOfUnity(rng.randrange(-50, 50), rng.randrange(1, 60))
            b = RootOfUnity(rng.randrange(-50, 50), rng.randrange(1, 60))
            e = rng.randrange(-7, 8)
            assert a * b == RootOfUnity.from_exponent(a.exponent + b.exponent)
            assert a**e == RootOfUnity.from_exponent(e * a.exponent)
            assert a.conjugate() == RootOfUnity.from_exponent(-a.exponent)

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            RootOfUnity(1, 0)
        with pytest.raises(DomainError):
            RootOfUnity(F(1, 2), 2)


class TestRootSumIsZero:
    def test_plus_minus_one(self):
        assert root_sum_is_zero([RootOfUnity(0, 1), RootOfUnity(1, 2)])

    def test_full_orbit_sums_to_zero(self):
        for n in (2, 3, 4, 5, 6, 9, 15):
            assert root_sum_is_zero([RootOfUnity(k, n) for k in range(n)])

    def test_partial_orbit_does_not(self):
        assert not root_sum_is_zero([RootOfUnity(1, 3), RootOfUnity(2, 3)])
        assert not root_sum_is_zero([RootOfUnity(0, 1)])

    def test_zeros_are_ignored(self):
        assert root_sum_is_zero([0, 0])
        assert root_sum_is_zero([])
        assert root_sum_is_zero([0, RootOfUnity(0, 1), RootOfUnity(1, 2)])

    def test_rejects_other_values(self):
        with pytest.raises(DomainError):
            root_sum_is_zero([0.5])


class TestEnumeration:
    def test_counts_are_phi(self):
        for d in (1, 3, 5, 9, 15, 45):
            assert len(characters_mod(d)) == phi(d)

    def test_principal_first_and_index_round_trip(self):
        for d in (1, 3, 5, 9, 15, 45):
            chars = characters_mod(d)
            assert chars[0].is_principal
            for i, chi in enumerate(chars):
                assert chi.index == i

    def test_value_vectors_distinct(self):
        for d in (3, 5, 9, 15):
            vectors = {tuple(chi(n) for n in range(d)) for chi in characters_mod(d)}
            assert len(vectors) == phi(d)

    def test_rejects_even_modulus(self):
        with pytest.raises(DomainError):
            characters_mod(2)
        with pytest.raises(DomainError):
            characters_mod(4)

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            DirichletCharacter(15, (0,))  # two factors, one exponent
        with pytest.raises(DomainError):
            DirichletCharacter(3, (2,))  # exponent out of range
        for exponents in [(1.5,), (1.0,)]:  # an exponent is an int, never truncated
            with pytest.raises(DomainError, match="exponent"):
                DirichletCharacter(5, exponents)


class TestValues:
    def test_mod_three(self):
        chi = characters_mod(3)[1]
        assert chi(1).is_one()
        assert chi(2).as_rational() == -1
        assert chi(3) == 0
        assert chi(5) == chi(2)  # periodicity
        assert chi(4).is_one()

    def test_mod_five(self):
        chars = characters_mod(5)
        orders = [c.order for c in chars]
        assert orders == [1, 4, 2, 4]
        chi = chars[1]
        assert chi(2) == RootOfUnity(1, 4)
        assert chi(4) == RootOfUnity(1, 2)
        assert chi(3) == RootOfUnity(3, 4)
        quad = chars[2]
        assert quad(2).as_rational() == -1
        assert quad(4).as_rational() == 1

    def test_mod_five_conjugate_pair(self):
        chars = characters_mod(5)
        for n in range(10):
            a, b = chars[1](n), chars[3](n)
            if a == 0:
                assert b == 0
            else:
                assert b == a.conjugate()

    def test_mod_fifteen_vanishes_off_units(self):
        for chi in characters_mod(15):
            for n in (0, 3, 5, 6, 9, 10, 12):
                assert chi(n) == 0
            for n in (1, 2, 4, 7, 8, 11, 13, 14):
                assert isinstance(chi(n), RootOfUnity)

    def test_multiplicativity_random(self):
        rng = random.Random(991)
        for _ in range(500):
            d = rng.choice([3, 5, 9, 15, 45])
            chi = rng.choice(characters_mod(d))
            a, b = rng.randrange(2 * d), rng.randrange(2 * d)
            va, vb, vab = chi(a), chi(b), chi(a * b)
            if va == 0 or vb == 0:
                assert vab == 0
            else:
                assert vab == va * vb

    @pytest.mark.parametrize("d", [3, 5, 9, 15, 45, 105])
    def test_root_table_holds_the_exact_values(self, d):
        # the float series routes read chi(n) as _roots[_exponent(n)]; it
        # must be the RootOfUnity's own to_complex(), so +-1 and +-i stay exact
        for chi in characters_mod(d):
            for n in range(2 * d + 1):
                k, v = chi._exponent(n), chi(n)
                if v == 0:
                    assert k is None
                else:
                    assert 0 <= k < len(chi._roots)
                    assert chi._roots[k] == v.to_complex()

    @pytest.mark.parametrize("d", [3, 5, 9, 15, 45, 105])
    def test_unit_table_lists_the_exponents_in_order(self, d):
        # the series routes split a progression into classes by this table
        for chi in characters_mod(d):
            assert chi._units is None  # built on first use, not by the constructor
            want = [(a, k, chi(a).to_complex()) for a in range(1, d + 1)
                    if (k := chi._exponent(a)) is not None]
            assert list(chi._unit_table()) == want
            assert chi._unit_table() is chi._units

    @pytest.mark.parametrize("d", [3, 5, 9, 15, 45, 105])
    def test_values_match_fraction_definition(self, d):
        # chi(n) = exp(2 pi i sum_i t_i a_i / phi_i) with n = g_i**a_i mod p_i**e_i,
        # the discrete logs found by brute force and the exponent kept a Fraction
        factors, _ = _unit_group(d)
        logs = [
            {pow(_primitive_root(p, e), a, f.modulus): a for a in range(f.order)}
            for f, (p, e) in zip(factors, _factorize(d))
        ]
        for chi in characters_mod(d):
            for n in range(-d, 2 * d):
                got = chi(n)
                if math.gcd(n, d) != 1:
                    assert got == 0
                    continue
                e = sum(
                    (F(t * log[n % f.modulus], f.order)
                     for f, log, t in zip(factors, logs, chi.exponents)),
                    F(0),
                )
                want = RootOfUnity.from_exponent(e)
                assert (got.numerator, got.order) == (want.numerator, want.order)

    def test_rejects_non_integer_argument(self):
        chi = characters_mod(3)[1]
        with pytest.raises(DomainError):
            chi(F(1, 2))


class TestOrthogonality:
    def test_row_orthogonality_exact(self):
        # sum_n chi(n) conj(psi(n)) over a period: phi(d) iff chi == psi
        for d in (3, 5, 9, 15):
            chars = characters_mod(d)
            for c1 in chars:
                for c2 in chars:
                    vals = [
                        c1(n) * c2(n).conjugate()
                        for n in range(d)
                        if c1(n) != 0 and c2(n) != 0
                    ]
                    if c1 == c2:
                        assert all(v.is_one() for v in vals)
                        assert len(vals) == phi(d)
                    else:
                        assert root_sum_is_zero(vals)

    def test_column_orthogonality_exact(self):
        # sum_chi chi(n): phi(d) iff n == 1 (mod d), else exactly zero
        for d in (3, 5, 9, 15):
            chars = characters_mod(d)
            for n in range(d):
                col = [chi(n) for chi in chars]
                if n % d == 1:
                    assert all(isinstance(v, RootOfUnity) and v.is_one() for v in col)
                else:
                    assert root_sum_is_zero(col)


class TestConductor:
    def test_fixtures(self):
        assert conductor(characters_mod(1)[0]) == 1
        assert conductor(characters_mod(3)[0]) == 1
        assert conductor(characters_mod(3)[1]) == 3
        assert [conductor(c) for c in characters_mod(5)] == [1, 5, 5, 5]
        assert [conductor(c) for c in characters_mod(9)] == [1, 9, 9, 3, 9, 9]
        assert [conductor(c) for c in characters_mod(15)] == [1, 5, 5, 5, 3, 15, 15, 15]

    def test_primitivity_flags(self):
        assert is_primitive(characters_mod(1)[0])
        assert is_primitive(characters_mod(3)[1])
        assert not is_primitive(characters_mod(3)[0])
        flags9 = [is_primitive(c) for c in characters_mod(9)]
        assert flags9 == [False, True, True, False, True, True]

    def test_brute_force_agreement(self):
        # smallest divisor f of d with chi trivial on units == 1 (mod f)
        for d in (3, 5, 9, 15, 45):
            for chi in characters_mod(d):
                best = next(
                    f
                    for f in sorted(k for k in range(1, d + 1) if d % k == 0)
                    if all(
                        chi(n).is_one()
                        for n in range(1, d + 1)
                        if n % f == 1 % f and chi(n) != 0
                    )
                )
                assert conductor(chi) == best, (d, chi.index)

    def test_induced_character_agrees_with_primitive_one(self):
        chi15 = characters_mod(15)[4]  # conductor 3
        chi3 = characters_mod(3)[1]
        assert conductor(chi15) == 3
        for n in range(15):
            if math.gcd(n, 15) == 1:
                assert chi15(n) == chi3(n)


class TestGeneralizedQEuler:
    def test_modulus_one_reduces_to_plain_numbers(self):
        one = characters_mod(1)[0]
        for r in (F(1, 2), F(2, 5)):
            for m in range(11):
                assert generalized_qeuler(m, one, r) == qeuler_higher(m, 1, r)

    def test_degree_zero_quadratic_mod_three(self):
        chi = characters_mod(3)[1]
        assert generalized_qeuler(0, chi, F(1, 2)) == F(-3, 2)
        # closed reduction: ((1+r)/2) * sum_units chi(i)(-1)**i = -(1+r)
        for r in (F(1, 3), F(2, 5)):
            assert generalized_qeuler(0, chi, r) == -(1 + r)

    def test_real_characters_give_fractions(self):
        chi = characters_mod(5)[2]
        v = generalized_qeuler(3, chi, F(1, 2))
        assert isinstance(v, F)

    def test_complex_characters_conjugate_in_pairs(self):
        chars = characters_mod(5)
        for m in (1, 2, 3):
            z1 = generalized_qeuler(m, chars[1], F(1, 2))
            z3 = generalized_qeuler(m, chars[3], F(1, 2))
            assert isinstance(z1, complex)
            assert z3 == pytest.approx(z1.conjugate(), abs=1e-15)

    def test_modulus_one_pinned(self):
        # i = a mod d: the one unit a = 1 is the residue 0, so E_0 keeps its sign
        one = characters_mod(1)[0]
        got = [generalized_qeuler(m, one, F(1, 3)) for m in range(4)]
        assert got == [F(2, 3), F(-1, 2), F(3, 10), F(-9, 140)]

    # float.hex of the real and imaginary parts, which both routes give,
    # for complex characters: (d, index, m, r, real, imag)
    @pytest.mark.parametrize("d,index,m,r,real,imag", [
        (5, 1, 1, F(1, 2), "0x1.5d1745d1745d1p+0", "-0x1.e8ba2e8ba2e8cp+0"),
        (5, 1, 1, F(2, 3), "0x1.2e8ba2e8ba2e8p+0", "-0x1.ba2e8ba2e8ba3p+0"),
        (5, 1, 2, F(1, 2), "-0x1.f3f75f3f75f3ep-1", "0x1.0d6560d6560d6p+1"),
        (5, 1, 2, F(2, 3), "0x1.8fc042b88a3c8p-1", "-0x1.b7ca21bbad770p-2"),
        (5, 1, 6, F(1, 2), "0x1.3da8519bf3966p+4", "-0x1.d649af0e43269p+4"),
        (5, 1, 6, F(2, 3), "0x1.2235651b59ab4p+8", "-0x1.e5f5d9a15fb66p+8"),
        (15, 5, 1, F(1, 2), "0x1.af90a0debe428p+0", "0x1.85ccf4661733ap-1"),
        (15, 5, 1, F(2, 3), "0x1.0f20dc65d689cp+2", "0x1.24f90b46014d7p+1"),
        (15, 5, 2, F(1, 2), "-0x1.4e10a6f844426p+2", "-0x1.55c3f526d757ep+1"),
        (15, 5, 2, F(2, 3), "-0x1.22b26b58dddccp+4", "-0x1.57be7fb49311cp+3"),
        (15, 5, 6, F(1, 2), "-0x1.f3fc4c8c0e901p+6", "-0x1.4418c4ee1e7adp+6"),
        (15, 5, 6, F(2, 3), "-0x1.efcbd4b5e7c5dp+10", "-0x1.375fbd2a56125p+10"),
        (105, 31, 1, F(1, 2), "0x1.67c2893336b47p+3", "-0x1.173d65579785bp+4"),
        (105, 31, 1, F(2, 3), "0x1.30c9e043b4563p+4", "-0x1.be7f2495c1a87p+4"),
        (105, 31, 2, F(1, 2), "-0x1.6222dc1b20e1fp+4", "0x1.10248bb5739d1p+5"),
        (105, 31, 2, F(2, 3), "-0x1.d0d69492ec0a7p+5", "0x1.3dc804a6d37d9p+6"),
        (105, 31, 6, F(1, 2), "-0x1.751acd28f1bc1p+8", "0x1.fbed2b4c9bdfap+8"),
        (105, 31, 6, F(2, 3), "-0x1.3c665e9f9c4f2p+12", "0x1.68709aaf26569p+12"),
    ])
    def test_complex_values_pinned(self, d, index, m, r, real, imag):
        chi = characters_mod(d)[index]
        assert chi.order > 2
        for v in (generalized_qeuler(m, chi, r), l_neg_int_decomposition(m, chi, r)):
            assert (v.real.hex(), v.imag.hex()) == (real, imag)

    def test_rejects_bad_arguments(self):
        chi = characters_mod(3)[1]
        with pytest.raises(DomainError):
            generalized_qeuler(-1, chi, F(1, 2))
        with pytest.raises(DomainError):
            generalized_qeuler(1, "chi", F(1, 2))
        with pytest.raises(DomainError):
            generalized_qeuler(1, chi, F(3, 2))


RATIONALS = st.integers(2, 100).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: F(num, den))
)
REAL_CHARACTERS = [c for d in (1, 3, 5, 15) for c in characters_mod(d) if c.order <= 2]


class TestSharedCoefficientsAcrossClasses:
    """All residue classes of one call come from one coefficient vector; each
    value must equal the per-class Fraction formula."""

    @given(m=st.integers(0, 20), chi=st.sampled_from(REAL_CHARACTERS), r=RATIONALS)
    @settings(deadline=None)
    def test_real_characters_equal_per_term_oracle(self, m, chi, r):
        assert generalized_qeuler(m, chi, r) == oracle.generalized_qeuler_real(m, chi, r)

    def test_real_primitive_character_mod_105(self):
        chi = next(c for c in characters_mod(105) if c.order == 2 and is_primitive(c))
        for m, r in ((6, F(2, 3)), (10, F(1, 2))):
            assert generalized_qeuler(m, chi, r) == oracle.generalized_qeuler_real(m, chi, r)


def _twisted_cells():
    """(chi, m) for the real characters mod 15, 45 and 105: every m <= 12
    mod 15, a spread of m mod 45, and mod 105 small m for all eight with
    m = 12 for a primitive one (the oracle takes about a second there)."""
    cells = []
    for d, ms in ((15, range(13)), (45, (0, 1, 2, 5, 8, 12)), (105, (1, 4))):
        cells += [(chi, m) for chi in characters_mod(d) if chi.order <= 2 for m in ms]
    primitive = next(c for c in characters_mod(105) if c.order == 2 and is_primitive(c))
    return cells + [(primitive, 12)]


class TestOneSumPerTwistedValue:
    """A real chi's classes make one sum over j, each term weighted by the
    signed class powers; a complex chi keeps one sum per class."""

    @pytest.mark.parametrize("chi, m", _twisted_cells(),
                             ids=lambda v: f"chi{v.modulus}:{v.index}" if hasattr(v, "modulus")
                             else f"m{v}")
    def test_real_character_equals_per_class_oracle(self, chi, m):
        r = F(99, 100)
        want = oracle.generalized_qeuler_real(m, chi, r)
        assert generalized_qeuler(m, chi, r) == want
        if m:
            assert l_neg_int_decomposition(m, chi, r) == want

    @pytest.mark.parametrize("d", [1, 3, 5, 15, 105])
    def test_groups_read_the_class_table_alone(self, d):
        # a table of real chi(a) is one group signed by chi(a); a complex one
        # keeps one group per class, with its exponent k and weight chi(a)
        for chi in characters_mod(d):
            table = chi._unit_table()
            if chi.order <= 2:
                want = [(0, None, [(a, int(chi(a).as_rational())) for a, _, _ in table])]
            else:
                want = [(k, w, [(a, 1)]) for a, k, w in table]
            assert _class_groups(table) == want
        # the one class of weight 1 of a series without chi
        assert _class_groups(((4, None, None),)) == [(0, None, [(4, 1)])]

    @pytest.mark.parametrize("d", [15, 45, 105])
    def test_sums_per_value(self, monkeypatch, d):
        # one exact sum of m+1 terms for a real chi, one per class for a complex chi
        sizes = []
        exact_sum = numeric._exact_sum

        def spy(values, prefactor=(1, 1), exponents=None):
            values = list(values)
            sizes.append(len(values))
            return exact_sum(values, prefactor, exponents)

        for module in (euler_numbers, zeta):
            monkeypatch.setattr(module, "_exact_sum", spy)
        chars = characters_mod(d)
        real = next(c for c in chars if c.order == 2)
        complex_ = next(c for c in chars if c.order > 2)
        for fn in (generalized_qeuler, l_neg_int_decomposition):
            sizes.clear()
            fn(5, real, F(2, 3))
            assert sizes == [6]
            sizes.clear()
            fn(5, complex_, F(2, 3))
            assert sizes == [6] * len(complex_._unit_table())
