"""Tests for the zeta continuations, L-series, and partial zeta functions."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from qeuler import (
    DomainError,
    NearSingularError,
    NonConvergenceError,
    PrecisionPolicy,
    characters_mod,
    euler_zeta_neg_int_exact,
    euler_zeta_q,
    euler_zeta_q_direct,
    generalized_qeuler,
    hurwitz_neg_int_exact,
    hurwitz_zeta_q,
    hurwitz_zeta_q_direct,
    is_primitive,
    l_neg_int_decomposition,
    l_neg_int_exact,
    l_series,
    l_series_direct,
    partial_zeta,
    partial_zeta_direct,
    partial_zeta_neg_int_exact,
    qeuler_higher,
    qeuler_poly_exact,
)

F = Fraction

# High-precision reference values computed once with an independent
# arbitrary-precision evaluation of the defining alternating series.
ZETA_REFS = {
    (2, 0.5): -0.3396340966016850485,
    (3, 0.3): -0.03467793025486268,
}
HURWITZ_REFS = {
    (2, 1.0, 0.5): 1.35853638640674019,
    (2, 1 / 3, 0.3): 5.744987771464149,
    (1.5, 0.4, 0.9): 6.430241252026827,
}


class TestPrecisionPolicy:
    def test_validation(self):
        with pytest.raises(DomainError):
            PrecisionPolicy(eps=0)
        with pytest.raises(DomainError):
            PrecisionPolicy(max_terms=0)
        with pytest.raises(DomainError):
            PrecisionPolicy(consecutive_small=0)

    def test_defaults(self):
        p = PrecisionPolicy()
        assert p.eps == 1e-12 and p.max_terms == 10_000 and p.consecutive_small == 3


class TestHurwitzContinuation:
    def test_reference_values(self):
        for (s, x, q), want in HURWITZ_REFS.items():
            got = hurwitz_zeta_q(s, x, q)
            assert got.method == "continuation"
            tol = max(got.abs_error_estimate, 1e-13) * 4
            assert abs(got.value - want) <= tol

    def test_error_estimate_is_honest_against_direct(self):
        for s in (2, 3):
            for q in (0.3, 0.5, 0.9):
                for x in (1.0, 1 / 3, 0.4):
                    a = hurwitz_zeta_q(s, x, q)
                    b = hurwitz_zeta_q_direct(s, x, q)
                    assert abs(a.value - b.value) <= (
                        a.abs_error_estimate + b.abs_error_estimate + 1e-11
                    )

    def test_terminates_exactly_at_negative_integers(self):
        got = hurwitz_zeta_q(-3, 1.0, 0.5)
        assert got.terms_used == 4
        assert got.abs_error_estimate == 0.0

    def test_matches_exact_truncation_at_negative_integers(self):
        for q, r, d in ((0.5, F(1, 2), 1), (0.125, F(1, 2), 3)):
            for m in range(1, 7):
                for a in range(1, d + 1):
                    exact = hurwitz_neg_int_exact(m, r, d, a)
                    got = hurwitz_zeta_q(-m, a / d, q)
                    assert abs(got.value - float(exact)) <= 5e-12 * max(1, abs(exact))

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, -1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, 1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta_q(2, 1.0, 0.0)

    def test_near_singular_denominator(self):
        # 1 + q**s = 0 at s = i*pi/ln q: the j = 0 denominator collapses
        q = 0.5
        s = complex(0, math.pi / math.log(q))
        with pytest.raises(NearSingularError) as info:
            hurwitz_zeta_q(s, 1.0, q)
        assert info.value.term_index == 0

    def test_near_singular_interior_term(self):
        q = 0.5
        s = complex(-1, math.pi / math.log(q))
        with pytest.raises(NearSingularError) as info:
            hurwitz_zeta_q(s, 1.0, q)
        assert info.value.term_index == 1

    def test_non_convergence_carries_partial(self):
        policy = PrecisionPolicy(max_terms=5)
        with pytest.raises(NonConvergenceError) as info:
            hurwitz_zeta_q(2, 1.0, 0.9, policy)
        partial = info.value.partial
        assert partial is not None
        assert partial.terms_used == 5
        assert cmath.isfinite(partial.value)

    def test_non_finite_term_stops_the_series(self):
        # (1-q)**s underflows to 0 while C(s+j-1, j) overflows: term 220 is NaN
        with pytest.raises(NonConvergenceError, match="term 220 is non-finite") as info:
            hurwitz_zeta_q(2000, 1, 0.5)
        partial = info.value.partial
        assert partial.terms_used == 220
        assert partial.value == 0


class TestShiftedContinuation:
    """The q -> 1 and small-x cells, where the plain continuation needs
    about ln(1/eps) / (x (1-q)) terms and used to exhaust max_terms.

    References: mpmath at 30 digits with the float arguments taken
    exactly, summing the unshifted binomial continuation until its terms
    fall below 1e-40 (33,507 to 1,059,717 terms); mpmath's ``nsum`` of the
    defining series agrees with each to within 2e-27.
    """

    CELLS = [
        (hurwitz_zeta_q, (3, 1 / 3, 0.99), 52.48935966096596838845149),
        (euler_zeta_q, (0.5, 0.999), -1.208699999462737308624),
        (hurwitz_zeta_q, (2 + 1j, 1 / 3, 0.999),
         complex(7.296806831946204501062623, 16.1570860603370479548719)),
        (hurwitz_zeta_q, (2, 1, 0.9999), 1.644877684014622716532454),
        (hurwitz_zeta_q, (0.5, 1, 0.9999), 1.209748036850174165874498),
    ]

    @pytest.mark.parametrize("fn,args,ref", CELLS, ids=[str(c[1]) for c in CELLS])
    def test_reference_cells_in_few_terms(self, fn, args, ref):
        got = fn(*args)
        assert got.method == "continuation"
        # the plain series needs over 10,000 terms at every one of these cells
        assert got.terms_used <= 1500
        assert abs(got.value - ref) <= got.abs_error_estimate + 1e-12 * max(1, abs(ref))

    @pytest.mark.parametrize("s", [0.5, 2 + 1j])
    def test_partition_sums_to_zeta_near_one(self, s):
        # each class runs at base q**F with x = a/F, so the shifts differ
        q, F = 0.999, 5
        parts = [partial_zeta(s, a, F, q) for a in range(1, F + 1)]
        whole = euler_zeta_q(s, q)
        err = sum(p.abs_error_estimate for p in parts) + whole.abs_error_estimate
        assert abs(sum(p.value for p in parts) - whole.value) <= err + 1e-11

    def test_head_counts_toward_max_terms(self):
        policy = PrecisionPolicy(max_terms=100)
        with pytest.raises(NonConvergenceError) as info:
            hurwitz_zeta_q(2, 1, 0.9999, policy)
        assert info.value.partial.terms_used == 100


class TestHurwitzDirect:
    def test_reference_values(self):
        for (s, x, q), want in HURWITZ_REFS.items():
            got = hurwitz_zeta_q_direct(s, x, q)
            assert got.method == "direct"
            assert abs(got.value - want) <= 1e-11

    def test_rejects_left_of_one(self):
        with pytest.raises(DomainError):
            hurwitz_zeta_q_direct(0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q_direct(-2, 1.0, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta_q_direct(complex(0.99, 5), 1.0, 0.5)


class TestHurwitzExact:
    def test_equals_polynomial_values(self):
        for r in (F(1, 2), F(1, 3)):
            for d in (1, 3, 5):
                for m in range(1, 7):
                    for a in range(d + 1):
                        assert hurwitz_neg_int_exact(m, r, d, a) == qeuler_poly_exact(
                            m, r, d, a
                        )
        # a size at which the exact sums are large
        for a in range(6):
            assert hurwitz_neg_int_exact(60, F(2, 3), 5, a) == qeuler_poly_exact(60, F(2, 3), 5, a)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(0, F(1, 2), 1, 1)
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(1, F(1, 2), 1, -1)
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(1, F(3, 2), 1, 1)
        with pytest.raises(DomainError):
            hurwitz_neg_int_exact(1, F(1, 2), 0, 1)


class TestEulerZeta:
    def test_reference_values(self):
        for (s, q), want in ZETA_REFS.items():
            cont = euler_zeta_q(s, q)
            direct = euler_zeta_q_direct(s, q)
            assert abs(cont.value - want) <= 1e-12
            assert abs(direct.value - want) <= 1e-12

    def test_interpolates_qeuler_numbers_exactly(self):
        for q in (F(1, 3), F(1, 2), F(2, 3)):
            for m in range(1, 21):
                assert euler_zeta_neg_int_exact(m, q) == qeuler_higher(m, 1, q)
        # a size at which the exact sums are large, next to q = 1 and away from it
        for q in (F(9999, 10000), F(2, 3)):
            assert euler_zeta_neg_int_exact(60, q) == qeuler_higher(60, 1, q)

    def test_pinned_negative_values(self):
        assert euler_zeta_neg_int_exact(1, F(1, 2)) == F(-1, 2)
        assert euler_zeta_neg_int_exact(2, F(1, 2)) == F(1, 5)

    def test_sign_boundary_at_zero(self):
        # the continuation at s = 0 lands on -(1+q)/2, the negative of E_0
        for q in (F(1, 3), F(1, 2)):
            assert euler_zeta_neg_int_exact(0, q) == -(1 + q) / 2
            assert euler_zeta_neg_int_exact(0, q) == -qeuler_higher(0, 1, q)
        got = euler_zeta_q(0, 0.5)
        assert got.value == pytest.approx(-0.75, abs=1e-13)

    def test_continuation_matches_exact_at_negative_integers(self):
        for q, qx in ((0.3, F(3, 10)), (0.5, F(1, 2))):
            for m in range(7):
                exact = euler_zeta_neg_int_exact(m, qx)
                got = euler_zeta_q(-m, q)
                assert abs(got.value - float(exact)) <= 5e-12 * max(1, abs(exact))

    def test_direct_rejects_left_of_one(self):
        with pytest.raises(DomainError):
            euler_zeta_q_direct(0, 0.5)

    def test_exact_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            euler_zeta_neg_int_exact(-1, F(1, 2))
        with pytest.raises(DomainError):
            euler_zeta_neg_int_exact(1, F(3, 2))


class TestMethodAgreement:
    SS = (2, 3, complex(2, 1), complex(1.5, -2))
    QS = (0.3, 0.5, 0.9)

    def test_zeta_routes_agree(self):
        for s in self.SS:
            for q in self.QS:
                a = euler_zeta_q(s, q)
                b = euler_zeta_q_direct(s, q)
                assert abs(a.value - b.value) <= 1e-8 * max(1, abs(b.value))

    def test_hurwitz_routes_agree(self):
        for s in self.SS:
            for q in self.QS:
                for x in (1.0, 1 / 3, 0.4):
                    a = hurwitz_zeta_q(s, x, q)
                    b = hurwitz_zeta_q_direct(s, x, q)
                    assert abs(a.value - b.value) <= 1e-8 * max(1, abs(b.value))

    def test_lseries_routes_agree(self):
        chars = [characters_mod(3)[1], characters_mod(5)[1], characters_mod(5)[2]]
        for s in self.SS:
            for q in self.QS:
                for chi in chars:
                    a = l_series(s, chi, q)
                    b = l_series_direct(s, chi, q)
                    assert abs(a.value - b.value) <= 1e-8 * max(1, abs(b.value))


class TestLSeries:
    def test_modulus_one_is_plain_zeta(self):
        one = characters_mod(1)[0]
        for s in (2, complex(2, 1)):
            for q in (0.3, 0.5):
                a = l_series(s, one, q)
                b = euler_zeta_q(s, q)
                assert a.value == pytest.approx(b.value, abs=1e-15)

    def test_quadratic_interpolation_exact(self):
        for chi in (characters_mod(3)[1], characters_mod(5)[2]):
            for r in (F(1, 2), F(1, 3)):
                for k in range(1, 7):
                    lhs = l_neg_int_decomposition(k, chi, r)
                    rhs = l_neg_int_exact(k, chi, r)
                    assert isinstance(lhs, F) and isinstance(rhs, F)
                    assert lhs == rhs
        # the real primitive character mod 105: 48 classes with chi(a) != 0 per route
        chi = next(c for c in characters_mod(105) if c.order == 2 and is_primitive(c))
        lhs = l_neg_int_decomposition(10, chi, F(1, 2))
        assert isinstance(lhs, F) and lhs == generalized_qeuler(10, chi, F(1, 2))

    def test_complex_interpolation_close(self):
        for chi in (characters_mod(5)[1], characters_mod(5)[3]):
            for k in range(1, 7):
                lhs = l_neg_int_decomposition(k, chi, F(1, 2))
                rhs = l_neg_int_exact(k, chi, F(1, 2))
                assert abs(lhs - rhs) <= 1e-12 * max(1, abs(rhs))

    def test_continuation_hits_exact_values(self):
        chi = characters_mod(3)[1]
        for k in range(1, 6):
            exact = l_neg_int_exact(k, chi, F(1, 2))
            got = l_series(-k, chi, 0.5)
            assert abs(got.value - float(exact)) <= 1e-10 * max(1, abs(exact))

    def test_continuation_hits_generalized_for_complex_chi(self):
        for chi in (characters_mod(5)[1], characters_mod(5)[3]):
            for k in range(1, 7):
                want = generalized_qeuler(k, chi, F(1, 2))
                got = l_series(-k, chi, 0.5)
                assert abs(got.value - want) <= 1e-9 * max(1, abs(want))

    def test_rejects_bad_arguments(self):
        chi = characters_mod(3)[1]
        with pytest.raises(DomainError):
            l_series(2, "chi", 0.5)
        with pytest.raises(DomainError):
            l_series_direct(0.5, chi, 0.5)
        with pytest.raises(DomainError):
            l_neg_int_exact(0, chi, F(1, 2))
        with pytest.raises(DomainError):
            l_neg_int_decomposition(1, chi, F(3, 2))


class TestPartialZeta:
    def test_partition_sums_to_zeta_numerically(self):
        q = 0.5
        for FF in (3, 5):
            total = sum(partial_zeta(2, a, FF, q).value for a in range(1, FF + 1))
            whole = euler_zeta_q(2, q).value
            assert abs(total - whole) <= 1e-10

    def test_partition_exact_at_negative_integers(self):
        for r in (F(1, 2), F(1, 3)):
            for FF in (3, 5):
                for n in range(1, 6):
                    total = sum(
                        (partial_zeta_neg_int_exact(n, a, FF, r) for a in range(1, FF + 1)),
                        F(0),
                    )
                    assert total == euler_zeta_neg_int_exact(n, r)

    def test_continuation_matches_exact_decomposition(self):
        for n in range(1, 6):
            for a in (1, 2, 3):
                exact = partial_zeta_neg_int_exact(n, a, 3, F(1, 2))
                got = partial_zeta(-n, a, 3, 0.5)
                assert abs(got.value - float(exact)) <= 1e-12 * max(1, abs(exact))

    def test_direct_route_agrees(self):
        for a in (1, 2, 3):
            b = partial_zeta(2, a, 3, 0.5)
            d = partial_zeta_direct(2, a, 3, 0.5)
            assert abs(b.value - d.value) <= 1e-10

    def test_final_class_holds_multiples(self):
        # a = F is allowed and picks up n = F, 2F, ...
        got = partial_zeta_direct(2, 3, 3, 0.5)
        assert cmath.isfinite(got.value)

    def test_rejects_bad_classes(self):
        for bad_a, bad_F in ((0, 3), (4, 3), (-1, 5), (1, 1), (2, 4)):
            with pytest.raises(DomainError):
                partial_zeta(2, bad_a, bad_F, 0.5)
            with pytest.raises(DomainError):
                partial_zeta_neg_int_exact(1, bad_a, bad_F, F(1, 2))

    def test_exact_rejects_nonpositive_degree(self):
        with pytest.raises(DomainError):
            partial_zeta_neg_int_exact(0, 1, 3, F(1, 2))
