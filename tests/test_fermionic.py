"""Tests for the finite-stage alternating sums and their p-adic behavior."""

from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction

import pytest

from qeuler import fermionic
from qeuler import (
    DomainError,
    Integrand,
    IntegrandTerm,
    PAdicQParam,
    ResourceLimitError,
    convergence_report,
    higher_order_stage,
    p_valuation,
    q_bracket,
    q_bracket_signed,
    qeuler_higher,
    qeuler_mixed,
    stage_sum,
)

F = Fraction

CTX34 = PAdicQParam(3, 4)


def evaluate(f, j, q):
    """f(j) at base q, as an exact Fraction: the definition of the integrand,
    which the stage sums replace by their closed form."""
    q = F(q)
    br = F(q_bracket(j, q))
    return sum((t.coeff * br**t.bracket_power * q ** (t.exp_coeff * j) for t in f.terms), F(0))


class TestIntegrandAlgebra:
    def test_builders(self):
        assert Integrand.moment(1) == Integrand.term(1, 1, -2)
        assert Integrand.constant().terms[0] == IntegrandTerm(F(1), 0, 0)

    def test_evaluate(self):
        f = Integrand.term(F(2, 3), 2, -1)
        q = F(4)
        for j in range(5):
            bracket = (1 - q**j) / (1 - q)
            assert evaluate(f, j, q) == F(2, 3) * bracket**2 * q**-j

    def test_sum_and_scale(self):
        f = Integrand.moment(1)
        g = Integrand.moment(2)
        h = 2 * f + F(-1, 3) * g
        for j in range(4):
            want = 2 * evaluate(f, j, 4) - F(1, 3) * evaluate(g, j, 4)
            assert evaluate(h, j, 4) == want

    def test_rejects_bad_terms(self):
        with pytest.raises(DomainError):
            IntegrandTerm(F(1), -1, 0)
        with pytest.raises(DomainError):
            IntegrandTerm(F(1), 1, F(1, 2))
        with pytest.raises(DomainError):
            Integrand.moment(-1)


class TestStageSum:
    def test_constant_normalizes_to_one(self):
        for ctx in (CTX34, PAdicQParam(5, 6), PAdicQParam(3, F(7, 4))):
            for N in (1, 2, 3):
                assert stage_sum(Integrand.constant(), ctx, N) == 1

    def test_worked_three_term_example(self):
        # f(j) = q**(-2j) [j]_q at p=3, q=4, N=1:
        #   (0 - 4/16 + 16*5/256) / [3]_{-4} = (1/16) / 13 = 1/208
        assert stage_sum(Integrand.moment(1), CTX34, 1) == F(1, 208)

    def test_matches_reference_evaluation(self):
        # q < 1, q = 1 and a positive exp_coeff reach every branch of the closed form
        f = Integrand.moment(2) + Integrand.term(F(-1, 5), 1, 1) + Integrand.term(3, 3, 2)
        for ctx in (CTX34, PAdicQParam(3, F(1, 4)), PAdicQParam(5, F(6, 11)), PAdicQParam(3, 1)):
            for N in (1, 2):
                P = ctx.p**N
                brute = sum(evaluate(f, j, ctx.q) * (-ctx.q) ** j for j in range(P))
                brute /= q_bracket_signed(P, ctx.q)
                assert stage_sum(f, ctx, N) == brute

    def test_linearity(self):
        f = Integrand.moment(1)
        g = Integrand.moment(2)
        combo = F(2, 3) * f + (-5) * g
        for N in (1, 2, 3):
            want = F(2, 3) * stage_sum(f, CTX34, N) - 5 * stage_sum(g, CTX34, N)
            assert stage_sum(combo, CTX34, N) == want

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            stage_sum(Integrand.constant(), CTX34, 20)

    def test_oversized_stage_raises_before_arithmetic(self):
        # moment(3) at p = 3, q = 4 costs about 8.5x more per stage (0.43 s at
        # N = 10); N = 14 would run for about half an hour.
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            stage_sum(Integrand.moment(3), CTX34, 14)
        with pytest.raises(ResourceLimitError):
            convergence_report(Integrand.moment(3), CTX34, 14)
        assert time.perf_counter() - start < 0.1

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            stage_sum("not an integrand", CTX34, 1)
        with pytest.raises(DomainError):
            stage_sum(Integrand.constant(), CTX34, 0)

    def test_convergence_report_checks_reference_before_any_stage(self, monkeypatch):
        def no_stage(*args):
            raise AssertionError("a stage was computed before the reference was checked")

        # the oversized stage N = 10 would raise ResourceLimitError if it came first
        with pytest.raises(DomainError, match="reference"):
            convergence_report(Integrand.moment(3), CTX34, 10, reference="x")
        monkeypatch.setattr(fermionic, "stage_sum", no_stage)
        with pytest.raises(DomainError, match="reference"):
            convergence_report(Integrand.moment(2), CTX34, 7, reference="x")

    @pytest.mark.parametrize("N_max", [0, -1, "3", 2.0])
    def test_convergence_report_rejects_bad_n_max(self, N_max):
        with pytest.raises(DomainError):
            convergence_report(Integrand.moment(1), CTX34, N_max)


class TestConvergence:
    def test_constant_is_exact_at_every_stage(self):
        report = convergence_report(Integrand.constant(), CTX34, 3, reference=1)
        assert report.valuations == [math.inf, math.inf, math.inf]

    def test_moment_one_valuations(self):
        report = convergence_report(Integrand.moment(1), CTX34, 6, reference=F(-1, 2))
        assert report.valuations == [1, 2, 3, 4, 5, 6]
        assert [N for N, _ in report.stages] == [1, 2, 3, 4, 5, 6]

    def test_moment_two_and_three_valuations(self):
        r2 = convergence_report(Integrand.moment(2), CTX34, 6, reference=F(-3, 34))
        assert r2.valuations == [1, 2, 3, 4, 5, 6]
        r3 = convergence_report(Integrand.moment(3), CTX34, 6, reference=F(-5, 442))
        assert r3.valuations == [2, 3, 4, 5, 6, 7]

    def test_reference_values_are_the_closed_forms(self):
        assert qeuler_higher(1, 1, F(4)) == F(-1, 2)
        assert qeuler_higher(2, 1, F(4)) == F(-3, 34)
        assert qeuler_higher(3, 1, F(4)) == F(-5, 442)

    def test_wrong_reference_negative_control(self):
        # against 0 instead of the true limit -1/2 the valuations stall
        report = convergence_report(Integrand.moment(1), CTX34, 6, reference=0)
        assert report.valuations == [0, 0, 0, 0, 0, 0]
        assert max(report.valuations) <= 1

    def test_twisted_moment_converges_to_mixed_number(self):
        # integrand [t] q**(-3t): limit is the two-index number E_{1,2}(4)
        assert qeuler_mixed(1, 2, F(4)) == F(-4, 17)
        report = convergence_report(
            Integrand.term(1, 1, -3), CTX34, 6, reference=F(-4, 17)
        )
        assert report.valuations == [1, 2, 3, 4, 5, 6]

    def test_no_reference_gives_no_valuations(self):
        report = convergence_report(Integrand.moment(1), CTX34, 3)
        assert report.valuations is None
        assert report.reference is None
        assert len(report.stages) == 3


class TestHigherOrderStage:
    def test_order_one_matches_moment_stage(self):
        for m in (0, 1, 2, 3):
            for N in (1, 2, 3):
                assert higher_order_stage(m, 1, CTX34, N) == stage_sum(
                    Integrand.moment(m), CTX34, N
                )

    def test_degree_zero_closed_stage_value(self):
        # m=0, k=1 collapses to (1+q)/(1+q**(p**N)), tending to [2]_q/2
        q = F(4)
        for N in (1, 2, 3):
            assert higher_order_stage(0, 1, CTX34, N) == (1 + q) / (1 + q ** (3**N))

    def test_degree_zero_limit_valuations(self):
        q = F(4)
        ref = (1 + q) / 2
        v = [p_valuation(higher_order_stage(0, 1, CTX34, N) - ref, 3) for N in (1, 2, 3)]
        assert v == sorted(v) and v[0] >= 1

    def test_order_two_valuations(self):
        for m, pinned in ((1, [1, 2, 3]), (2, [1, 2, 3])):
            ref = qeuler_higher(m, 2, F(4))
            vals = [
                p_valuation(higher_order_stage(m, 2, CTX34, N) - ref, 3)
                for N in (1, 2, 3)
            ]
            assert vals == pinned

    def test_resource_cap_bounds_result_size(self):
        # the estimates are 3.2 and 5.3 Mbit, over MAX_RESULT_BITS = 2**21
        with pytest.raises(ResourceLimitError):
            higher_order_stage(1, 2, CTX34, 10)
        with pytest.raises(ResourceLimitError):
            higher_order_stage(1, 3, CTX34, 10)
        # 3**15 and 3**18 grid points are values of a few kbit, so they evaluate;
        # the valuation against E_1^(3)(4) climbs on
        ref = qeuler_higher(1, 3, F(4))
        vals = [p_valuation(higher_order_stage(1, 3, CTX34, N) - ref, 3) for N in (4, 5, 6)]
        assert vals == [5, 6, 7]

    @staticmethod
    def _definition(m, k, ctx, N):
        """The k-fold stage sum term by term, straight from the definition."""
        P, q = ctx.p**N, ctx.q
        total = Fraction(0)
        for xs in itertools.product(range(P), repeat=k):
            weight = math.prod(q ** (-(m + i) * x) for i, x in enumerate(xs, 1))
            total += Fraction(q_bracket(sum(xs), q)) ** m * weight * (-q) ** sum(xs)
        return total / q_bracket_signed(P, q) ** k

    @pytest.mark.parametrize("p, q", [
        (3, F(4)), (3, F(4, 7)), (3, F(1, 4)), (3, F(1)),
        (5, F(6)), (5, F(6, 11)), (5, F(1, 6)), (5, F(1)),
    ])
    def test_matches_definition(self, p, q):
        ctx = PAdicQParam(p, q)
        for k in (1, 2, 3):
            for N in range(1, 4):
                if p ** (N * k) > 729:
                    continue
                for m in range(5):
                    assert higher_order_stage(m, k, ctx, N) == self._definition(m, k, ctx, N)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            higher_order_stage(-1, 1, CTX34, 1)
        with pytest.raises(DomainError):
            higher_order_stage(1, 0, CTX34, 1)
        with pytest.raises(DomainError):
            higher_order_stage(1, 1, CTX34, 0)


class TestSizeEstimate:
    """The guard's estimate is at least the bit length of every value it admits:
    with the limit one bit under a value's numerator + denominator bit length,
    the same call raises."""

    INTEGRANDS = (
        Integrand.constant(),
        Integrand.moment(0),
        Integrand.moment(3),
        Integrand.moment(5),
        Integrand.moment(2) + Integrand.term(F(-1, 5), 1, 1) + Integrand.term(3, 3, 2),
    )

    @pytest.mark.parametrize("p, q", [
        (3, F(4)), (3, F(4, 7)), (3, F(1, 4)), (3, F(1)),
        (5, F(6)), (5, F(6, 11)), (5, F(1, 6)), (5, F(1)),
    ])
    def test_estimate_is_at_least_the_bit_length(self, p, q, monkeypatch):
        ctx = PAdicQParam(p, q)
        calls = [functools.partial(stage_sum, f, ctx, N) for f in self.INTEGRANDS for N in (1, 2, 3)]
        calls += [
            functools.partial(higher_order_stage, m, k, ctx, N)
            for m in range(6) for k in (1, 2, 3) for N in (1, 2, 3)
        ]
        for call in calls:
            value = call()
            bits = value.numerator.bit_length() + value.denominator.bit_length()
            with monkeypatch.context() as patch:
                patch.setattr(fermionic, "MAX_RESULT_BITS", bits - 1)
                with pytest.raises(ResourceLimitError):
                    call()


class _NoPower(int):
    """An int whose powers fail, to show that a guard never builds one."""

    def __pow__(self, other, mod=None):
        raise AssertionError(f"{int(self)}**{other} was built")


class TestHugeStage:
    """An N far past the size limit is refused by ``ResourceLimitError``
    before p**N is built, with a message that states the estimate
    compactly; the stages accepted are those of the estimate
    2 log2(H) (width + k) p**N <= MAX_RESULT_BITS."""

    HUGE = 10**6
    CALLS = {
        "stage_sum": lambda ctx, N: stage_sum(Integrand.moment(1), ctx, N),
        "convergence_report": lambda ctx, N: convergence_report(Integrand.moment(1), ctx, N),
        "higher_order_stage": lambda ctx, N: higher_order_stage(1, 1, ctx, N),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("N", [HUGE, 2000, 22])
    def test_refused_without_building_the_power(self, name, N):
        ctx = PAdicQParam(_NoPower(3), F(4))
        with pytest.raises(ResourceLimitError, match=rf"about \d+ \* 3\*\*{N} bits") as info:
            self.CALLS[name](ctx, N)
        assert len(str(info.value)) < 120

    def test_cli_reports_the_limit(self, capsys):
        from qeuler.cli import main

        argv = ["eval", "integral-stage", "--m", "1", "--p", "3", "--q", "4", "--N", str(self.HUGE)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qeuler: error: stage p**N = 3**1000000 would give a value")
        assert len(err) < 120

    @pytest.mark.parametrize("limit", [100, 2**21 - 1, 2**21, 2**30])
    @pytest.mark.parametrize("p, q", [(3, F(4)), (3, F(1)), (5, F(6, 11)), (7, F(1, 8))])
    def test_accepts_exactly_the_estimates_within_the_limit(self, p, q, limit, monkeypatch):
        monkeypatch.setattr(fermionic, "MAX_RESULT_BITS", limit)
        ctx = PAdicQParam(p, q)
        height = max(q.numerator, q.denominator).bit_length()
        for width, k in ((1, 1), (7, 1), (4, 3)):
            for N in range(1, 40):
                if 2 * height * (width + k) * p**N <= limit:
                    assert fermionic._stage_range(ctx, N, width, k) == p**N
                else:
                    with pytest.raises(ResourceLimitError):
                        fermionic._stage_range(ctx, N, width, k)

    def test_boundary_of_moment_three(self):
        # the estimate 48 * 3**N crosses 2**21 between N = 9 and N = 10
        assert fermionic._stage_range(CTX34, 9, 7) == 3**9
        with pytest.raises(ResourceLimitError, match=r"48 \* 3\*\*10 bits"):
            stage_sum(Integrand.moment(3), CTX34, 10)
