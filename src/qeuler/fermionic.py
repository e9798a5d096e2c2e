"""Finite-stage alternating sums over p-adic digit ranges.

The stage-N sum of an integrand f is

    S_N(f) = (1 / [p**N]_{-q}) * sum_{j=0}^{p**N - 1} f(j) (-q)**j ,

an exact rational whenever f maps integers to rationals.  As N grows the
values converge p-adically (the valuation of S_N minus the limit keeps
increasing) whenever v_p(q - 1) >= 1, which :class:`~qeuler.numeric.PAdicQParam`
enforces.  Integrands are finite sums of terms c * [t]_q**a * q**(b*t)
(moment and twisted-moment integrands).

Every stage is a closed form.  With P = p**N odd, expanding
[t]_q**a = (1-q)**(-a) sum_i C(a,i) (-1)**i q**(i*t) leaves geometric sums
g(r) = sum_{x<P} (-r)**x = (1 + r**P) / (1 + r), so a term contributes
c (1-q)**(-a) sum_i C(a,i) (-1)**i g(q**(i+b+1)).  ``higher_order_stage``,
the k-dimensional version, takes a product of k such sums per i: O(a*k)
operations on numbers of O(p**N) bits.  The cost follows that size, so the
guard rejects a stage whose estimated value has more than ``MAX_RESULT_BITS``
bits, before any arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .errors import ResourceLimitError, _shown, check_instance, check_int, check_rational
from .numeric import PAdicQParam, p_valuation, q_bracket_signed

__all__ = [
    "IntegrandTerm",
    "Integrand",
    "StageReport",
    "stage_sum",
    "convergence_report",
    "higher_order_stage",
    "MAX_RESULT_BITS",
]

# Largest estimated stage value accepted (see _stage_range).  The cost grows
# faster than the size: at p = 3, q = 4, moment(3) is accepted up to N = 9
# (0.05 s), and the slowest accepted order-k moments (p <= 7, m <= 5,
# k <= 3) take about 1 s on a 2-core Xeon.
MAX_RESULT_BITS = 1 << 21


@dataclass(frozen=True)
class IntegrandTerm:
    """One term c * [t]_q**bracket_power * q**(exp_coeff * t)."""

    coeff: Fraction
    bracket_power: int
    exp_coeff: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", check_rational(self.coeff, "coeff"))
        check_int(self.bracket_power, "bracket_power", 0)
        check_instance(self.exp_coeff, "exp_coeff", int)


@dataclass(frozen=True)
class Integrand:
    """A finite sum of :class:`IntegrandTerm`; closed under + and rational *.
    Each term expands into geometric sums over j (see the module docstring)."""

    terms: tuple[IntegrandTerm, ...]

    @classmethod
    def term(cls, coeff, bracket_power=0, exp_coeff=0):
        """Single term coeff * [t]**bracket_power * q**(exp_coeff * t)."""
        return cls((IntegrandTerm(coeff, bracket_power, exp_coeff),))

    @classmethod
    def constant(cls, c=1):
        return cls.term(c)

    @classmethod
    def moment(cls, m):
        """The integrand [t]_q**m * q**(-(m+1) t) whose stage sums converge
        to the m-th q-Euler number E_m(q)."""
        return cls.term(1, check_int(m, "m", 0), -(m + 1))

    def __add__(self, other):
        if not isinstance(other, Integrand):
            return NotImplemented
        return Integrand(self.terms + other.terms)

    def __rmul__(self, scalar):
        c = check_rational(scalar, "scalar")
        return Integrand(
            tuple(
                IntegrandTerm(c * t.coeff, t.bracket_power, t.exp_coeff)
                for t in self.terms
            )
        )

    __mul__ = __rmul__


@dataclass(frozen=True)
class StageReport:
    """Stage values S_1..S_N with p-adic valuations against a reference.

    ``stages`` is a list of (N, S_N); ``valuations`` holds
    v_p(S_N - reference) per stage (math.inf when the difference is 0)
    and is None when no reference was supplied.
    """

    ctx: PAdicQParam
    stages: list
    reference: Fraction | None
    valuations: list | None


def _stage_range(ctx, N, width, k=1):
    """P = p**N, once the stage value's estimated size is within MAX_RESULT_BITS.

    With H the height max(|num|, den) of q, a geometric factor
    g(q**e) = (1 + q**(e*P)) / (1 + q**e) has a numerator and a denominator
    of at most about |e|*P*log2(H) bits each, and so has each of the k
    normalising factors [P]_{-q}.  The exponents of a factor with bracket
    power a and shift c are e = l + c, l <= a, so |e| <= a + |c|, and the
    value has at most about 2*log2(H)*P*(width + k) bits, where width sums
    a + |c| + 1 over the factors.  That factor of P is at least 4, and
    P >= 2**N, so an N of at least the limit's bit length is refused before
    P is built; the message states the estimate as that factor times p**N.
    """
    check_instance(ctx, "ctx", PAdicQParam)
    check_int(N, "N", 1)
    scale = 2 * max(ctx.q.numerator, ctx.q.denominator).bit_length() * (width + k)
    if N < MAX_RESULT_BITS.bit_length() and scale * (P := ctx.p**N) <= MAX_RESULT_BITS:
        return P
    power = f"{_shown(ctx.p, str)}**{_shown(N, str)}"
    raise ResourceLimitError(
        f"stage p**N = {power} would give a value of about {scale} * {power} bits, "
        f"over the limit {MAX_RESULT_BITS}"
    )


def _bracket_sum(a, shifts, q, P):
    """sum over x in [0, P)**k of [x_1+...+x_k]_q**a * prod_i (-q**shifts[i])**x_i.

    Expanding [s]_q**a = (1-q)**(-a) sum_l C(a,l) (-1)**l q**(l*s) turns
    each l into a product of k geometric sums g(r) = sum_{x<P} (-r)**x =
    (1 + r**P) / (1 + r) (P is odd).  At q = 1 the sum is the k-fold binomial
    convolution of A_i = sum_{x<P} (-1)**x x**i, where
    2 A_i = 0**i + P**i - sum_{j<i} C(i,j) A_j.
    """
    if q == 1:
        A = []
        for i in range(a + 1):
            A.append((0**i + P**i - sum(comb(i, j) * A[j] for j in range(i))) // 2)
        B = A
        for _ in shifts[1:]:
            B = [sum(comb(n, i) * B[i] * A[n - i] for i in range(n + 1)) for n in range(a + 1)]
        return B[a]
    total = sum(
        comb(a, l) * (-1) ** l * prod((1 + q ** ((l + c) * P)) / (1 + q ** (l + c)) for c in shifts)
        for l in range(a + 1)
    )
    return total / (1 - q) ** a


def stage_sum(f, ctx, N):
    """Exact stage-N sum S_N(f) = sum_{j<p**N} f(j)(-q)**j / [p**N]_{-q}.

    The constant integrand gives exactly 1 at every stage (p**N is odd).
    """
    check_instance(f, "f", Integrand)
    width = sum(t.bracket_power + abs(t.exp_coeff + 1) + 1 for t in f.terms)
    P = _stage_range(ctx, N, width)
    q = ctx.q
    total = sum(t.coeff * _bracket_sum(t.bracket_power, (t.exp_coeff + 1,), q, P) for t in f.terms)
    return total / q_bracket_signed(P, q)


def convergence_report(f, ctx, N_max, reference=None):
    """Stage values S_1..S_{N_max} and their p-adic distance to ``reference``."""
    check_int(N_max, "N_max", 1)
    if reference is not None:
        reference = check_rational(reference, "reference")
    # Largest stage first: the size guard then raises before any arithmetic.
    stages = [(N, stage_sum(f, ctx, N)) for N in range(N_max, 0, -1)][::-1]
    valuations = None
    if reference is not None:
        valuations = [p_valuation(S - reference, ctx.p) for _, S in stages]
    return StageReport(ctx=ctx, stages=stages, reference=reference, valuations=valuations)


def higher_order_stage(m, k, ctx, N):
    """Stage-N sum for the order-k moment integrand.

    Computes, with P = p**N and all axes running over 0..P-1,

      sum_{x_1..x_k} [x_1+...+x_k]_q**m * q**(-sum_i (m+i) x_i) * (-q)**(sum x_i)
      ------------------------------------------------------------------------
                                 [P]_{-q}**k

    whose p-adic limit in N is the order-k q-Euler number E_m^(k)(q).
    Axis i (1-based) carries the weight (-q**(1-m-i))**x, so the numerator
    is (1-q)**(-m) sum_l C(m,l) (-1)**l prod_i g(q**(l+1-m-i)).
    """
    check_int(m, "m", 0)
    check_int(k, "k", 1)
    shifts = tuple(1 - m - i for i in range(1, k + 1))
    P = _stage_range(ctx, N, sum(m + abs(c) + 1 for c in shifts), k)
    return _bracket_sum(m, shifts, ctx.q, P) / q_bracket_signed(P, ctx.q) ** k
