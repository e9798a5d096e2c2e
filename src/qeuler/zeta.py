"""q-analogue Euler zeta functions, their Hurwitz forms, and L-series.

Every function here is one alternating series over an arithmetic
progression n = n0, n0+step, ...,

    (1+q) sum_n chi(n) (-1)**n q**(s*n) [n+x]**(-s),

with chi = 1 except for the L-series: zeta_E is (x, n0, step) = (0, 1, 1),
zeta_H(s, x) is (x, 0, 1), the partial zeta H(s, a, F) is (0, a, F), and
L(s, chi) is (0, 1, 1) weighted by chi mod d.  A character splits its
progression into residue classes n = a + d k, one per chi(a) != 0
(``_classes``); the moduli and F are odd, so every class alternates in k.
``_classes`` gives the character's one class table (see
:mod:`qeuler.characters`), (a, k, chi(a)) per class, and every route reads
it: the exact truncation groups the classes by ``_class_groups``,
the float routes weigh by the complex chi(a), and the plain stream walks
the classes in the order of n, so it sums only the terms with chi(n) != 0.
Two evaluation routes take that one description and are kept
deliberately separate:

* ``*_direct`` -- the defining series itself, valid for Re(s) >= 1 only
  (the domain is enforced, never silently widened).  These exist as
  oracles for the continuation route.  The series is summed one of two
  ways, whichever needs fewer terms by a count that reads only the
  inputs (:mod:`qeuler._direct` has the derivations):

  - the plain stream, term by term under the driver below, about
    ln(1/eps) / (Re(s) step |ln q|) terms: short for small q, but
    O(1/(Re(s) (1-q))) as q -> 1;
  - CRVZ acceleration (Cohen, Rodriguez Villegas and Zagier, 2000), one
    residue class at a time.  Each class is an alternating sequence of
    moments of points on the segment [0, q**(step s)], so n terms leave
    a proven error of about (rho / 5.83)**n, rho the Bernstein-ellipse
    parameter of 1 - 2 q**(step s) (1 for real s): about 20 terms per
    class wherever |Im s| is moderate, at any q.

  Both report truncation plus rounding in ``abs_error_estimate``.  The
  plain stream stays where its count is the smaller (small q, the many
  classes of a large modulus at moderate q, large |Im s|) or where the
  accelerated sum would pass ``max_terms``.

* the binomial continuation -- for 0 < q < 1 and every complex s, one
  class n = n0 + step k at a time.  Expanding

      [n+x]**(-s) = (1-q)**s sum_{j>=0} C(s+j-1, j) q**((n+x) j)

  and summing the geometric k-sum of each j turns the class into

      (1+q) (1-q)**s (-1)**n0 q**(s n0)
          sum_{j>=0} C(s+j-1, j) q**((n0+x) j) / (1 + q**(step (s+j))),

  a series in j whose terms decay like q**((n0+x) j), whatever s is.
  There is no change of base and no class weight: chi(a) multiplies the
  class's terms.  Q = q**step, (1+q) (1-q)**s and Q**s are the same for
  every class, and so are C(s+j-1, j), 1 + Q**(s+j) and the factors of
  the tail bound of each j (``_binomial_factors``), so each call
  computes them once and every class reads them.  At a negative integer
  s = -m the binomial coefficients vanish for j > m, so the series
  terminates and reproduces the exact q-Euler values (the
  ``*_neg_int_exact`` functions compute that truncation in rational
  arithmetic, ``_truncated``).

  The ratio q**(n0+x) makes it slow as q -> 1 or n0 + x -> 0.  There the
  class first sums its K leading terms, the first K terms of the plain
  direct stream, and the continuation then runs at n0 + K step, with
  ratio q**(n0+x+K step).  In the units Q = q**step and
  x' = (n0+x)/step this is the Hurwitz case, and minimising
  K + ln(1/eps) / ((x'+K) |ln Q|) gives x' + K = sqrt(ln(1/eps) / |ln Q|),
  about O(1/sqrt(1-q)) terms in all (fewer for |s| < 1, see
  ``_shift_length``).  K = 0 (the plain series) where
  Re(s) <= 0, since the head terms and q**(s (n0+K step)) then grow with
  K and cancel, and where q**(n0+x) <= 1/2, since the plain series is
  already short.  For K > 0 the head is a partial sum of the defining
  series, so a comparison with the ``*_direct`` route checks the
  continuation only through its shifted tail.

Every term stream yields ``(term, tail)``, ``tail`` a proven bound on
|sum of all later terms|, and ``_sum_series`` stops each class at the first
tail at most eps * max(1, |partial|), on the scale of the value the class
returns (its prefactor and chi(a) are in every term); the stopping tails
add up to the ``abs_error_estimate``.  At Re(s) = sigma > 0 the classes
of a character are summed in the order of a, and before each class a
after the first, the classes left, all in the defining series over
n >= a, are bounded as a whole by (1+q) q**(sigma a) [a]**(-sigma) /
(1 - q**sigma).  Once that bound is at most eps/2 * max(1, |partial|)
they are skipped and it joins the ``abs_error_estimate``.  At
Re(s) <= 0 every class is summed.  The bounds hold in exact
arithmetic; rounding is not in them.

* The defining series, one stream whose first K terms are the head of
  a shifted continuation: [n+x] grows with n, so the moduli without chi
  fall at least by r = q**(Re(s) step) per step, and the tail is the
  last modulus times r / (1-r).  Each term is formed in log space.
* The continuation: |C(s+i, i+1)| <= |C(s+i-1, i)| (|s|+i) / (i+1), so
  after term j the numerators fall at least by rho_j = q**(n0+x)
  max(1, (|s|+j) / (j+1)), and every later |1 + Q**(s+i)|, Q = q**step,
  is at least 1 where Re Q**s >= 0 (the Q**(s+i) share its phase), else
  1 - Q**(Re(s)+j+1).  The tail is infinite while rho_j >= 1.

Exhausting ``max_terms`` raises :class:`~qeuler.errors.NonConvergenceError`
carrying the partial value (of the whole series: the continuation sums
every class it does not skip, each within ``max_terms``, before it
raises); a continuation denominator within 1e-12 of zero raises
:class:`~qeuler.errors.NearSingularError` naming the term index.  The
accelerated direct sum fixes its length in advance, with its truncation
bound under eps / 2.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

from . import _direct
from .characters import DirichletCharacter, _chi_combination, _class_groups, generalized_qeuler
from .errors import (DomainError, NearSingularError, NonConvergenceError, check_base, check_double,
                     check_finite, check_instance, check_int, check_rational)
from .numeric import (_MERGE_BITS, _exact_sum, _factor_order, _factor_runs, _power_sums, _powers,
                      gen_binom)

__all__ = [
    "PrecisionPolicy",
    "SeriesValue",
    "hurwitz_zeta_q",
    "hurwitz_zeta_q_direct",
    "hurwitz_neg_int_exact",
    "euler_zeta_q",
    "euler_zeta_q_direct",
    "euler_zeta_neg_int_exact",
    "l_series",
    "l_series_direct",
    "l_neg_int_exact",
    "l_neg_int_decomposition",
    "partial_zeta",
    "partial_zeta_direct",
    "partial_zeta_neg_int_exact",
]

NEAR_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class PrecisionPolicy:
    """Stopping rule for the series evaluators."""

    eps: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        check_finite(self.eps, "eps", positive=True)
        check_int(self.max_terms, "max_terms", 1)


_DEFAULT_POLICY = PrecisionPolicy()  # frozen, so one instance serves every call


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation: value, error bound, cost, and which route ran.

    For a continuation, ``abs_error_estimate`` is the sum over the
    residue classes summed of a proven bound on each class's truncation
    error, each at most eps * max(1, |class value|) on the scale of the
    value returned, plus, where classes were skipped at Re(s) > 0, a
    proven bound on their sum, at most eps/2 * max(1, |value|); the
    rounding of the terms and their sum is not in it.
    The direct routes add a rounding bound to their truncation bound.
    """

    value: complex
    abs_error_estimate: float
    terms_used: int
    method: str


def _sum_series(terms, policy, method):
    """(value, tail, terms used) of ``terms``, which yields ``(term, tail)``
    with ``tail`` a proven bound on |sum of all later terms|, summed until
    tail <= eps * max(1, |partial|).

    The stopping tail is the truncation bound (rounding is not in it).
    ``terms`` is exhausted only when every remaining term is exactly zero;
    the partial sum is then the exact series value, with tail 0.  A
    non-finite term stops the sum at once with
    :class:`NonConvergenceError`; its partial holds the finite terms before it.
    """
    eps, max_terms, isfinite = policy.eps, policy.max_terms, cmath.isfinite
    total = complex(0)
    tail = math.inf
    n = 0
    for n, (term, bound) in enumerate(terms, 1):
        if not isfinite(term):
            raise NonConvergenceError(
                f"term {n} is non-finite: {term} (method {method}); "
                f"partial value {total} from the {n - 1} terms before it",
                partial=SeriesValue(total, tail, n, method),
            )
        total += term
        tail = bound
        # tail <= eps * max(1, |total|), without the call to max
        if tail <= eps or tail <= eps * abs(total):
            return total, tail, n
        if n >= max_terms:
            raise NonConvergenceError(
                f"no convergence in {n} terms (method {method}); "
                f"partial value {total}",
                partial=SeriesValue(total, tail, n, method),
            )
    return total, 0.0, n


def _rpow(base, s):
    """base**s for positive real base and complex s, via the real log."""
    return cmath.exp(s * math.log(base))


def _classes(n0, step, chi):
    """(classes, step) of the progression n = n0 + step k weighted by chi.

    The classes are (first index, exponent, weight) triples: (n0, None,
    None) alone without chi, else the character's unit table at step
    d = chi.modulus, (a, k, chi(a)) for each unit a in order, with
    chi(a) = e**(2 pi i k / L) as the exponent k and as a complex.
    """
    if chi is None:
        return ((n0, None, None),), step
    return chi._unit_table(), chi.modulus


def _direct_plain(s, q, policy, x=0.0, n0=1, step=1, chi=None):
    """The defining series term by term under the driver, plus its rounding bound."""
    classes, period = _classes(n0, step, chi)
    value, tail, n = _sum_series(_direct.plain_terms(s, q, x, classes, period), policy, "direct")
    return SeriesValue(value, tail + _direct.plain_rounding(s, q, x, n0, step, n), n, "direct")


def _crvz_plan(s, q, eps, x, n0, step, chi):
    """(classes, class step, n, truncation bound) of the accelerated sum."""
    classes, step = _classes(n0, step, chi)
    return (classes, step, *_direct.crvz_length(s, q, eps, x, step, classes[0][0], len(classes)))


def _crvz(s, q, x, classes, step, n, truncation):
    """The accelerated sum of a ``_crvz_plan``."""
    value, rounding = _direct.crvz_sum(s, q, x, step, classes, n)
    return SeriesValue(value, truncation + rounding, len(classes) * n, "direct")


def _direct_series(s, q, policy, x=0.0, n0=1, step=1, chi=None):
    """The defining series by whichever sum needs fewer terms (see ``_direct``).

    Checks q and Re(s) >= 1.  The accelerated sum must also fit in
    max_terms; otherwise the plain stream runs, and raises
    NonConvergenceError with its partial when it runs out.
    """
    policy = policy or _DEFAULT_POLICY
    s = check_double(s, "s", complex)
    q = check_base(q, "q")
    if s.real < 1:
        raise DomainError(f"direct series needs Re(s) >= 1, got Re(s) = {s.real}")
    plan = _crvz_plan(s, q, policy.eps, x, n0, step, chi)
    classes, _, n, _ = plan
    cost = len(classes) * n if n is not None else math.inf
    if cost <= policy.max_terms and cost < _direct.plain_length(s, q, policy.eps, x, n0, step):
        return _crvz(s, q, x, *plan)
    return _direct_plain(s, q, policy, x, n0, step, chi)


def _shift_length(s, x, q, eps):
    """Head length K of a shifted continuation; 0 keeps the plain series.

    For the class n = n0 + step k pass x = (n0+x)/step and Q = q**step
    as ``x`` and ``q``: the continuation at n0 + K step has ratio
    q**(n0+x+K step) = Q**(x+K), so the class costs what zeta_H(s, x) at
    base Q does.  Its tail then needs about ln(c/eps) / ((x+K) |ln q|)
    terms.  For |s| <= 1 every coefficient past the first,
    |C(s+j-1, j)| = |s| prod_{0<i<j} |s+i| / (i+1), is at most |s|, and
    the geometric tail of those terms multiplies them by at most
    1 / (1 - q**x), since the ratio only falls as K grows; so
    c = min(1, |s| / (1 - q**x)), with the cap 1 the constant of the
    model for larger |s|; 1 - q**x is formed as -expm1(x ln q), which stays
    positive for a tiny x where q**x rounds to 1 (x ln q itself is a normal
    double: ``_hurwitz_x`` checks it).  K + that count is least at
    x + K = sqrt(ln(c/eps) / |ln q|), and K = 0 where c <= eps: there
    the first terms of the plain series already meet eps.
    The shift only pays where the plain ratio q**x is near 1, and it
    makes Re(s) <= 0 worse, so those regions keep K = 0.
    """
    if s.real <= 0 or q**x <= 0.5:
        return 0
    log_q = math.log(q)
    c = min(1.0, abs(s) / -math.expm1(x * log_q))  # -expm1(x ln q) = 1 - q**x
    target = math.sqrt(max(0.0, math.log(c / eps)) / -log_q)
    return max(0, round(target - x))


def _binomial_factors(s, q, step, Q, Qs):
    """The factors of the continuation's term j that no class changes,
    (C(s+j-1, j), 1 + Q**(s+j), growth, low), for j = 0, 1, ... while
    C(s+j-1, j) != 0, with Q = q**step and Qs = Q**s.

    growth = max(1, (|s|+j) / (j+1)) bounds |C(s+j, j+1)| / |C(s+j-1, j)|,
    and low <= |1 + Q**(s+i)| for every i > j.  A denominator within
    ``NEAR_SINGULAR_TOL`` of zero raises NearSingularError when the
    first class reaches its term.
    """
    coeff = complex(1)  # C(s+j-1, j)
    qsj = Qs  # Q**(s+j)
    same_phase = qsj.real >= 0  # then every |1 + Q**(s+i)| >= 1
    size = abs(s)
    j = 0
    while coeff:
        den = 1 + qsj
        if abs(den) < NEAR_SINGULAR_TOL:
            raise NearSingularError(
                f"denominator 1 + q**(step*(s+j)) within {NEAR_SINGULAR_TOL} of zero "
                f"at term j={j} (s={s}, q={q}, step={step})",
                term_index=j,
            )
        yield (coeff, den, max(1.0, (size + j) / (j + 1)),
               1.0 if same_phase else 1 - Q * abs(qsj))
        coeff *= (s + j) / (j + 1)
        qsj *= Q
        j += 1


def _continuation_terms(s, q, x, n0, step, eps, Q, base, w, factors):
    """(term, tail) of the class n = n0 + step k times w = chi(n0) (None
    without chi): its first K terms, then the binomial continuation at
    n0 + K step (see the module docstring).

    Q = q**step, base = (1+q) (1-q)**s and the ``_binomial_factors``
    stream ``factors`` are the same for every class of a progression, so
    ``_continuation`` computes them once.
    """
    K = _shift_length(s, (n0 + x) / step, Q, eps)
    if K:
        # Head: the first K terms of the defining series, whose tail bounds
        # hold for head plus continuation (K > 0 only where Re(s) > 0).
        yield from itertools.islice(_direct.plain_terms(s, q, x, ((n0, None, w),), step), K)
        n0 += K * step
    prefactor = base
    if n0:
        prefactor *= (-1) ** n0 * _rpow(q, s * n0)
    qx = q ** (n0 + x)
    qxj = 1.0  # q**((n0+x)*j)
    for coeff, den, growth, low in factors:
        num = prefactor * coeff * qxj
        # |C(s+i, i+1)| <= |C(s+i-1, i)| (|s|+i) / (i+1): the moduli of
        # the numerators fall at least by rho from term j on
        rho = qx * growth
        tail = abs(num) * rho / ((1 - rho) * low) if rho < 1 and low > 0 else math.inf
        term = num / den
        yield (term if w is None else w * term), tail
        qxj *= qx


def _continuation(s, q, policy, x=0.0, n0=1, step=1, chi=None):
    """The progression's series by its shifted binomial continuation, one
    residue class at a time, in the order of a; each class stops on its
    own proven tail.

    At Re(s) > 0, before every class after the first, the classes left
    are bounded as a whole by ``_direct.log_tail_bound`` at their first
    index: they lie in the defining series over n >= a.  Once that bound
    is at most eps/2 * max(1, |partial|), they are skipped and the bound
    joins the error.  Every other class is summed, each within max_terms.
    A single class raises its own NonConvergenceError.  Of several, if
    any fails, one NonConvergenceError names the first failure and
    carries the partial of the whole series: the value, bound and
    terms_used of every class summed, the failed ones at their partials,
    added up.  A q**(step s) beyond the double range raises OverflowError.
    """
    policy = policy or _DEFAULT_POLICY
    s = check_double(s, "s", complex)
    q = check_base(q, "q")
    classes, step = _classes(n0, step, chi)
    Q = q**step
    try:
        base = (1 + q) * _rpow(1 - q, s)
    except OverflowError:
        raise OverflowError(f"(1-q)**s exceeds the double range at q = {q}, s = {s}") from None
    try:
        Qs = _rpow(Q, s)
    except OverflowError:
        raise OverflowError(f"q**(step*s) exceeds the double range at q = {q}, "
                            f"step = {step}, s = {s}") from None
    shared = itertools.tee(_binomial_factors(s, q, step, Q, Qs), len(classes))
    cut = _direct.log_tail_bound(s.real, q, x) if s.real > 0 and len(classes) > 1 else None
    value, err, used, failures = complex(0), 0.0, 0, []
    for i, ((a, _, w), factors) in enumerate(zip(classes, shared)):
        if i and cut:
            log_rest = cut(a)
            if log_rest <= math.log(0.5 * policy.eps * max(1.0, abs(value))):
                err += math.exp(log_rest)
                break
        terms = _continuation_terms(s, q, x, a, step, policy.eps, Q, base, w, factors)
        try:
            part, tail, n = _sum_series(terms, policy, "continuation")
        except NonConvergenceError as exc:
            if len(classes) == 1:
                raise
            p = exc.partial
            part, tail, n = p.value, p.abs_error_estimate, p.terms_used
            failures.append(f"class n = {a} (mod {step}): {exc}")
        value += part
        err += tail
        used += n
    total = SeriesValue(value, err, used, "continuation")
    if failures:
        raise NonConvergenceError(
            f"{len(failures)} of {len(classes)} classes did not converge, the first "
            f"{failures[0]}; partial value of the series {total.value}", partial=total)
    return total


def _truncated(m, q, n0, step, chi, qx=(1, 1)):
    """The continuation of the progression at s = -m, m >= 0, exactly.

    It terminates after m+1 terms, so the class a of ``_classes`` is

        (1+q) (1-q)**(-m) (-1)**a sum_{j<=m} C(j-m-1, j) qx**j y**(-e) / (1 + Q**(-e)),

    with e = m - j, y = q**a and Q = q**step.  ``q`` = qa/qb is an integer
    pair, and so must ``qx`` = q**x be (x = a/d at base q = r**d gives
    r**a).  Term j is

        C qx**j Q**e y**(-e) / (Q**e + 1)
            = C qx**j (qa**(step-a) qb**a)**e / (qa**(step e) + qb**(step e)):

    the qa**(a e) of y**(-e) cancels against the qa**(step e) of Q**e, as
    0 <= a <= step for every class, so the denominators are the same for
    every class and only the numerators take the class's power.  The
    classes of one ``_class_groups`` group, each with its sign (-1)**a
    chi(a), therefore make one sum of m+1 terms, whose term j has the
    weight U_e = sum over the classes of (-1)**a chi(a) (qa**(step-a)
    qb**a)**e (``_power_sums``): a real chi gives one sum, not one per
    class.  The terms are built in ``_factor_order`` of e, so that
    ``_tree`` merges the denominators that share cyclotomic factors first.
    The qxb**j of qx**j is qxb**e / qxb**m: the numerators take qxb**e and
    the prefactor takes 1/qxb**m, so term j is over Qa**e + Qb**e alone.
    Each term is an integer pair, and ``_exact_sum`` adds a group into one
    pair, prefactor included, with no gcd: the public value's one Fraction
    is the only reduction.  A sum past ``_MERGE_BITS`` adds each 2-adic
    class of e (``_factor_runs``) apart and joins the classes with no gcd
    of two denominators, as no odd prime divides two denominators of
    different classes; it comes back as a reduced Fraction, never reduced
    again.
    """
    classes, step = _classes(n0, step, chi)
    qa, qb = q
    Qa, Qb = _powers(qa**step, m), _powers(qb**step, m)
    xpow, xbpow = _powers(qx[0], m), _powers(qx[1], m)
    # C(j-m-1, j) qx**j Q**e y**(-e) / (Q**e + 1) = num_j * (class power)**e / den_j / qxb**m,
    # e = m - j; C(j-m-1, j) = (-1)**j C(m, j) is an integer
    es = _factor_order(m)
    nums, dens = [], []
    for e in es:
        j = m - e
        nums.append(gen_binom(-m, j).numerator * xpow[j] * xbpow[e])
        dens.append(Qa[e] + Qb[e])
    # (1+q)/(1-q)**m / qxb**m = (qa+qb) qb**(m-1) / ((qb-qa)**m qxb**m)
    prefactor = ((qa + qb) * qb ** max(m - 1, 0),
                 (qb - qa) ** m * qb ** max(1 - m, 0) * xbpow[m])
    runs = _factor_runs(m) if (m + 1) * (Qa[m] + Qb[m]).bit_length() > _MERGE_BITS else None
    sums = []
    for k, group in _class_groups(classes, chi):
        # needs 0 <= a <= step, which every class table of ``_classes`` keeps (pinned by
        # test_every_class_lies_within_its_step); a > step would make this power a float
        u = _power_sums([(-c if a % 2 else c, qa ** (step - a) * qb**a) for a, c in group], m)
        sums.append((k, _exact_sum(((cn * u[e], cd) for cn, cd, e in zip(nums, dens, es)),
                                   prefactor, runs)))
    return _chi_combination(chi, sums)


def _hurwitz_x(x, q):
    """x as a float, > 0, and not so small at base q that x ln q is below
    the normal range: [x]_q = -expm1(x ln q) / (1-q) then keeps its full
    relative precision (a subnormal x ln q loses it, and 0 would be a
    bracket of 0)."""
    x = check_double(x, "x", positive=True)
    if -x * math.log(check_base(q, "q")) < sys.float_info.min:
        raise DomainError(f"x = {x!r} is too small at q = {q}: x ln q lies below the normal "
                          "double range, and [x]_q would lose its precision")
    return x


def hurwitz_zeta_q(s, x, q, policy=None):
    """Hurwitz-type q-Euler zeta zeta_H(s, x) by the (shifted) binomial continuation.

    Defined for all complex s when 0 < q < 1 and x > 0.  At s = -m the
    series terminates after m+1 terms and agrees with the exact rational
    value of ``hurwitz_neg_int_exact``.  Where the plain series is slow
    the first K terms of the defining series come first and the
    continuation runs at x+K (see the module docstring); ``terms_used``
    counts both parts.
    """
    return _continuation(s, q, policy, x=_hurwitz_x(x, q), n0=0)


def hurwitz_zeta_q_direct(s, x, q, policy=None):
    """Defining series (1+q) sum_{n>=0} (-1)**n q**(s*n) / [n+x]**s, Re(s) >= 1.

    Oracle route; raises DomainError left of Re(s) = 1 instead of
    pretending the series still means anything there.  Summed by the
    plain stream or by CRVZ acceleration of its one class, whichever
    needs fewer terms by an a-priori count (see the module docstring);
    ``abs_error_estimate`` is truncation plus rounding.
    """
    return _direct_series(s, q, policy, x=_hurwitz_x(x, q), n0=0)


def hurwitz_neg_int_exact(m, r, d, a):
    """Exact rational zeta_H(-m, a/d) at base q = r**d, for m >= 1.

    Equals ``qeuler_poly_exact(m, r, d, a)``: the terminating
    continuation reproduces the q-Euler polynomial values.
    """
    check_int(m, "m", 1)
    check_int(a, "a", 0)
    check_int(d, "d", 1)
    r = check_rational(r, "r", unit=True)
    rn, rd = r.numerator, r.denominator
    return _truncated(m, (rn**d, rd**d), 0, 1, None, qx=(rn**a, rd**a))


def euler_zeta_q(s, q, policy=None):
    """q-Euler zeta zeta_E(s) = (1+q) sum_{n>=1} (-1)**n q**(s*n) / [n]**s, by continuation."""
    return _continuation(s, q, policy)


def euler_zeta_q_direct(s, q, policy=None):
    """Defining series (1+q) sum_{n>=1} (-1)**n q**(s*n) / [n]**s, Re(s) >= 1.

    Summed like :func:`hurwitz_zeta_q_direct` (plain stream or one
    accelerated class); the bound is truncation plus rounding.
    """
    return _direct_series(s, q, policy)


def euler_zeta_neg_int_exact(m, r):
    """Exact rational zeta_E(-m) for m >= 0.

    For m >= 1 this equals the m-th q-Euler number (``qeuler_higher(m, 1, r)``);
    at m = 0 the continuation gives -(1+r)/2, the negative of the 0-th
    q-Euler number -- the sign boundary of the interpolation.
    """
    check_int(m, "m", 0)
    r = check_rational(r, "r", unit=True)
    return _truncated(m, (r.numerator, r.denominator), 1, 1, None)


def l_series(s, chi, q, policy=None):
    """L(s, chi) = (1+q) sum_{n>=1} chi(n) (-1)**n q**(s*n) / [n]**s for all
    complex s, by the continuation of each class n = a (mod d), chi(a) != 0."""
    return _continuation(s, q, policy, chi=check_instance(chi, "chi", DirichletCharacter))


def l_series_direct(s, chi, q, policy=None):
    """Defining series (1+q) sum_{n>=1} chi(n) (-1)**n q**(s*n) / [n]**s, Re(s) >= 1.

    The accelerated sum takes one class n = a (mod d) per chi(a) != 0,
    so it costs (classes) x n terms against the plain stream's count over
    every n; the cheaper one runs.  The bound is truncation plus rounding.
    """
    return _direct_series(s, q, policy, chi=check_instance(chi, "chi", DirichletCharacter))


def l_neg_int_exact(k, chi, r):
    """L(-k, chi) exactly: the k-th chi-twisted q-Euler number, k >= 1."""
    return generalized_qeuler(check_int(k, "k", 1), chi, r)


def l_neg_int_decomposition(k, chi, r):
    """L(-k, chi) through the decomposition route, exactly.

    Sums the classes of :func:`l_series` at s = -k with the rational
    truncation in place of the continuation; agrees with
    :func:`l_neg_int_exact` (exact Fraction for real chi, complex with
    exact rational prestages otherwise).
    """
    check_int(k, "k", 1)
    check_instance(chi, "chi", DirichletCharacter)
    r = check_rational(r, "r", unit=True)
    return _truncated(k, (r.numerator, r.denominator), 1, 1, chi)


def partial_zeta(s, a, F, q, policy=None):
    """Partial zeta H(s, a, F): the zeta_E series restricted to n == a (mod F).

    Computed for all complex s by the continuation of the one class
    n = a + F k, for odd F >= 3 and 1 <= a <= F (a = F selects the
    multiples of F).
    """
    check_int(F, "F", 3, odd=True)
    return _continuation(s, q, policy, n0=check_int(a, "a", 1, F), step=F)


def partial_zeta_direct(s, a, F, q, policy=None):
    """Defining restricted series over n = a, a+F, a+2F, ...; Re(s) >= 1.

    The class alternates (F is odd), so it is summed like
    :func:`hurwitz_zeta_q_direct` with step F; the bound is truncation
    plus rounding.
    """
    check_int(F, "F", 3, odd=True)
    return _direct_series(s, q, policy, n0=check_int(a, "a", 1, F), step=F)


def partial_zeta_neg_int_exact(n, a, F, r):
    """Exact rational H(-n, a, F) for n >= 1.

    Summing over a = 1..F partitions the full series, so these values
    add up to ``euler_zeta_neg_int_exact(n, r)`` exactly.
    """
    check_int(n, "n", 1)
    check_int(F, "F", 3, odd=True)
    check_int(a, "a", 1, F)
    r = check_rational(r, "r", unit=True)
    return _truncated(n, (r.numerator, r.denominator), a, F, None)
