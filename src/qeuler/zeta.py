"""q-analogue Euler zeta functions, their Hurwitz forms, and L-series.

Two evaluation routes are kept deliberately separate:

* ``*_direct`` -- the defining alternating Dirichlet series, valid for
  Re(s) >= 1 only (the domain is enforced, never silently widened).
  These exist as oracles for the continuation route.  All four are one
  series over an arithmetic progression n = n0, n0+step, ...,

      (1+q) sum_n chi(n) (-1)**n q**(s*n) / [n+x]**s,

  with chi = 1 except for the L-series.  It is summed one of two ways,
  whichever needs fewer terms by a count that reads only the inputs
  (:mod:`qeuler._direct` has the derivations):

  - the plain stream, term by term under the driver below, about
    ln(1/eps) / (Re(s) step |ln q|) terms: short for small q, but
    O(1/(Re(s) (1-q))) as q -> 1;
  - CRVZ acceleration (Cohen, Rodriguez Villegas and Zagier, 2000), one
    residue class a + step k at a time (one per chi(a) != 0 for the
    L-series, step = the modulus).  Each class is an alternating
    sequence of moments of points on the segment [0, q**(step s)], so n
    terms leave a proven error of about (rho / 5.83)**n, rho the
    Bernstein-ellipse parameter of 1 - 2 q**(step s) (1 for real s):
    about 20 terms per class wherever |Im s| is moderate, at any q.

  Both report truncation plus rounding in ``abs_error_estimate``.  The
  plain stream stays where its count is the smaller (small q, the many
  classes of a large modulus at moderate q, large |Im s|) or where the
  accelerated sum would pass ``max_terms``.

* the binomial continuation -- for 0 < q < 1 and x > 0,

      zeta_H(s, x) = (1+q) (1-q)**s sum_{j>=0} C(s+j-1, j) q**(x*j) / (1 + q**(s+j))

  converges for every complex s: expanding [x+n]**(-s) in powers of
  q**(x+n) and resumming the geometric n-sum term by term turns the
  series in n into a series in j whose terms decay like q**(x*j).  At a
  negative integer s = -m the binomial coefficients vanish for j > m, so
  the series terminates and reproduces the exact q-Euler polynomial
  values (the ``*_neg_int_exact`` functions compute that truncation in
  rational arithmetic).

  Its term ratio tends to q**x, so it needs about ln(1/eps) / (x (1-q))
  terms, which grows without bound as q -> 1 or x -> 0.  There the
  continuation runs after a shift,

      zeta_H(s, x) = (1+q) sum_{n<K} (-1)**n q**(s*n) [n+x]**(-s)
                     + (-1)**K q**(s*K) zeta_H(s, x+K),

  as one stream: the first K terms of the plain direct stream, then
  the scaled continuation at x+K, whose ratio is q**(x+K).  Minimising
  K + ln(1/eps) / ((x+K) |ln q|) gives x + K = sqrt(ln(1/eps) / |ln q|),
  about O(1/sqrt(1-q)) terms in all.  K = 0 (the plain series) where
  Re(s) <= 0, since the head terms and q**(s*K) then grow with n and K
  and cancel, and where q**x <= 1/2, since the plain series is already
  short.  For K > 0 the head is a partial sum of the defining series,
  so a comparison with the ``*_direct`` route checks the continuation
  only through its shifted tail.

Every term stream yields ``(term, tail)``, ``tail`` a proven bound on
|sum of all later terms|, and the driver stops at the first tail at
most eps * max(1, |partial|); that tail is the ``abs_error_estimate``.
The bounds hold in exact arithmetic; rounding is not in them.

* The defining series, one stream whose first K terms are the head of
  a shifted continuation: [n+x] grows with n, so the moduli without chi
  fall at least by r = q**(Re(s) step) per step, and the tail is the
  last modulus times r / (1-r).  Each term is formed in log space.
* The continuation: |C(s+i, i+1)| <= |C(s+i-1, i)| (|s|+i) / (i+1), so
  after term j the numerators fall at least by rho_j = q**(x+K)
  max(1, (|s|+j) / (j+1)), and every later |1 + q**(s+i)| is at least 1
  where Re q**s >= 0 (the q**(s+i) share its phase), else
  1 - q**(Re(s)+j+1).  The tail is infinite while rho_j >= 1.

Exhausting ``max_terms`` raises :class:`~qeuler.errors.NonConvergenceError`
carrying the partial value; a continuation denominator within 1e-12 of
zero raises :class:`~qeuler.errors.NearSingularError` naming the term
index.  The accelerated direct sum fixes its length in advance, with
its truncation bound under eps / 2.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _direct
from .characters import DirichletCharacter, _chi_combination, generalized_qeuler
from .errors import DomainError, NearSingularError, NonConvergenceError
from .numeric import _exact_sum, gen_binom, q_bracket

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
        if not self.eps > 0:
            raise DomainError(f"eps must be positive, got {self.eps!r}")
        if not isinstance(self.max_terms, int) or self.max_terms < 1:
            raise DomainError(f"max_terms must be a positive integer, got {self.max_terms!r}")


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation: value, error bound, cost, and which route ran.

    ``abs_error_estimate`` is a proven bound on the truncation error of a
    continuation; the rounding of the terms and their sum is not in it.
    The direct routes add a rounding bound to their truncation bound.
    """

    value: complex
    abs_error_estimate: float
    terms_used: int
    method: str


def _sum_series(terms, policy, method):
    """Sum ``terms``, which yields ``(term, tail)`` with ``tail`` a proven
    bound on |sum of all later terms|, until tail <= eps * max(1, |partial|).

    The stopping tail is the returned ``abs_error_estimate`` (truncation
    only).  ``terms`` is exhausted only when every remaining term is
    exactly zero; the partial sum is then the exact series value.  A
    non-finite term stops the sum at once with
    :class:`NonConvergenceError`; its partial holds the finite terms before it.
    """
    total = complex(0)
    tail = math.inf
    n = 0
    for term, bound in terms:
        n += 1
        if not cmath.isfinite(term):
            raise NonConvergenceError(
                f"term {n} is non-finite: {term} (method {method}); "
                f"partial value {total} from the {n - 1} terms before it",
                partial=SeriesValue(total, tail, n, method),
            )
        total += term
        tail = bound
        if tail <= policy.eps * max(1.0, abs(total)):
            return SeriesValue(total, tail, n, method)
        if n >= policy.max_terms:
            raise NonConvergenceError(
                f"no convergence in {n} terms (method {method}); "
                f"partial value {total}",
                partial=SeriesValue(total, tail, n, method),
            )
    return SeriesValue(total, 0.0, n, method)


def _check_base(q):
    q = float(q)
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    return q


def _check_exact_base(r):
    r = Fraction(r)
    if not 0 < r < 1:
        raise DomainError(f"r must be a rational in (0, 1), got {r}")
    return r


def _rpow(base, s):
    """base**s for positive real base and complex s, via the real log."""
    if isinstance(s, complex):
        return cmath.exp(s * math.log(base))
    return base**s


def _check_direct(s):
    if s.real < 1:
        raise DomainError(f"direct series needs Re(s) >= 1, got Re(s) = {s.real}")


def _direct_plain(s, q, policy, x=0.0, n0=1, step=1, chi=None):
    """The defining series term by term under the driver, plus its rounding bound."""
    got = _sum_series(_direct.plain_terms(s, q, chi, x, n0, step), policy, "direct")
    err = got.abs_error_estimate + _direct.plain_rounding(s, q, x, n0, step, got.terms_used)
    return SeriesValue(got.value, err, got.terms_used, "direct")


def _crvz_plan(s, q, eps, x, n0, step, chi):
    """(classes, class step, n, truncation bound) of the accelerated sum; the classes
    are (first index, chi of it) pairs: (n0, None), or ``_char_weights(chi)``."""
    classes = [(n0, None)]
    if chi is not None:
        step = chi.modulus
        classes = _char_weights(chi)
    return (classes, step, *_direct.crvz_length(s, q, eps, x, step, classes[0][0], len(classes)))


def _crvz(s, q, x, classes, step, n, truncation):
    """The accelerated sum of a ``_crvz_plan``; the class weights are (1+q) chi(a) (-1)**a."""
    weights = [(a, (1 + q) * (-1) ** a * (1 if v is None else v.to_complex())) for a, v in classes]
    value, rounding = _direct.crvz_sum(s, q, x, step, weights, n)
    return SeriesValue(value, truncation + rounding, len(weights) * n, "direct")


def _direct_accelerated(s, q, policy, x=0.0, n0=1, step=1, chi=None):
    """The defining series by CRVZ acceleration, one residue class at a time."""
    classes, step, n, truncation = _crvz_plan(s, q, policy.eps, x, n0, step, chi)
    if n is None:
        raise NonConvergenceError(f"no CRVZ length up to {_direct.MAX_N} meets eps={policy.eps}")
    return _crvz(s, q, x, classes, step, n, truncation)


def _direct_series(s, q, policy, x=0.0, n0=1, step=1, chi=None):
    """The defining series by whichever sum needs fewer terms (see ``_direct``).

    The accelerated sum must also fit in max_terms; otherwise the plain
    stream runs, and raises NonConvergenceError with its partial when it
    runs out.
    """
    plan = _crvz_plan(s, q, policy.eps, x, n0, step, chi)
    classes, _, n, _ = plan
    cost = len(classes) * n if n is not None else math.inf
    if cost <= policy.max_terms and cost < _direct.plain_length(s, q, policy.eps, x, n0, step):
        return _crvz(s, q, x, *plan)
    if chi is not None:  # chi(n) read off the classes, keyed 1..d: chi once per residue
        values, d = dict(classes), chi.modulus
        chi = lambda n: values.get(n % d or d, 0)
    return _direct_plain(s, q, policy, x, n0, step, chi)


def _class_weight(q, d, s):
    """The weight of the class n = a (mod d) as a function of a (and chi(a)):

        weight(a, v) = (1+q)/(1+q**d) [d]_q**(-s) v (-1)**a q**(s*a),

    the factor of zeta_H(s, a/d at base q**d) in the class decomposition.
    Works over floats (complex s) and over Fractions (integer s); the
    a-independent factor is computed once, and ``v=None`` means weight 1.
    """
    pref = (1 + q) / (1 + q**d) * _rpow(q_bracket(d, q), -s)

    def weight(a, v=None):
        w = pref if v is None else pref * v.to_complex()
        return w * (-1) ** a * _rpow(q, s * a)

    return weight


def _shift_length(s, x, q, eps):
    """Head length K of the shifted continuation; 0 keeps the plain series.

    The tail at x+K needs about ln(1/eps) / ((x+K) |ln q|) terms, so
    K + that count is least at x + K = sqrt(ln(1/eps) / |ln q|).  The
    shift only pays where the plain term ratio q**x is near 1, and it
    makes Re(s) <= 0 worse, so those regions keep K = 0.
    """
    if s.real <= 0 or q**x <= 0.5:
        return 0
    target = math.sqrt(max(0.0, -math.log(eps)) / -math.log(q))
    return max(0, round(target - x))


def hurwitz_zeta_q(s, x, q, policy=None):
    """Hurwitz-type q-Euler zeta zeta_H(s, x) by the (shifted) binomial continuation.

    Defined for all complex s when 0 < q < 1 and x > 0.  At s = -m the
    series terminates after m+1 terms and agrees with the exact rational
    value of ``hurwitz_neg_int_exact``.  Where the plain series is slow
    the first K terms of the defining series come first and the
    continuation runs at x+K (see the module docstring); ``terms_used``
    counts both parts.
    """
    policy = policy or PrecisionPolicy()
    s = complex(s)
    x = float(x)
    q = _check_base(q)
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    K = _shift_length(s, x, q, policy.eps)
    prefactor = (1 + q) * _rpow(1 - q, s)
    if K:
        # (-1)**K q**(s*K) scales the continuation at x+K
        prefactor *= (-1) ** K * _rpow(q, s * K)
    qx = q ** (x + K)

    def terms():
        # Head: the first K terms of the defining series, whose tail bounds
        # hold for head plus scaled tail (K > 0 only where Re(s) > 0).
        yield from itertools.islice(_direct.plain_terms(s, q, None, x, 0), K)
        # Tail: the binomial continuation at x+K.
        coeff = complex(1)  # C(s+j-1, j)
        qxj = 1.0  # q**((x+K)*j)
        qsj = _rpow(q, s)  # q**(s+j)
        same_phase = qsj.real >= 0  # then every |1 + q**(s+i)| >= 1
        size = abs(s)
        j = 0
        while coeff:
            den = 1 + qsj
            if abs(den) < NEAR_SINGULAR_TOL:
                raise NearSingularError(
                    f"denominator 1 + q**(s+j) within {NEAR_SINGULAR_TOL} of zero "
                    f"at term j={j} (s={s}, q={q})",
                    term_index=j,
                )
            num = prefactor * coeff * qxj
            # |C(s+i, i+1)| <= |C(s+i-1, i)| (|s|+i) / (i+1): the moduli of
            # the numerators fall at least by rho from term j on
            rho = qx * max(1.0, (size + j) / (j + 1))
            low = 1.0 if same_phase else 1 - q * abs(qsj)  # <= |1 + q**(s+i)|, i > j
            tail = abs(num) * rho / ((1 - rho) * low) if rho < 1 and low > 0 else math.inf
            yield num / den, tail
            coeff *= (s + j) / (j + 1)
            qxj *= qx
            qsj *= q
            j += 1

    return _sum_series(terms(), policy, "continuation")


def hurwitz_zeta_q_direct(s, x, q, policy=None):
    """Defining series (1+q) sum_{n>=0} (-1)**n q**(s*n) / [n+x]**s, Re(s) >= 1.

    Oracle route; raises DomainError left of Re(s) = 1 instead of
    pretending the series still means anything there.  Summed by the
    plain stream or by CRVZ acceleration of its one class, whichever
    needs fewer terms by an a-priori count (see the module docstring);
    ``abs_error_estimate`` is truncation plus rounding.
    """
    policy = policy or PrecisionPolicy()
    s = complex(s)
    x = float(x)
    q = _check_base(q)
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    _check_direct(s)
    return _direct_series(s, q, policy, x=x, n0=0)


def _hurwitz_trunc_exact(m, r, d, a):
    """Exact truncation of the continuation at s = -m (m >= 0) and x = a/d,
    evaluated at base q = r**d so q**x = r**a is rational."""
    q = r**d
    # With q = qa/qb, r**a = s/t and e = m - j, the j-th term
    # c (s/t)**j / (1 + q**-e) is the integer fraction c qa**e s**j / ((qa**e + qb**e) t**j).
    qa, qb = q.numerator, q.denominator
    s, t = r.numerator**a, r.denominator**a
    terms = []
    for j in range(m + 1):
        c, e = gen_binom(-m, j), m - j
        terms.append(Fraction(c.numerator * qa**e * s**j, c.denominator * (qa**e + qb**e) * t**j))
    return (1 + q) * _exact_sum(terms) / (1 - q) ** m


def hurwitz_neg_int_exact(m, r, d, a):
    """Exact rational zeta_H(-m, a/d) at base q = r**d, for m >= 1.

    Equals ``qeuler_poly_exact(m, r, d, a)``: the terminating
    continuation reproduces the q-Euler polynomial values.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"m must be a positive integer, got {m!r}")
    if not isinstance(a, int) or not isinstance(d, int) or d < 1 or a < 0:
        raise DomainError(f"need integers a >= 0 and d >= 1, got a={a!r}, d={d!r}")
    r = _check_exact_base(r)
    return _hurwitz_trunc_exact(m, r, d, a)


def euler_zeta_q(s, q, policy=None):
    """q-Euler zeta zeta_E(s) = -q**s * zeta_H(s, 1), by continuation."""
    h = hurwitz_zeta_q(s, 1, q, policy)
    qs = _rpow(float(q), complex(s))
    return SeriesValue(-qs * h.value, abs(qs) * h.abs_error_estimate, h.terms_used, h.method)


def euler_zeta_q_direct(s, q, policy=None):
    """Defining series (1+q) sum_{n>=1} (-1)**n q**(s*n) / [n]**s, Re(s) >= 1.

    Summed like :func:`hurwitz_zeta_q_direct` (plain stream or one
    accelerated class); the bound is truncation plus rounding.
    """
    policy = policy or PrecisionPolicy()
    s = complex(s)
    q = _check_base(q)
    _check_direct(s)
    return _direct_series(s, q, policy)


def euler_zeta_neg_int_exact(m, r):
    """Exact rational zeta_E(-m) = -r**(-m) * zeta_H(-m, 1) for m >= 0.

    For m >= 1 this equals the m-th q-Euler number (``qeuler_higher(m, 1, r)``);
    at m = 0 the continuation gives -(1+r)/2, the negative of the 0-th
    q-Euler number -- the sign boundary of the interpolation.
    """
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m!r}")
    r = _check_exact_base(r)
    return -(r**-m) * _hurwitz_trunc_exact(m, r, 1, 1)


def _char_weights(chi):
    """(a, chi(a)) pairs over 1 <= a <= d with chi(a) != 0."""
    out = []
    for a in range(1, chi.modulus + 1):
        v = chi(a)
        if v != 0:
            out.append((a, v))
    return out


def l_series(s, chi, q, policy=None):
    """L(s, chi) for all complex s, via the continuation decomposition

    L(s, chi) = ((1+q)/(1+q**d)) [d]_q**(-s)
                sum_{a=1}^{d} chi(a) (-1)**a q**(s*a) zeta_H(s, a/d at base q**d).
    """
    if not isinstance(chi, DirichletCharacter):
        raise DomainError(f"chi must be a DirichletCharacter, got {chi!r}")
    policy = policy or PrecisionPolicy()
    s = complex(s)
    q = _check_base(q)
    d = chi.modulus
    qd = q**d
    weight = _class_weight(q, d, s)
    total = complex(0)
    err = 0.0
    terms_used = 0
    for a, v in _char_weights(chi):
        h = hurwitz_zeta_q(s, a / d, qd, policy)
        w = weight(a, v)
        total += w * h.value
        err += abs(w) * h.abs_error_estimate
        terms_used += h.terms_used
    return SeriesValue(total, err, terms_used, "continuation")


def l_series_direct(s, chi, q, policy=None):
    """Defining series (1+q) sum_{n>=1} chi(n) (-1)**n q**(s*n) / [n]**s, Re(s) >= 1.

    The accelerated sum takes one class n = a (mod d) per chi(a) != 0,
    so it costs (classes) x n terms against the plain stream's count over
    every n; the cheaper one runs.  The bound is truncation plus rounding.
    """
    if not isinstance(chi, DirichletCharacter):
        raise DomainError(f"chi must be a DirichletCharacter, got {chi!r}")
    policy = policy or PrecisionPolicy()
    s = complex(s)
    q = _check_base(q)
    _check_direct(s)
    return _direct_series(s, q, policy, chi=chi)


def l_neg_int_exact(k, chi, r):
    """L(-k, chi) exactly: the k-th chi-twisted q-Euler number, k >= 1."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    return generalized_qeuler(k, chi, r)


def l_neg_int_decomposition(k, chi, r):
    """L(-k, chi) through the decomposition route, exactly.

    Evaluates the a-sum of :func:`l_series` at s = -k with the rational
    truncation in place of the continuation; agrees with
    :func:`l_neg_int_exact` (exact Fraction for real chi, complex with
    exact rational prestages otherwise).
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if not isinstance(chi, DirichletCharacter):
        raise DomainError(f"chi must be a DirichletCharacter, got {chi!r}")
    r = _check_exact_base(r)
    d = chi.modulus
    weight = _class_weight(r, d, -k)
    return _chi_combination(chi, [
        (v, weight(a) * _hurwitz_trunc_exact(k, r, d, a)) for a, v in _char_weights(chi)
    ])


def _check_partial_args(a, F):
    if not isinstance(F, int) or F < 3 or F % 2 == 0:
        raise DomainError(f"F must be an odd integer >= 3, got {F!r}")
    if not isinstance(a, int) or not 1 <= a <= F:
        raise DomainError(f"a must satisfy 1 <= a <= F, got a={a!r}, F={F!r}")


def partial_zeta(s, a, F, q, policy=None):
    """Partial zeta H(s, a, F): the zeta_E series restricted to n == a (mod F).

    Computed for all complex s through the single-term decomposition

      H(s, a, F) = ((1+q)/(1+q**F)) [F]_q**(-s) (-1)**a q**(s*a)
                   zeta_H(s, a/F at base q**F),

    for odd F >= 3 and 1 <= a <= F (a = F selects the multiples of F).
    """
    _check_partial_args(a, F)
    policy = policy or PrecisionPolicy()
    s = complex(s)
    q = _check_base(q)
    h = hurwitz_zeta_q(s, a / F, q**F, policy)
    w = _class_weight(q, F, s)(a)
    return SeriesValue(w * h.value, abs(w) * h.abs_error_estimate, h.terms_used, h.method)


def partial_zeta_direct(s, a, F, q, policy=None):
    """Defining restricted series over n = a, a+F, a+2F, ...; Re(s) >= 1.

    The class alternates (F is odd), so it is summed like
    :func:`hurwitz_zeta_q_direct` with step F; the bound is truncation
    plus rounding.
    """
    _check_partial_args(a, F)
    policy = policy or PrecisionPolicy()
    s = complex(s)
    q = _check_base(q)
    _check_direct(s)
    return _direct_series(s, q, policy, n0=a, step=F)


def partial_zeta_neg_int_exact(n, a, F, r):
    """Exact rational H(-n, a, F) for n >= 1.

    Summing over a = 1..F partitions the full series, so these values
    add up to ``euler_zeta_neg_int_exact(n, r)`` exactly.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    _check_partial_args(a, F)
    r = _check_exact_base(r)
    return _class_weight(r, F, -n)(a) * _hurwitz_trunc_exact(n, r, F, a)
