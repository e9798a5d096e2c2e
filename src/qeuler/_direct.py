"""Terms, cost and error bounds of the defining series, and its CRVZ acceleration.

The ``*_direct`` routes of :mod:`qeuler.zeta` sum

    (1+q) sum_n chi(n) (-1)**n q**(s*n) [n+x]**(-s),   n = n0, n0+step, ...,

for Re(s) >= 1, in one of two ways; ``moment`` forms every term of both, and
of the continuation's head, in log space, never as a quotient of huge factors.
Both read the series' ``Progression``, built once per call and the only
description of the series that they read: its x, its class table, whose
(a, k, chi(a)) for each class with chi(a) != 0 give chi(n) = chi(a) for n
in the class a (mod d), and step, the least gap between consecutive n.

* The plain stream ``plain_terms``: the terms with chi(n) != 0 one by
  one under the series driver, walking the classes in the order of n.
  Its k-th term has n >= n0 + step k, n0 the first class's a, so it is
  at most T0 r**k with T0 = (1+q) q**(sigma n0) [n0+x]**(-sigma) and
  r = q**(sigma step), sigma = Re(s), and the stream needs about
  ln(T0 / ((1-r) eps)) / (sigma step |ln q|) terms (``plain_length``):
  O(1 / (sigma (1-q))) as q -> 1.  ``plain_rounding`` bounds its
  rounding error.

* The accelerated sum (Cohen, Rodriguez Villegas and Zagier,
  *Convergence acceleration of alternating series*, Experimental Math.
  9 (2000), Algorithm 1; CRVZ below), one residue class n = a + step k
  at a time, step odd, so that the class alternates in k.  Expanding
  [m]**(-s) = (1-q)**s sum_j C(s+j-1, j) q**(m j) writes the class as
  sum_k (-1)**k a_k with moments

      a_k = q**(s m) [m+x]**(-s) = sum_j w_j t_j**k,   m = a + step k,
      t_j = z q**(step j),  z = q**(step s),
      sum_j |w_j| <= W_a = (1-q)**sigma q**(sigma a) (1 - q**(a+x))**(-|s|),

  since |C(s+j-1, j)| <= C(|s|+j-1, j).  CRVZ's n-term sum leaves the
  error sum_j w_j T_n(1 - 2 t_j) / ((1 + t_j) T_n(3)).  Every t_j lies on
  the segment [0, z], so 1 - 2 t_j lies in the Bernstein ellipse through
  1 - 2z, of parameter rho (rho = 1 for real s), where
  |T_n| <= (rho**n + rho**-n) / 2 (Trefethen, *Approximation Theory and
  Approximation Practice*, ch. 8); and 1 / |1 + t_j| <= c = 1 where
  Re z >= 0, else 1 / (1 - |z|).  The truncation bound is therefore

      (1+q) sum_a W_a c (rho**n + rho**-n) / 2 / T_n(3),

  which falls like (rho / (3 + sqrt 8))**n; ``crvz_length`` picks the
  least n that puts it under eps / 2, leaving the other half of eps to
  the rounding bound that ``crvz_sum`` reports beside the value.  W_a
  and the bound are kept in log space, so neither overflows nor
  underflows.

Both counts read only the inputs; the zeta module runs whichever is
smaller.  Both rounding bounds rest on ``moment_rounding``; u = 2**-53.
``log_tail_bound`` bounds the moduli of the terms from n on, which lets
the L-series continuation skip the residue classes past n at Re(s) > 0.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

U = 2.0**-53
BETA = 3 + math.sqrt(8)  # n CRVZ terms leave an error of about BETA**-n
LOG_BETA = math.log(BETA)
MAX_N = 390  # keeps T_n(3) below 1e298, so the CRVZ weights stay finite
CHI_ROUNDING = 24  # chi(n): cos and sin (2u) of 2 pi k / order < 2 pi (19u), times a term (3u)


class Progression(NamedTuple):
    """The n of a series, shifted by x in [n+x]: its class table, and the
    least gap between consecutive n.

    ``classes`` holds (a, k, chi(a)) for each unit a of a character chi in
    order, chi(a) = e**(2 pi i k / L) as the exponent k and as a complex,
    each class n = a + period k with period = chi's modulus; without chi
    it is the one class (n0, None, None) of n = n0, n0 + step, ..., with
    period = step.  Every a lies in [0, period].  ``step``, the least gap,
    is the period for one class and 1 for a character, since 1 and 2 are
    units of every odd modulus.
    """

    x: float
    step: int
    classes: tuple
    period: int

    @classmethod
    def of(cls, x=0.0, n0=1, step=1, chi=None):
        """The progression (x, n0, step), weighted by ``chi`` (None for weight 1)."""
        if chi is None:
            return cls(x, step, ((n0, None, None),), step)
        return cls(x, 1, chi._unit_table(), chi.modulus)


def _log_bracket(y, log_q, em1):
    """ln [y]_q as ln(expm1(y ln q) / em1), em1 = expm1(ln q): accurate as q -> 1, 0 at y = 1."""
    return math.log(math.expm1(y * log_q) / em1)


def moment(s, m, x, log_q, em1):
    """q**(s m) [m+x]**(-s) as exp(s (m ln q - ln [m+x])); ``moment_rounding`` bounds its error."""
    return cmath.exp(s * (m * log_q - _log_bracket(m + x, log_q, em1)))


def moment_rounding(size, m, y0, log_q, log_1mq):
    """Units of u in the relative error of ``moment`` at m, for m + x >= y0 and |s| = size.

    To first order in u, with every operation and libm call within u:
    m + x, ln q and their product give y ln q to 3u, which expm1 at
    y ln q < 0 does not magnify (|z e**z / expm1(z)| <= 1), so the
    quotient carries 4u + 2u + u and its log, lambda = ln [m+x], is within
    7u + u |lambda|.  With the 2u of m ln q and the u of the difference
    and of s times it, the exponent is within
    u |s| (4 |m ln q| + 3 |lambda| + 7), and cmath.exp adds 3u.  Since
    ln [y] = ln(1 - q**y) - ln(1 - q) is a difference of two nonpositive
    logs, |lambda| <= max(-ln(1 - q**y0), -ln(1 - q)).  Each constant is
    rounded up by one to absorb the second-order terms.
    """
    log_bracket = max(-math.log(-math.expm1(y0 * log_q)), -log_1mq)
    return size * (4 * abs(m * log_q) + 3 * log_bracket + 8) + 4


def log_binomial_bound(s, q, shift, x):
    """ln of (1+q) (1-q)**sigma q**(sigma shift) (1 - q**(shift+x))**(-|s|).

    That bounds (1+q) |(1-q)**s q**(s shift)| sum_j |C(s+j-1, j)| q**((shift+x) j),
    since |C(s+j-1, j)| <= C(|s|+j-1, j): the class weight times W_a at
    shift = a.  The rounding of the four logs and their sum, at most
    8u (sum of their sizes + |s| + 1), is added, so the float result is
    still an upper bound.
    """
    log_q = math.log(q)
    parts = (math.log1p(q), s.real * math.log1p(-q), s.real * shift * log_q,
             -abs(s) * math.log(-math.expm1((shift + x) * log_q)))
    return sum(parts) + 8 * U * (sum(abs(p) for p in parts) + abs(s) + 1)


def log_tail_bound(sigma, q, x):
    """The map n -> ln of (1+q) q**(sigma n) [n+x]**(-sigma) / (1 - q**sigma), rounded up.

    For sigma > 0 that bounds the sum of the moduli
    (1+q) q**(sigma n') [n'+x]**(-sigma) over n' = n, n+1, ...: [n'+x]
    grows with n', so they fall at least by q**sigma per step.  The parts
    that do not depend on n are computed once.  As in
    ``log_binomial_bound``, the rounding of the four logs and their sum,
    at most 8u (sum of their sizes + sigma + 1), is added.
    """
    log_q = math.log(q)
    em1 = math.expm1(log_q)
    ends = (math.log1p(q), -math.log(-math.expm1(sigma * log_q)))
    fixed, size = sum(ends), sum(abs(p) for p in ends) + sigma + 1

    def bound(n):
        power, bracket = sigma * n * log_q, sigma * _log_bracket(n + x, log_q, em1)
        return fixed + power - bracket + 8 * U * (size + abs(power) + abs(bracket))
    return bound


def plain_terms(s, q, progression):
    """(term, tail) for the terms (1+q) chi(n) (-1)**n q**(s*n) [n+x]**(-s) at the
    n = a + period k of the ``progression``'s classes, in the order of n.

    The classes are its (a, k, chi(a)), chi(a) None for weight 1, a in
    [a0, a0 + period).  Consecutive n are the record's step or more
    apart, and [n+x] grows with n, so the moduli fall at least by
    r = q**(Re(s) step) per term and the tail is the last modulus times
    r / (1-r) (inf if r rounds to 1).
    """
    x, step, classes, period = progression
    log_q = math.log(q)
    em1 = math.expm1(log_q)
    if len(classes) == 1:  # n = a + period k, as cheap per term as a bare count
        ((first, _, w),) = classes
        walk = itertools.count(first, period)
        weights = None if w is None else itertools.repeat(w)
    else:  # the units of a character, stepping through the gaps between them
        firsts = [a for a, _, _ in classes]
        gaps = [b - a for a, b in zip(firsts, firsts[1:] + [firsts[0] + period])]
        walk = itertools.accumulate(itertools.cycle(gaps), initial=firsts[0])
        weights = itertools.cycle([v for _, _, v in classes])
    r = q ** (s.real * step)
    geometric = r / (1 - r) if r < 1 else math.inf
    for n in walk:
        try:
            term = (1 + q) * moment(s, n, x, log_q, em1)
        except OverflowError:
            raise OverflowError(
                f"term n = {n} of the defining series exceeds the double range") from None
        tail = abs(term) * geometric
        if n % 2:
            term = -term
        yield (term if weights is None else term * next(weights)), tail


def plain_length(s, q, eps, progression):
    """A-priori term count ln(T0 / ((1-r) eps)) / (sigma step |ln q|) of the plain stream."""
    x, step, classes, _ = progression
    n0 = classes[0][0]
    log_q = math.log(q)
    rate = -s.real * step * log_q
    log_t0 = math.log1p(q) + s.real * (n0 * log_q - _log_bracket(n0 + x, log_q, math.expm1(log_q)))
    return (log_t0 - math.log(-math.expm1(-rate) * eps)) / rate


def plain_rounding(s, q, progression, terms):
    """Rounding bound of the plain stream after ``terms`` terms.

    Term k, n = n0 + step k, is (1+q) chi(n) times a ``moment``, so its
    relative error is at most u (A + B k): A is ``moment_rounding`` at n0
    plus 2 for 1+q and its product and ``CHI_ROUNDING`` for chi(n), and
    B = 4 |s| step |ln q| is the growth of 4 |s| |n ln q| per step.  With
    |term k| <= T0 r**k and 2 N u for N complex additions, the error is
    at most u T0 ((A + 2N) / (1-r) + B r / (1-r)**2).
    """
    x, step, classes, _ = progression
    n0 = classes[0][0]
    log_q = math.log(q)
    A = moment_rounding(abs(s), n0, n0 + x, log_q, math.log1p(-q)) + 2 + CHI_ROUNDING
    B = 4 * abs(s) * step * -log_q
    r = q ** (s.real * step)
    t0 = (1 + q) * abs(moment(s, n0, x, log_q, math.expm1(log_q)))
    return U * t0 * ((A + 2 * terms) / (1 - r) + B * r / (1 - r) ** 2)


def _weights(n):
    """The weights w_k, k < n, of CRVZ Algorithm 1: the sum is sum_k (-1)**k w_k a_k.

    w_k = sum_{i>k} b_i / T_n(3), with b_i = n/(n+i) C(n+i, 2i) 4**i the
    terms of T_n(3) = sum_i b_i.  Sums of positive terms, so each w_k is
    accurate to (6n + 2) u relative.
    """
    b = [1.0]
    for i in range(n):
        b.append(b[-1] * (n + i) * (n - i) / ((i + 0.5) * (i + 1)))
    w = [0.0] * n
    tail = 0.0
    for k in range(n - 1, -1, -1):
        tail += b[k + 1]
        w[k] = tail
    d = tail + 1.0
    return [v / d for v in w]


def _log_truncation(n, log_scale, log_rho):
    """ln of exp(log_scale) (rho**n + rho**-n) / 2 / T_n(3)."""
    return (log_scale + n * (log_rho - LOG_BETA)
            + math.log1p(math.exp(-2 * n * log_rho)) - math.log1p(BETA ** (-2 * n)))


def crvz_length(s, q, eps, progression):
    """(n, truncation bound) of the accelerated sum, or (None, inf) when
    no n up to ``MAX_N`` puts the bound under eps / 2.

    The sum has one class n = a + step k per class of the ``progression``,
    step its period, each of weight modulus 1 + q.  W_a falls as a grows,
    so sum_a W_a <= (classes) W_first, at the first class's a.
    """
    x, _, classes, step = progression
    log_q = math.log(q)
    z = cmath.exp(step * s * log_q)
    log_rho = 0.0
    if s.imag:
        u = 1 - 2 * z
        log_rho = abs(math.log(abs(u + cmath.sqrt(u * u - 1))))
    if log_rho >= LOG_BETA:
        return None, math.inf
    log_scale = math.log(len(classes)) + log_binomial_bound(s, q, classes[0][0], x)
    if z.real < 0:
        log_scale -= math.log1p(-abs(z))
    target = math.log(eps / 2)
    n = max(1, math.ceil((log_scale + math.log(2) - target) / (LOG_BETA - log_rho)))
    while n > 1 and _log_truncation(n - 1, log_scale, log_rho) <= target:
        n -= 1
    while _log_truncation(n, log_scale, log_rho) > target:
        n += 1
    if n > MAX_N:
        return None, math.inf
    # Rounding of the log-space bound: of log_scale and n ln(beta); of
    # ln rho, relative to its size and the error of z, and near rho = 1,
    # where ln rho is ill-conditioned but cosh(n ln rho) is flat, n**2 u.
    slack = 8 * U * (abs(log_scale) + n * (LOG_BETA + log_rho * (2 + abs(step * s * log_q)))
                     + n * n + 2)
    return n, math.exp(_log_truncation(n, log_scale, log_rho) + slack)


def crvz_sum(s, q, progression, n):
    """(value, rounding bound) of n CRVZ terms per class of the ``progression``,
    class a weighed by (1+q) (-1)**a chi(a), as in ``plain_terms``.

    Each a_k is a ``moment``, to a relative error of at most
    ``moment_rounding`` at the class's last m and first m + x.  The
    weights and their products add (6n + 3) u, the n-term sum 2n u, the
    class weights (1 + CHI_ROUNDING) u, their products 3u and the sum over
    the classes 2 classes u, all relative to sum_a |weight_a| sum_k w_k |a_k|.
    """
    x, _, classes, step = progression
    w = _weights(n)
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    em1 = math.expm1(log_q)
    size = abs(s)
    fixed = 8 * n + 2 * len(classes) + 7 + CHI_ROUNDING
    total = complex(0)
    rounding = 0.0
    for a, _, v in classes:
        weight = (1 + q) * (-1) ** a * (1 if v is None else v)
        acc = complex(0)
        mag = 0.0
        for k in range(n):
            t = w[k] * moment(s, a + step * k, x, log_q, em1)
            acc = acc - t if k % 2 else acc + t
            mag += abs(t)
        total += weight * acc
        delta = moment_rounding(size, a + step * (n - 1), a + x, log_q, log_1mq) + fixed
        rounding += abs(weight) * mag * delta
    return total, U * rounding
