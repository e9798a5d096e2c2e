"""q-Euler numbers and polynomials in closed form, plus classical limits.

The central objects are the higher-order q-Euler numbers

    E_m^(k)(q) = (1+q)**k / (1-q)**m *
                 sum_{i=0}^{m} C(m,i) (-1)**i  prod_{j=0}^{k-1} 1/(1 + q**(i-m-j))

their two-index companions (degree and twist split), and exact values of
the q-Euler polynomial E_m(x) at rational x = a/d, obtained by working at
base q = r**d so that q**x = r**a stays rational.

Every closed form has one arithmetic path, exact over the rationals.  A
rational base gives the exact Fraction.  A float base is exact as a
Fraction too, so it gets the same exact evaluation and the result is
rounded once with ``float()``: the correctly rounded value of the
formula at that double, with no cancellation however close q is to 1.

Every closed form is one sum, ``_binomial_sum``, over integers: q = a/b
and every y come as integer pairs, 1/(1 + q**-k) is a**k/(a**k + b**k),
and each term is a pair (num, den) with no gcd.  Its coefficient vector
is formed once per call and serves every y the call asks for, so the d
residue classes of the distribution sum (``_distribution_parts``, also
the chi-twisted numbers) share it.  The prefactor (1+q)**k/(1-q)**n is
an integer pair too (``_binomial_prefactor``): one value takes it into
its sum, and the distribution sum takes its own prefactor in once,
outside the d classes.  ``_exact_sum`` adds a small sum, prefactor
included, into one unreduced pair, and pairs pass on to the one
Fraction a public function returns, so each value pays one gcd (a float
result none: it is one integer division).  A large sum adds level by
level as Fractions, and its reduced Fraction joins any larger sum as it
is, never reduced again.  The cost follows the size of the value, and
``Fraction(0.99)`` has a denominator of 2**52: the value's denominator
grows like m**2 times the bit height of q (about 78,000 bits at
(m, k, q) = (60, 1, 0.999), 9,800 at (60, 1, 99/100)), and the time
faster than that size.  The README gives measured times.

``qeuler_poly_numeric`` is the floating companion at real x; its only
other rounding is q**x.  The ``*_residual`` functions package the
distribution and multiplication identities as "should be exactly zero"
quantities so tests and demos can assert them directly; each one is
one Fraction of its two sides: the terms of the right side sum as
integer pairs with their common prefactor folded in once, and the left
side joins them as one more pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, check_closed_form_base, check_int, check_rational
from .numeric import _exact_sum, _float, _fraction, _pair, _powers, binom

__all__ = [
    "qeuler_higher",
    "qeuler_mixed",
    "qeuler_poly_exact",
    "qeuler_poly_numeric",
    "euler_classical",
    "distribution_residual",
    "multiplication_residual_x0",
    "classical_multiplication_residual",
]


def _binomial_prefactor(n, q, k=1):
    """(1+q)**k/(1-q)**n as the integer pair
    ((a+b)**k b**(n-k), (b-a)**n b**(k-n)), q = a/b, unreduced."""
    a, b = q
    return (a + b) ** k * b ** max(n - k, 0), (b - a) ** n * b ** max(k - n, 0)


def _binomial_sum(n, m, q, ys, k=1, prefactor=(1, 1)):
    """prefactor * sum_{j=0}^{n} C(n,j) (-1)**j y**j prod_{l<k} 1/(1 + q**(j-m-l))
    for each y in ys, as raw values of ``_exact_sum``; q = a/b, each
    y = s/t and the prefactor are integer pairs.

    E_m^(k) is n = m, y = 1 with the prefactor ``_binomial_prefactor``;
    E_m(x) is n = m, k = 1, y = q**x; E_{n,m} is k = 1, y = 1.  The n+1
    coefficients are formed once per call from integer powers of a and
    b: 1/(1 + q**e) is b**e/(a**e + b**e) for e >= 0 and
    a**-e/(a**-e + b**-e) for e < 0, positive for positive q.  Term j is
    the integer pair (c_num * s**j, c_den * t**j) (y = 1 takes the
    coefficients as they are), and ``_exact_sum`` adds each y's terms,
    and the prefactor, into one pair with no gcd (a reduced Fraction for
    a large sum).  A caller of one value passes its prefactor in, so the
    value's one Fraction pays the only gcd; a caller of several ys, the
    residue classes of the distribution sum, passes none and takes its
    shared prefactor in once, outside.
    """
    a, b = q
    top = max(m + k - 1, n - m)
    apow, bpow = _powers(a, top), _powers(b, top)
    # 1/(1 + q**e) = fnum[i]/fden[i] for e = i + 1 - m - k: term j takes i = j..j+k-1
    es = range(1 - m - k, n - m + 1)
    fnum = [bpow[e] if e >= 0 else apow[-e] for e in es]
    fden = [apow[abs(e)] + bpow[abs(e)] for e in es]
    coeffs = []
    for j in range(n + 1):
        num = -math.comb(n, j) if j % 2 else math.comb(n, j)
        den = 1
        for i in range(j, j + k):
            num *= fnum[i]
            den *= fden[i]
        coeffs.append((num, den))
    sums = []
    for s, t in ys:
        if s == t:
            terms = coeffs
        else:
            spow, tpow = _powers(s, n), _powers(t, n)
            terms = [(cn * sj, cd * tj) for (cn, cd), sj, tj in zip(coeffs, spow, tpow)]
        sums.append(_exact_sum(terms, prefactor))
    return sums


def _binomial_value(n, m, q, y, k=1):
    """The raw value of ``_binomial_sum`` at a single y, prefactor
    (1+q)**k/(1-q)**n included."""
    (value,) = _binomial_sum(n, m, q, [y], k, _binomial_prefactor(n, q, k))
    return value


def _distribution_parts(m, r, d, x, shifts):
    """(prefactor, parts) with prefactor * sum(parts) =
    ((1+q)/(1+q**d)) [d]_q**m sum_{i in shifts} (-1)**i q**(-m*i) E_m((x+i)/d)
    at q = r = a/b, each E_m at base q**d from one coefficient vector: the
    distribution sum.  Each part is a raw value (an integer pair, or a
    reduced Fraction as ``_binomial_sum`` returned it), the i-th term
    without the factors common to all of them; those make up the one
    prefactor pair, which each caller applies once in its own order.
    """
    a, b = r.numerator, r.denominator
    top = max(d, x + max(shifts), m * max(shifts))
    apow, bpow = _powers(a, top), _powers(b, top)
    # E_m at base q**d is inner * sum: inner = (1+q**d)/(1-q**d)**m is shared
    qd = (apow[d], bpow[d])
    inner = _binomial_prefactor(m, qd)
    sums = _binomial_sum(m, m, qd, [(apow[x + i], bpow[x + i]) for i in shifts])
    parts = []
    for i, value in zip(shifts, sums):
        if i:  # times (-1)**i q**(-m*i) = (-1)**i b**(m*i) / a**(m*i); i = 0 stays raw
            num, den = _pair(value)
            value = (-num if i % 2 else num) * bpow[m * i], den * apow[m * i]
        parts.append(value)
    # [d]_q = sum_{i<d} a**i b**(d-1-i) / b**(d-1), (1+q)/(1+q**d) = (a+b) b**(d-1) / (a**d+b**d)
    bracket = sum(apow[i] * bpow[d - 1 - i] for i in range(d))
    return ((a + b) * bpow[d - 1] * bracket**m * inner[0],
            (apow[d] + bpow[d]) * bpow[d - 1] ** m * inner[1]), parts


def qeuler_higher(m, k, q):
    """Order-k q-Euler number E_m^(k)(q): a Fraction for rational q, and for
    float q the exact value at that double, rounded once to a float.

    For k = 1 these are the ordinary q-Euler numbers: E_0 = (1+q)/2,
    E_1 = -1/2 for every q, E_2 = (1-q)/(2(1+q**2)).  The denominators
    1 + q**(i-m-j) are positive for positive q.  The cost follows the
    size of the exact value (see the module docstring for float q), and a
    value beyond the double range raises OverflowError when it is rounded.
    """
    check_int(m, "m", 0)
    check_int(k, "k", 1)
    q, rounded = check_closed_form_base(q, "q")
    value = _binomial_value(m, m, (q.numerator, q.denominator), (1, 1), k)
    return _float(value) if rounded else _fraction(value)


def qeuler_mixed(kdeg, m, q):
    """Two-index q-Euler number: degree kdeg with twist index m.

    E_{kdeg,m}(q) = (1+q)/(1-q)**kdeg *
                    sum_{i=0}^{kdeg} C(kdeg,i) (-1)**i / (1 + q**(i-m)).

    The diagonal kdeg = m recovers ``qeuler_higher(m, 1, q)``.  These
    off-diagonal values are exactly the coefficients that appear in the
    multiplication identity (see ``multiplication_residual_x0``).  Like
    ``qeuler_higher``, a float q gives the exact value rounded once.
    """
    check_int(kdeg, "kdeg", 0)
    check_int(m, "m", 0)
    q, rounded = check_closed_form_base(q, "q")
    value = _binomial_value(kdeg, m, (q.numerator, q.denominator), (1, 1))
    return _float(value) if rounded else _fraction(value)


def qeuler_poly_exact(m, r, d, a):
    """Exact q-Euler polynomial value E_m(a/d) at base q = r**d.

    Returns (1+q)/(1-q)**m * sum_{j=0}^{m} C(m,j) (-1)**j r**(a*j) / (1 + q**(j-m))
    as a Fraction; the substitution q**(a/d) = r**a keeps everything
    rational.  With a = 0 this reduces to ``qeuler_higher(m, 1, r**d)``,
    and with d = 1 it gives E_m(a) at base r itself.
    """
    check_int(m, "m", 0)
    check_int(a, "a", 0)
    check_int(d, "d", 1)
    r = check_rational(r, "r", unit=True)
    rn, rd = r.numerator, r.denominator
    return _fraction(_binomial_value(m, m, (rn**d, rd**d), (rn**a, rd**a)))


def qeuler_poly_numeric(m, q, x):
    """Floating q-Euler polynomial value E_m(x) for real x >= 0, 0 < q < 1.

    q (a float or a rational) enters the sum exactly; y = q**x is computed
    in floating point, and the exact sum at that y is rounded once.  The
    result's relative sensitivity to the rounding of y is about
    m*y/|1 - y|.
    """
    check_int(m, "m", 0)
    q, _ = check_closed_form_base(q, "q", unit=True)
    x = float(check_rational(x, "x"))
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    y = (float(q) ** x).as_integer_ratio()
    return _float(_binomial_value(m, m, (q.numerator, q.denominator), y))


@lru_cache(maxsize=None)
def _euler_first(n):
    # E_0 = 1 and sum_{j=0}^{n} C(n,j) E_j + E_n = 2*[n == 0],
    # i.e. the numbers generated by 2/(e^t + 1).
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += binom(n, j) * _euler_first(j)
    return -acc / 2


@lru_cache(maxsize=None)
def _euler_order(n, k):
    if k == 1:
        return _euler_first(n)
    return sum(
        (binom(n, j) * _euler_order(j, k - 1) * _euler_first(n - j) for j in range(n + 1)),
        Fraction(0),
    )


def euler_classical(n, k=1):
    """Classical Euler number E_n^(k) of order k (generated by (2/(e^t+1))**k).

    E_0 = 1, E_1 = -1/2, E_2 = 0, E_3 = 1/4 for k = 1; order k is the
    k-fold binomial convolution of the order-1 sequence.
    """
    check_int(n, "n", 0)
    check_int(k, "k", 1)
    return _euler_order(n, k)


def distribution_residual(n, d, x, r):
    """Distribution identity residual (exactly zero for odd d).

    Computes E_n(x) at base q = r minus
    ((1+q)/(1+q**d)) [d]_q**n sum_{i=0}^{d-1} (-1)**i q**(-n*i) E_n((x+i)/d)
    where the inner polynomial values live at base q**d.  Integer x >= 0
    keeps every term rational, so the return value is an exact Fraction.
    """
    check_int(n, "n", 0)
    check_int(d, "d", 1, odd=True)
    check_int(x, "x", 0)
    r = check_rational(r, "r", unit=True)
    # the left side E_n(x) minus the d parts times their prefactor, one Fraction
    a, b = r.numerator, r.denominator
    lhs = _binomial_value(n, n, (a, b), (a**x, b**x))
    (pn, pd), parts = _distribution_parts(n, r, d, x, range(d))
    return _fraction(_exact_sum([lhs, _exact_sum(parts, (-pn, pd))]))


def multiplication_residual_x0(m, n, r):
    """Multiplication identity residual at x = 0 (exactly zero for odd n).

    E_m(q) - ((1+q)/(1+q**n)) [n]_q**m E_m(q**n)
      = ((1+q)/(1+q**n)) sum_{k=0}^{m-1} C(m,k) [n]_q**k E_{k,m}(q**n)
                         sum_{j=1}^{n-1} q**(-(m-k)*j) (-1)**j [j]_q**(m-k)

    with E_{k,m} the two-index numbers of ``qeuler_mixed``.  The left
    side minus the right side is returned as an exact Fraction.
    """
    check_int(m, "m", 0)
    check_int(n, "n", 1, odd=True)
    r = check_rational(r, "r")
    if r <= 0 or r == 1:
        raise DomainError(f"r must be a positive rational != 1, got {r}")
    a, b = r.numerator, r.denominator
    apow, bpow = _powers(a, n), _powers(b, n)
    qn = (apow[n], bpow[n])  # the base r**n of the right side
    # [j]_r = g[j] / b**(j-1) and r**(-j) [j]_r = b g[j] / a**j, g[j] = sum_{i<j} a**i b**(j-1-i)
    g = [sum(apow[i] * bpow[j - 1 - i] for i in range(j)) for j in range(n + 1)]
    # The left side E_m(r) minus (1+r)/(1+r**n) times one sum over k: term
    # k < m is C(m,k) [n]**k E_{k,m}(r**n) times the inner sum over j, put
    # over its common denominator a**((n-1)(m-k)), and the left side's
    # ratio [n]**m E_m(r**n) joins it as the term k = m (E_{m,m} = E_m),
    # with inner sum 1.
    terms = []
    for k in range(m + 1):
        e = m - k
        inner = sum((-1) ** j * (b * g[j]) ** e * apow[n - 1 - j] ** e for j in range(1, n))
        num, den = _pair(_binomial_value(k, m, qn, (1, 1)))
        terms.append((math.comb(m, k) * g[n] ** k * num * (inner if e else 1),
                      bpow[n - 1] ** k * den * apow[n - 1] ** e))
    lhs = _binomial_value(m, m, (a, b), (1, 1))
    rhs = _exact_sum(terms, (-(a + b) * bpow[n - 1], apow[n] + bpow[n]))  # -(1+r)/(1+r**n)
    return _fraction(_exact_sum([lhs, rhs]))


def classical_multiplication_residual(m, n):
    """q -> 1 limit of the multiplication identity, as an exact residual.

    (1 - n**m) E_m = sum_{k=0}^{m-1} C(m,k) n**k E_k sum_{j=1}^{n-1} (-1)**j j**(m-k)
    for odd n; returns LHS - RHS as a Fraction (zero when the identity holds).
    """
    check_int(m, "m", 1)
    check_int(n, "n", 1, odd=True)
    # one exact sum over the numerators and denominators of E_0..E_m
    euler = [_euler_first(k) for k in range(m + 1)]
    terms = [((1 - n**m) * euler[m].numerator, euler[m].denominator)]
    for k in range(m):
        inner = sum((-1) ** j * j ** (m - k) for j in range(1, n))
        terms.append((-math.comb(m, k) * n**k * inner * euler[k].numerator, euler[k].denominator))
    return _fraction(_exact_sum(terms))
