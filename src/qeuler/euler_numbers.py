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
and every weight come as integers, 1/(1 + q**-k) is a**k/(a**k + b**k),
and each term is a pair (num, den) with no gcd.  Its coefficient vector
is formed once per call, in the order of j, and serves every weighted
sum the call asks for.  The distribution sum (``_distribution_parts``,
also the chi-twisted numbers) weighs the d residue classes of a group
into one weight per term, an integer over a power of a, so a real chi or
the distribution identity is one sum of m+1 terms, not d sums; a complex
chi keeps one group per class.  The prefactor (1+q)**k/(1-q)**n is an
integer pair too (``_binomial_prefactor``), taken into each sum once,
and so is the one denominator of a weight (t**n for y = s/t), so at
k = 1 term j is over a**|e| + b**|e| alone, e = m - j, and the sum hands
``_exact_sum`` the range of e, which orders the terms and joins their
2-adic classes (the ``numeric`` module docstring has the order and its
gate).  At k > 1 a term spans several classes, and the sum is one tree
in the order of j, in which neighbours share k-1 of their k
denominators.  ``_exact_sum`` adds a small sum, prefactor included, into
one unreduced pair, and pairs pass on to the one Fraction a public
function returns, so each value pays one gcd (a float result none: it is
one integer division).  A large sum's reduced Fraction joins any larger
sum as it is, never reduced again.  The cost follows the size of the
value, and ``Fraction(0.99)`` has a denominator of 2**52: the value's
denominator grows like m**2 times the bit height of q (about 78,000 bits
at (m, k, q) = (60, 1, 0.999), 9,800 at (60, 1, 99/100)), and the time
faster than that size.  The README gives measured times.

``qeuler_poly_numeric`` is the floating companion at real x; its only
other rounding is q**x.  The ``*_residual`` functions package the
distribution and multiplication identities as "should be exactly zero"
quantities so tests and demos can assert them directly; each one is
one Fraction of its two sides: the right side is one sum of integer
pairs with its prefactor folded in once, and the left side joins it as
one more pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (DomainError, _shown, check_closed_form_base, check_double, check_int,
                     check_rational)
from .numeric import _exact_sum, _float, _fraction, _negated, _pair, _power_sums, _powers, binom

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


def _binomial_sum(n, m, q, weights, k=1):
    """[prefactor * sum_{j=0}^{n} C(n,j) (-1)**j w_j prod_{l<k} 1/(1 + q**(j-m-l))
    for (w, prefactor) in weights], raw values of ``_exact_sum``; q = a/b and
    each prefactor are integer pairs, and the weights w are a pair
    (nums, den) of an integer list indexed by j and one integer,
    w_j = nums[j]/den, or None for w_j = 1.

    E_m^(k) is n = m, w_j = 1 with the prefactor ``_binomial_prefactor``;
    E_m(x) is n = m, k = 1, w_j = y**j with y = q**x (``_y_powers``);
    E_{n,m} is k = 1, w_j = 1.  The n+1 coefficients are formed once per
    call from integer powers of a and b: 1/(1 + q**e) is
    b**e/(a**e + b**e) for e >= 0 and a**-e/(a**-e + b**-e) for e < 0,
    positive for positive q.  Term j is the integer pair
    (c_num * nums[j], c_den), and the weight's den joins the prefactor, so
    at k = 1 term j is over a**|e| + b**|e| alone, e = m - j, and
    ``_exact_sum``, given the range of e, orders and joins the terms; at
    k > 1 term j is over the k denominators of e = m-j .. m-j+k-1 and the
    terms add in the order of j.  ``_exact_sum`` adds each sum's terms,
    and its prefactor, into one pair with no gcd (a reduced Fraction for
    a large sum): the value's one Fraction pays the only gcd.  The
    weighted sums of one call, the groups of residue classes of
    ``_distribution_parts``, share the coefficients.
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
    # at k = 1 term j is over fden[j] = a**|e| + b**|e| alone, e = m - j
    exponents = range(m, m - n - 1, -1) if k == 1 else None
    sums = []
    for w, prefactor in weights:
        if w is None:
            terms = coeffs
        else:
            nums, den = w
            terms = [(cn * num, cd) for (cn, cd), num in zip(coeffs, nums)]
            prefactor = prefactor[0], prefactor[1] * den
        sums.append(_exact_sum(terms, prefactor, exponents))
    return sums


def _y_powers(y, n):
    """The weights w_j = y**j, j = 0..n, of an integer pair y = s/t, as
    ``_binomial_sum`` takes them: (s**j t**(n-j) for j = 0..n, t**n), or
    None for y = 1."""
    s, t = y
    if s == t:
        return None
    tpow, nums, sj = _powers(t, n), [], 1
    for j in range(n, -1, -1):
        nums.append(sj * tpow[j])
        sj *= s
    return nums, tpow[n]


def _binomial_value(n, m, q, y, k=1):
    """The raw value of ``_binomial_sum`` at a single y = s/t (weights
    y**j), prefactor (1+q)**k/(1-q)**n included."""
    (value,) = _binomial_sum(n, m, q, [(_y_powers(y, n), _binomial_prefactor(n, q, k))], k)
    return value


def _distribution_parts(m, r, d, x, groups):
    """One raw value per group of shifts, prefactor included:
    ((1+q)/(1+q**d)) [d]_q**m sum_{(i, c) in group} c (-1)**i q**(-m*i) E_m((x+i)/d)
    at q = r = a/b, with E_m at base Q = q**d and every shift 0 <= i < d:
    the distribution sum over a group of residue classes, each with its
    sign c.

    E_m((x+i)/d) at base Q is (1+Q)/(1-Q)**m sum_j c_j q**((x+i) j), with
    c_j the coefficients of ``_binomial_sum`` at base Q, so a group is one
    sum over j, of c_j times the weight

        W_j = sum_i c (-1)**i q**((x+i) j - m i) = q**(x j) sum_i c (-1)**i q**(-i e),

    e = m - j.  Over the group's largest shift I, q**(-i e) =
    (b**i a**(I-i))**e / a**(I e) and a**(-I e) = a**(I j) / a**(I m), so
    W_j = a**((x+I) j) V_e / b**(x j) / a**(I m) with the integers
    V_e = sum_i c (-1)**i (b**i a**(I-i))**e (``_power_sums``).  The d
    classes of a group thus make one sum of m+1 terms, not d sums, and
    all groups share one coefficient vector.  The 1/b**(x j) is
    b**(x e) / b**(x m): the weight's numerators take b**(x e), and its one
    denominator b**(x m) joins the prefactor, so each term is over the
    denominator of its coefficient alone.  The prefactor
    (1+q)/(1+q**d) [d]_q**m (1+Q)/(1-Q)**m is (1+q)/(1-q)**m, as
    [d]_q = (1-Q)/(1-q); with 1/a**(I m) it is each group's prefactor.
    """
    a, b = r.numerator, r.denominator
    apow, bpow = _powers(a, x + d), _powers(b, x + d)
    pn, pd = _binomial_prefactor(m, (a, b))
    bx = _powers(bpow[x], m)  # b**(x e)
    weights = []
    for group in groups:
        last = max(i for i, _ in group)  # I
        v = _power_sums([(-c if i % 2 else c, apow[last - i] * bpow[i]) for i, c in group], m)
        lead = _powers(apow[x + last], m)  # a**((x+I) j)
        nums = [lead[j] * v[m - j] * bx[m - j] for j in range(m + 1)]  # over b**(x m)
        weights.append(((nums, bx[m]), (pn, pd * apow[last] ** m)))
    return _binomial_sum(m, m, (apow[d], bpow[d]), weights)


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
    x = check_double(check_rational(x, "x"), "x")
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
    # the left side E_n(x) minus the distribution sum, one group of all d classes
    a, b = r.numerator, r.denominator
    lhs = _binomial_value(n, n, (a, b), (a**x, b**x))
    (rhs,) = _distribution_parts(n, r, d, x, [[(i, 1) for i in range(d)]])
    return _fraction(_exact_sum([lhs, _negated(rhs)]))


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
        raise DomainError(f"r must be a positive rational != 1, got {_shown(r, str)}")
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
