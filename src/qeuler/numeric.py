"""Scalar kernel: q-brackets, binomial coefficients, p-adic valuations.

Everything here is a pure function over plain numbers.  Exact inputs
(``int``, ``Fraction``) give exact outputs; ``float``/``complex`` inputs
stay floating.  The type of the argument selects the path -- exact and
floating arithmetic are never mixed silently.

The exact sums of the package run on the private helpers here:
``_exact_sum`` adds integer pairs (num, den) by a balanced tree,
``_tree``, that multiplies denominators without a gcd while they are
small and reduces as Fractions above ``_MERGE_BITS``.  The producers
build their terms in ``_factor_order`` of the exponent e of their
denominators a**e + b**e, so that the tree merges the denominators that
share cyclotomic factors first, and weigh several residue classes into
one term by ``_power_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, check_finite, check_instance, check_int, check_rational

__all__ = [
    "q_bracket",
    "q_bracket_signed",
    "binom",
    "gen_binom",
    "p_valuation",
    "is_prime",
    "PAdicQParam",
]


def q_bracket(x, q):
    """The q-number [x]_q = (1 - q**x) / (1 - q), with [x]_1 = x.

    ``q`` must be positive.  For exact ``q`` (int or Fraction) the
    exponent ``x`` must be an integer: the bracket of x = a/d is exact at
    base q = r**d, as (1 - r**a) / (1 - r**d).
    """
    check_finite(x, "x")
    check_finite(q, "q", positive=True)
    if q == 1:
        return x  # limit value: lim_{q->1} [x]_q = x
    if isinstance(x, float) or isinstance(q, float):
        return (1.0 - q**x) / (1.0 - q)
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise DomainError(
                f"exact q_bracket needs an integer exponent, got x={x}; "
                "for x = a/d write q = r**d and use (1 - r**a) / (1 - r**d)"
            )
        x = int(x)
    return (1 - Fraction(q) ** x) / (1 - Fraction(q))


def q_bracket_signed(x, q):
    """The signed q-number [x]_{-q} = (1 - (-q)**x) / (1 + q).

    ``x`` must be a nonnegative integer and ``q`` positive.  This is the
    normalizing denominator of the alternating stage sums; for odd ``x``
    it equals (1 + q**x)/(1 + q).
    """
    check_int(x, "x", 0)
    check_finite(q, "q", positive=True)
    if isinstance(q, float):
        return (1.0 - (-q) ** x) / (1.0 + q)
    q = Fraction(q)
    return (1 - (-q) ** x) / (1 + q)


def binom(m, i):
    """Binomial coefficient C(m, i) for integers m >= 0 and i; zero for i out of range."""
    check_int(m, "m", 0)
    check_instance(i, "i", int)
    return math.comb(m, i) if 0 <= i <= m else 0


def gen_binom(s, j):
    """Generalized binomial coefficient C(s + j - 1, j) = prod_{i=1}^{j} (s + i - 1)/i.

    These are the coefficients of (1 - z)**(-s).  Exact (Fraction) for
    int/Fraction ``s``; float for float ``s``; complex for complex ``s``.
    At s = -m with integer m >= 0 this equals (-1)**j * C(m, j), and in
    particular vanishes for all j > m.
    """
    check_int(j, "j", 0)
    if isinstance(s, int):
        if s > 0:
            return Fraction(math.comb(s + j - 1, j))
        return Fraction((-1) ** j * math.comb(-s, j))
    if isinstance(s, Fraction):
        # s = n/d: the product is prod_i (n + (i-1) d) / (d**j j!), reduced once.
        n, d = s.numerator, s.denominator
        return Fraction(math.prod(range(n, n + j * d, d)), d**j * math.factorial(j))
    check_finite(s, "s")
    out = complex(1) if isinstance(s, complex) else 1.0
    for i in range(1, j + 1):
        out *= (s + i - 1) / i
    return out


# The largest denominator, in bits, that a sum of integer pairs may build
# without a gcd; above it the operands become Fractions.
_MERGE_BITS = 4096


def _exact_sum(values, prefactor=(1, 1)):
    """prefactor * (sum of raw values) as a raw value: an unreduced
    integer pair, or a reduced Fraction once the sum passes ``_MERGE_BITS``.

    A raw value is an integer pair (num, den) or a reduced Fraction; the
    denominators are nonzero integers, and so is the prefactor's.
    ``_tree`` merges the terms level by level, as integers while two
    pairs' denominators together stay within the bound, so a sum of pairs
    whose denominators total at most ``_MERGE_BITS`` bits comes back as
    one unreduced pair, with no gcd.  A Fraction term stays a Fraction,
    so a value already reduced is never reduced again.  The prefactor pair
    multiplies a pair as integers: the one gcd is paid by the caller's
    Fraction (``_fraction``), or the raw value joins a larger sum as one
    of its terms.  A Fraction result takes the prefactor as a small
    Fraction, with gcds against the prefactor's own size only.
    """
    xs = list(values)
    value = _tree(xs) if xs else (0, 1)
    if type(value) is tuple:
        return prefactor[0] * value[0], prefactor[1] * value[1]
    return value if prefactor == (1, 1) else value * Fraction(*prefactor)


def _tree(xs):
    """The sum of a nonempty list of raw values by binary splitting: two
    neighbouring pairs whose denominators together stay within
    ``_MERGE_BITS`` merge as integers, the others as Fractions; a pair or
    a Fraction."""
    while len(xs) > 1:
        merged = []
        for i in range(1, len(xs), 2):
            x, y = xs[i - 1], xs[i]
            if (type(x) is tuple and type(y) is tuple
                    and x[1].bit_length() + y[1].bit_length() <= _MERGE_BITS):
                merged.append((x[0] * y[1] + y[0] * x[1], x[1] * y[1]))
            else:
                merged.append(_fraction(x) + _fraction(y))
        if len(xs) % 2:
            merged.append(xs[-1])
        xs = merged
    return xs[0]


def _fraction(x):
    """The reduced Fraction of a raw value (a pair or a Fraction)."""
    return Fraction(*x) if type(x) is tuple else x


def _pair(x):
    """An integer pair (num, den) of a raw value, to take its integers apart."""
    return x if type(x) is tuple else (x.numerator, x.denominator)


def _negated(x):
    """The raw value -x, with no gcd."""
    return (-x[0], x[1]) if type(x) is tuple else -x


def _float(x):
    """A raw value rounded once: an integer true division over a positive
    denominator, as ``float`` of the reduced Fraction is, with no gcd."""
    if type(x) is not tuple:
        return float(x)
    num, den = x
    return num / den if den > 0 else -num / -den


def _powers(x, n):
    """[x**0, x**1, ..., x**n] for an integer x, by repeated multiplication."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _power_sums(zs, n):
    """[sum of c * z**e over (c, z) in zs, for e = 0..n], integers c and z:
    the weight at exponent e of a sum whose classes add c * z**e each."""
    out = [0] * (n + 1)
    for c, z in zs:
        term = c  # c * z**e
        for e in range(n + 1):
            out[e] += term
            term *= z
    return out


@lru_cache(maxsize=None)
def _factor_order(n):
    """The exponents 0..n in the order in which an exact sum adds the terms
    over a**e + b**e (q = a/b), as a tuple cached per n.

    a**e + b**e is the product of the cyclotomic values Phi_d(a, b) over the
    d | 2e that do not divide e.  Two of them share a factor only when their
    exponents have the same 2-adic valuation v: then they share
    Phi_(2**(v+1) t)(a, b) for each odd t dividing both exponents.  So the
    exponents are sorted by (v, their odd prime factors largest first, e),
    with e = 0 (the denominator 2) last, and ``_tree`` merges neighbours
    whose denominators share factors near its leaves: each Fraction it
    reduces cancels them, and the denominators grow toward their lcm, not
    their product.  An exact sum does not depend on the order.
    """
    return tuple(sorted(range(n + 1), key=_factor_key))


def _factor_key(e):
    """The sort key of e in ``_factor_order``."""
    if not e:
        return (math.inf,)
    v = (e & -e).bit_length() - 1
    return v, tuple(p for p, _ in reversed(_factorize(e >> v))), e


def _factorize(n):
    """Prime-power factorization of n >= 1: (p, e) pairs, ascending primes."""
    out = []
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n):
    """Trial-division primality test for small integers."""
    if not isinstance(n, int) or n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _int_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_valuation(r, p):
    """The p-adic valuation of a rational r; +infinity for r = 0.

    ``p`` must be prime.  For r = a/b in lowest terms the result is
    v_p(a) - v_p(b), so it is negative when p divides the denominator.
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p!r}")
    r = check_rational(r, "r")
    if r == 0:
        return math.inf
    return _int_valuation(abs(r.numerator), p) - _int_valuation(r.denominator, p)


@dataclass(frozen=True)
class PAdicQParam:
    """An odd prime p together with a rational q that is a p-adic unit
    congruent to 1 mod p (v_p(q) = 0 and v_p(q - 1) >= 1).

    This is the parameter region where the alternating stage sums of
    :mod:`qeuler.fermionic` converge p-adically.
    """

    p: int
    q: Fraction

    def __post_init__(self):
        check_int(self.p, "p", 3, odd=True)  # and prime, which p_valuation checks
        q = check_rational(self.q, "q")
        object.__setattr__(self, "q", q)
        # v_p(q - 1) >= 1 makes q = 1 (mod p) a p-adic unit
        if p_valuation(q - 1, self.p) < 1 or q <= 0:
            raise DomainError(f"q must be positive with v_{self.p}(q - 1) >= 1, got q = {q}")
