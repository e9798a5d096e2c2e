"""Scalar kernel: q-brackets, binomial coefficients, p-adic valuations.

Everything here is a pure function over plain numbers.  Exact inputs
(``int``, ``Fraction``) give exact outputs; ``float``/``complex`` inputs
stay floating.  The type of the argument selects the path -- exact and
floating arithmetic are never mixed silently.

The exact sums of the package run on the private helpers here:
``_exact_sum`` adds integer pairs (num, den) by a balanced tree,
``_tree``, that multiplies denominators without a gcd while they are
small and reduces as Fractions above ``_MERGE_BITS``.  The producers
weigh several residue classes into one term by ``_power_sums``, and
``_exact_sum`` alone decides the order in which the terms add.

The closed forms are sums whose terms are each over one a**|e| + b**|e|
(q = a/b, coprime), e running over a range; a producer gives that range
with its terms, in the order it built them.  a**e + b**e is the product
of the cyclotomic values Phi_d(a, b) over the d | 2e that do not divide
e, so two of these denominators share a factor only when their
exponents have the same 2-adic valuation v: then they share
Phi_(2**(v+1) t)(a, b) for each odd t dividing both.  The lemma: no odd
prime divides both a**e + b**e and a**f + b**f when v2(e) != v2(f).  An
odd prime p of a**e + b**e divides neither a nor b, and r = a/b (mod p)
has r**e = -1 != 1, so the order of r divides 2e but not e: its 2-adic
valuation is v2(e) + 1, and a common p would make it v2(f) + 1 too.
And a**0 + b**0 = 2.

The gate: a**|e| + b**|e| grows with |e|, which peaks at an end of the
range, so a sum whose count of terms times the bits of its larger end
denominator stays within ``_MERGE_BITS`` is one unreduced pair, a test
in O(1) that keeps the many small sums of the package off the ordered
path; so is one whose denominators total within the bound.  Within the
bound every merge is an integer merge, and the order of the terms does
not change the pair.  Past it ``_sum_order`` sorts the terms by the key
(v2(e), the odd prime factors of e largest first, e) of |e|, with e = 0
(the denominator 2) last and e, -e in the given order, so that ``_tree``
merges the neighbours whose denominators share factors near its leaves:
each Fraction it reduces cancels them, and the denominators grow toward
their lcm, not their product (at (m, q) = (148, 9999/10000) the
Fractions of ``qeuler_higher``'s sum carry 763,768 denominator bits in
all, against 919,249 in the order of j).  Each 2-adic class, a run of
that order, adds on its own tree, and the classes' reduced Fractions
join smallest first with no gcd of two denominators: their gcd is the
power of 2 read from trailing zeros (``_coprime_add``), and the sum is
built as a Fraction already in lowest terms (``_reduced``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (DomainError, _shown, check_double, check_finite, check_instance, check_int,
                     check_rational)

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
    base q = r**d, as (1 - r**a) / (1 - r**d).  A float or complex ``x``,
    or a float ``q``, takes the floating path, where an exact argument
    beyond the double range is a DomainError and a power q**x beyond it
    an OverflowError.
    """
    check_finite(x, "x")
    check_finite(q, "q", positive=True)
    if q == 1:
        return x  # limit value: lim_{q->1} [x]_q = x
    if isinstance(x, (float, complex)) or isinstance(q, float):
        x = check_double(x, "x", complex if isinstance(x, complex) else float)
        q = check_double(q, "q")
        try:
            power = q**x
        except OverflowError:
            raise OverflowError(f"q**x exceeds the double range at q = {q}, x = {x}") from None
        return (1.0 - power) / (1.0 - q)
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise DomainError(
                f"exact q_bracket needs an integer exponent, got x={_shown(x, str)}; "
                "for x = a/d write q = r**d and use (1 - r**a) / (1 - r**d)"
            )
        x = int(x)
    return (1 - Fraction(q) ** x) / (1 - Fraction(q))


def q_bracket_signed(x, q):
    """The signed q-number [x]_{-q} = (1 - (-q)**x) / (1 + q).

    ``x`` must be a nonnegative integer and ``q`` positive.  This is the
    normalizing denominator of the alternating stage sums; for odd ``x``
    it equals (1 + q**x)/(1 + q).  For a float ``q`` the sign of (-q)**x
    is read from the parity of the int ``x``, which a float exponent loses
    past 2**53; a power beyond the double range is an OverflowError.
    """
    check_int(x, "x", 0)
    check_finite(q, "q", positive=True)
    if isinstance(q, float):
        try:
            power = q**x
        except OverflowError:  # q**x too large, or x too large for a float
            if q > 1:
                raise OverflowError(f"q**x exceeds the double range at q = {q}, "
                                    f"x = {_shown(x, str)}") from None
            power = 1.0 if q == 1 else 0.0  # q < 1: q**x underflows
        return (1.0 + power if x % 2 else 1.0 - power) / (1.0 + q)
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
    int/Fraction ``s``; float for float ``s``; complex for complex ``s``,
    where a coefficient beyond the double range raises OverflowError.
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
    if not cmath.isfinite(out):
        raise OverflowError(f"C(s+j-1, j) exceeds the double range at s = {s}, j = {j}")
    return out


# The largest denominator, in bits, that a sum of integer pairs may build
# without a gcd; above it the operands become Fractions.
_MERGE_BITS = 4096


def _exact_sum(values, prefactor=(1, 1), exponents=None):
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

    ``exponents``, where given, is the range of the exponents e of the
    values' denominators a**|e| + b**|e|, one per value and in the order
    of the values, all integer pairs over the same coprime a, b > 0.  A
    sum past the gate of the module docstring then adds in
    ``_sum_order``: each 2-adic class on its own tree, reduced to a
    Fraction (a small pair pays its own small gcd), and the classes
    joined smallest first by ``_coprime_add``.
    """
    xs = list(values)
    if (exponents and len(xs) * max(xs[0][1], xs[-1][1]).bit_length() > _MERGE_BITS
            and sum(x[1].bit_length() for x in xs) > _MERGE_BITS):
        order, runs = _sum_order(exponents)
        parts, i = [], 0
        for n in runs:
            parts.append(_fraction(_tree([xs[j] for j in order[i:i + n]])))
            i += n
        parts.sort(key=lambda x: x.denominator.bit_length())
        value = parts[0]
        for x in parts[1:]:
            value = _coprime_add(value, x)
    else:
        value = _tree(xs) if xs else (0, 1)
    if type(value) is tuple:
        return prefactor[0] * value[0], prefactor[1] * value[1]
    return value if prefactor == (1, 1) else value * Fraction(*prefactor)


def _coprime_add(x, y):
    """x + y for two reduced Fractions whose denominators share no odd
    prime, as ``Fraction`` adds them, but with both of its gcds read from
    trailing zeros: gcd(da, db) is 2**min(v2(da), v2(db)), and the gcd of
    the cross sum with it a power of 2 too.  The sum is reduced, built by
    ``_reduced``."""
    na, da = x.numerator, x.denominator
    nb, db = y.numerator, y.denominator
    k = min(_v2(da), _v2(db))
    s = da >> k
    t = na * (db >> k) + nb * s
    if not t:
        return _reduced(0, 1)
    k = min(_v2(t), k)
    return _reduced(t >> k, s * (db >> k))


if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
    _reduced = Fraction._from_coprime_ints
else:
    def _reduced(num, den):
        """The Fraction num/den of integers in lowest terms, den > 0, with no gcd."""
        return Fraction(num, den, _normalize=False)


def _v2(n):
    """The 2-adic valuation of a nonzero integer n (of either sign)."""
    return (n & -n).bit_length() - 1


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
def _sum_order(exponents):
    """(order, runs) of the terms over a**|e| + b**|e|, e in the range
    ``exponents``, as ``_exact_sum`` adds them past its gate, cached per
    range: the term indices sorted by ``_factor_key`` of |e| (a tie, e and
    -e, in the given order), and the lengths of the runs of that order
    that share v2(|e|), e = 0 a run of its own."""
    keys = sorted((_factor_key(abs(e)), i) for i, e in enumerate(exponents))
    runs = tuple(len(list(run)) for _, run in itertools.groupby(key[0] for key, _ in keys))
    return tuple(i for _, i in keys), runs


def _factor_key(e):
    """The sort key of an exponent e >= 0 in ``_sum_order``: its 2-adic
    class first, e = 0 last."""
    if not e:
        return (math.inf,)
    v = _v2(e)
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
        raise DomainError(f"p must be prime, got {_shown(p)}")
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
            raise DomainError(f"q must be positive with v_{_shown(self.p, str)}(q - 1) >= 1, "
                              f"got q = {_shown(q, str)}")
