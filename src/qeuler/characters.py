"""Dirichlet characters on odd moduli, with exact root-of-unity values.

For odd d the unit group (Z/dZ)* splits as a product of cyclic groups,
one per odd prime-power factor p**e, each generated by a primitive root.
A character is therefore determined by one exponent t_i per factor:
writing n = g_i**a_i locally, chi(n) = prod_i zeta_{phi_i}**(t_i * a_i).
Discrete-log tables are built once per modulus and shared by all of its
characters.

A character evaluates to an integer exponent k over L, the lcm of the
factor orders: chi(n) = e**(2*pi*i*k/L), or no exponent off the units.
L depends on the modulus alone, so the per-modulus tables also hold the
L complex roots, each equal to RootOfUnity(k, L).to_complex().  Every
series route reads chi off the character's one class table, (a, k, chi(a))
for the units a in order with chi(a) that root, built on first use; none
calls the character or builds a RootOfUnity.
Calling a character wraps k in a :class:`RootOfUnity` -- the exact
exponent k/n of e**(2*pi*i*k/n), kept reduced -- or gives the integer
0 on non-units.  A sum of roots is tested for exact vanishing on its
exponents: ``_exponent_sum_is_zero(ks, L)`` collects sum_k zeta_L**k as
an integer polynomial and reduces it modulo the L-th cyclotomic
polynomial, so the orthogonality relations hold exactly, not just to
floating tolerance.  ``qeuler verify`` decides them on exponents alone
(chi(ab) = chi(a) chi(b) is k(ab) = k(a) + k(b) mod L); the public
:func:`root_sum_is_zero` is a wrapper that maps RootOfUnity values onto
the same test.

``generalized_qeuler`` builds the chi-twisted q-Euler numbers from the
distribution sum of :mod:`qeuler.euler_numbers`, all residue classes
from one shared coefficient vector.  ``_class_groups`` reads a class
table alone, as every exact route does, and says which classes share one
exact sum: for a table of real chi(a) all of them, each with its sign
chi(a), so the result is one Fraction of one sum; for a complex table one
sum per class, and the result is a complex number assembled from those
exact rational prestages, each weighed by its chi(a) (``_chi_combination``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, _shown, check_instance, check_int, check_rational
from .euler_numbers import _distribution_parts
from .numeric import _factorize, _float, _fraction

__all__ = [
    "RootOfUnity",
    "DirichletCharacter",
    "characters_mod",
    "conductor",
    "is_primitive",
    "root_sum_is_zero",
    "generalized_qeuler",
]


@dataclass(frozen=True)
class RootOfUnity:
    """The root of unity e**(2*pi*i*numerator/order), exponent kept reduced.

    Multiplication, powers, and conjugation act on the exponent exactly;
    the value is rational precisely when order <= 2 (then it is +1 or -1,
    available via :meth:`as_rational`).
    """

    numerator: int
    order: int

    def __post_init__(self):
        check_instance(self.numerator, "numerator", int)
        check_int(self.order, "order", 1)
        k = self.numerator % self.order
        g = math.gcd(k, self.order)
        object.__setattr__(self, "numerator", k // g)
        object.__setattr__(self, "order", self.order // g)

    @classmethod
    def from_exponent(cls, e):
        """Root with exponent e (a Fraction, taken mod 1)."""
        e = check_rational(e, "e")
        return cls(e.numerator, e.denominator)

    @property
    def exponent(self):
        return Fraction(self.numerator, self.order)

    def __mul__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return RootOfUnity(
            self.numerator * other.order + other.numerator * self.order,
            self.order * other.order,
        )

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return RootOfUnity(e * self.numerator, self.order)

    def conjugate(self):
        return RootOfUnity(-self.numerator, self.order)

    def is_one(self):
        return self.order == 1

    def as_rational(self):
        """Exact value as a Fraction when the root is +-1, else None."""
        if self.order == 1:
            return Fraction(1)
        if self.order == 2:
            return Fraction(-1)
        return None

    def to_complex(self):
        return _root(self.numerator, self.order)


def _root(k, n):
    """e**(2*pi*i*k/n) for a reduced exponent 0 <= k < n: +-1 and +-i exactly."""
    if n == 1:
        return complex(1)
    if n == 2:
        return complex(-1)
    if n == 4:
        return 1j if k == 1 else -1j
    return cmath.exp(2j * cmath.pi * k / n)


# ---------------------------------------------------------------------------
# Exact vanishing test for sums of roots of unity.


@lru_cache(maxsize=None)
def _cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial (index = degree)."""
    poly = [-1] + [0] * (n - 1) + [1]  # x**n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydivmod(poly, list(_cyclotomic(d)))[0]
    return tuple(poly)


def _polydivmod(num, den):
    """Long division of integer polynomials; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dc in enumerate(den):
            num[i - dd + j] -= c * dc
    return quot, num[:dd] if dd else []


def _exponent_sum_is_zero(exponents, order):
    """Exact test of sum_k e**(2*pi*i*k/order) == 0 over integer exponents k;
    None marks a zero term (a character off the units).

    The sum is collected as an integer polynomial in zeta_order and
    reduced modulo the order-th cyclotomic polynomial; it vanishes iff
    the remainder is identically zero.
    """
    coeffs = [0] * order
    for k in exponents:
        if k is not None:
            coeffs[k % order] += 1
    _, rem = _polydivmod(coeffs, _cyclotomic(order))
    return not any(rem)


def root_sum_is_zero(values):
    """Exact test of sum(values) == 0 for roots of unity (and literal zeros).

    Each root is put over N, the lcm of the orders, and the exponents go
    to ``_exponent_sum_is_zero``.
    """
    roots = [check_instance(v, "each nonzero value", RootOfUnity) for v in values if v != 0]
    N = math.lcm(*(r.order for r in roots))
    return _exponent_sum_is_zero([r.numerator * (N // r.order) for r in roots], N)


# ---------------------------------------------------------------------------
# Unit-group structure of an odd modulus.


def _primitive_root(p, e):
    """A generator of (Z/p**e)* for odd prime p."""
    pf = [f for f, _ in _factorize(p - 1)]
    g = next(
        g
        for g in range(2, p)
        if all(pow(g, (p - 1) // f, p) != 1 for f in pf)
    )
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p  # the lift of g that stays primitive mod p**e
    return g


@dataclass(frozen=True, eq=False)
class _CyclicFactor:
    prime: int
    modulus: int  # a power of prime
    order: int  # phi(modulus)
    dlog: dict  # residue -> discrete log base a primitive root


@lru_cache(maxsize=None)
def _unit_group(d):
    """(cyclic factors, roots) of (Z/dZ)*: the factors with their discrete-log
    tables, and the L complex roots RootOfUnity(k, L).to_complex(), k < L,
    with L the lcm of the factor orders."""
    check_int(d, "modulus", 1, odd=True)
    factors = []
    for p, e in _factorize(d):
        pe = p**e
        phi = pe // p * (p - 1)
        g = _primitive_root(p, e)
        dlog = {}
        x = 1
        for a in range(phi):
            dlog[x] = a
            x = x * g % pe
        factors.append(_CyclicFactor(p, pe, phi, dlog))
    L = math.lcm(*(f.order for f in factors))
    # reducing k/L first is what makes the roots +-1 and +-i exact
    roots = []
    for k in range(L):
        g = math.gcd(k, L)
        roots.append(_root(k // g, L // g))
    return tuple(factors), tuple(roots)


class DirichletCharacter:
    """A Dirichlet character mod odd d, given by one exponent per factor.

    ``exponents[i]`` is t_i in chi(g_i) = zeta_{phi_i}**t_i for the i-th
    prime-power factor (factors in ascending order).  The all-zero tuple
    is the principal character.  Calling the character returns a
    :class:`RootOfUnity`, or the integer 0 on arguments sharing a factor
    with d.  With L the lcm of the factor orders, chi(n) has the integer
    exponent sum_i t_i * dlog_i(n) * (L / phi_i) over L (``_exponent``),
    and ``_roots[k]`` is its complex value; ``_unit_table`` lists
    (a, k, chi(a)) for the units 1 <= a <= d.
    """

    __slots__ = ("modulus", "exponents", "_factors", "_lcm", "_roots", "_terms", "_units")

    def __init__(self, modulus, exponents=None):
        factors, roots = _unit_group(modulus)
        exponents = (0,) * len(factors) if exponents is None else tuple(exponents)
        if len(exponents) != len(factors):
            raise DomainError(f"modulus {modulus} takes one exponent for each of its cyclic "
                              f"factors {[f.order for f in factors]}, got {_shown(exponents, str)}")
        for t, f in zip(exponents, factors):
            check_int(t, "exponent", 0, f.order - 1)
        self.modulus = modulus
        self.exponents = exponents
        self._factors = factors
        self._lcm = len(roots)
        self._roots = roots
        # (prime power, dlog table, t * L / phi) for the factors with t != 0
        self._terms = tuple(
            (f.modulus, f.dlog, t * (self._lcm // f.order))
            for f, t in zip(factors, exponents)
            if t
        )
        self._units = None  # the (a, k, chi(a)) table, built by _unit_table

    @property
    def order(self):
        """Multiplicative order of the character."""
        o = 1
        for f, t in zip(self._factors, self.exponents):
            o = math.lcm(o, f.order // math.gcd(f.order, t))
        return o

    @property
    def is_principal(self):
        return all(t == 0 for t in self.exponents)

    @property
    def index(self):
        """Position of this character in ``characters_mod(modulus)``."""
        i = 0
        for f, t in zip(self._factors, self.exponents):
            i = i * f.order + t
        return i

    def _exponent(self, n):
        """k in [0, L) with chi(n) = e**(2*pi*i*k/L) for an int n; None off the units."""
        n %= self.modulus
        if math.gcd(n, self.modulus) != 1:
            return None
        e = 0
        for pe, dlog, w in self._terms:
            e += w * dlog[n % pe]
        return e % self._lcm

    def _unit_table(self):
        """((a, k, chi(a)), ...) for the units 1 <= a <= d in order, chi(a) = _roots[k]."""
        if self._units is None:
            self._units = tuple((a, k, self._roots[k]) for a in range(1, self.modulus + 1)
                                if (k := self._exponent(a)) is not None)
        return self._units

    def __call__(self, n):
        k = self._exponent(check_instance(n, "n", int))
        return 0 if k is None else RootOfUnity(k, self._lcm)

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter(modulus={self.modulus}, index={self.index})"


def characters_mod(d):
    """All phi(d) characters mod odd d, ordered lexicographically by
    exponent tuple (the principal character comes first)."""
    factors, _ = _unit_group(d)
    return [
        DirichletCharacter(d, exps)
        for exps in itertools.product(*(range(f.order) for f in factors))
    ]


def conductor(chi):
    """Smallest modulus chi factors through (product of local conductors)."""
    check_instance(chi, "chi", DirichletCharacter)
    f = 1
    for fac, t in zip(chi._factors, chi.exponents):
        if t == 0:
            continue
        local_order = fac.order // math.gcd(fac.order, t)
        v = dict(_factorize(local_order)).get(fac.prime, 0)
        f *= fac.prime ** (1 + v)
    return f


def is_primitive(chi):
    return conductor(chi) == chi.modulus


def generalized_qeuler(m, chi, r):
    """m-th chi-twisted q-Euler number at base q = r, exact where possible.

    E_{m,chi}(q) = ((1+q)/(1+q**d)) [d]_q**m
                   sum_{i=0}^{d-1} chi(i) (-1)**i q**(-m*i) E_m(i/d at base q**d)

    with d the modulus of chi.  Real-valued chi (order <= 2) gives an
    exact Fraction; otherwise each rational prestage is computed exactly
    and only the final chi-weighted combination is floating complex.
    """
    check_int(m, "m", 0)
    check_instance(chi, "chi", DirichletCharacter)
    r = check_rational(r, "r", unit=True)
    d = chi.modulus
    groups = _class_groups(chi._unit_table())
    # i = a mod d: the one unit a = 1 of d = 1 is the residue 0
    parts = _distribution_parts(m, r, d, 0,
                                [[(a % d, c) for a, c in group] for _, _, group in groups])
    return _chi_combination([(w, part) for (_, w, _), part in zip(groups, parts)])


def _class_groups(classes):
    """The classes (a, k, chi(a)) of a class table as groups (k, w, [(a, c), ...]),
    each group one exact sum in which class a has the sign c, weighed by w.

    A table whose chi(a) are all None (weight 1) or exactly +-1 (a real chi:
    ``_unit_group`` reduces k/L before it takes the root, so chi(a) = -1
    exactly where k != 0) is one group, with c = chi(a), k = 0 and w = None,
    so the value is one sum.  A complex table has one group per class, with
    c = 1, the class's exponent k and its weight w = chi(a).
    """
    if all(w in (None, 1, -1) for _, _, w in classes):
        return [(0, None, [(a, -1 if k else 1) for a, k, _ in classes])]
    return [(k, w, [(a, 1)]) for a, k, w in classes]


def _chi_combination(sums):
    """The value of the sums (w, v) of the ``_class_groups`` groups, each v
    a raw value with its prefactor in (an unreduced integer pair or a
    reduced Fraction).

    The one group of weight None is the value: a Fraction, its one gcd.
    Otherwise each cofactor v is rounded once (an integer true division,
    as ``float`` of the reduced Fraction is), multiplied by its weight
    w = chi(a) and added in order in complex floating point.
    """
    if sums[0][0] is None:
        ((_, value),) = sums
        return _fraction(value)
    return sum((w * _float(v) for w, v in sums), complex(0))
