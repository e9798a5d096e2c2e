"""Test oracle: the closed forms of ``qeuler.euler_numbers`` and
``qeuler.characters.generalized_qeuler`` written term by term over Fraction.

This is the per-term formula the library used before it built its terms
from integers and shared one coefficient vector across the residue
classes of a call: every term is C(n,j) (-1)**j y**j / (1 + q**(j-m)) in
Fraction arithmetic, and every residue class is its own sum.  It imports
nothing from the library (a character is passed in), so the differential
tests compare the library with an independent evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binomial_sum(n, m, q, y):
    """(1+q)/(1-q)**n * sum_{j=0}^{n} C(n,j) (-1)**j y**j / (1 + q**(j-m))."""
    q, y = Fraction(q), Fraction(y)
    total = Fraction(0)
    for j in range(n + 1):
        term = math.comb(n, j) * y**j / (1 + q ** (j - m))
        total += -term if j % 2 else term
    return (1 + q) / (1 - q) ** n * total


def qeuler_higher(m, k, q):
    """Order-k number E_m^(k)(q), exact for a rational q."""
    q = Fraction(q)
    total = Fraction(0)
    for i in range(m + 1):
        prod = Fraction(1)
        for j in range(k):
            prod /= 1 + q ** (i - m - j)
        term = math.comb(m, i) * prod
        total += -term if i % 2 else term
    return (1 + q) ** k / (1 - q) ** m * total


def qeuler_poly_exact(m, r, d, a):
    """E_m(a/d) at base q = r**d."""
    r = Fraction(r)
    return binomial_sum(m, m, r**d, r**a)


def qeuler_mixed(kdeg, m, q):
    """Two-index number E_{kdeg,m}(q), exact for a rational q."""
    return binomial_sum(kdeg, m, q, 1)


def q_bracket(n, r):
    return (1 - r**n) / (1 - r)


def distribution_residual(n, d, x, r):
    """E_n(x) at base r minus the distribution sum over the d classes."""
    r = Fraction(r)
    lhs = qeuler_poly_exact(n, r, 1, x)
    rhs = Fraction(0)
    for i in range(d):
        term = r ** (-n * i) * qeuler_poly_exact(n, r, d, x + i)
        rhs += -term if i % 2 else term
    return lhs - (1 + r) / (1 + r**d) * q_bracket(d, r) ** n * rhs


def generalized_qeuler_real(m, chi, r):
    """E_{m,chi}(r) for a real-valued character chi, as a Fraction."""
    r = Fraction(r)
    d = chi.modulus
    total = Fraction(0)
    for i in range(d):
        v = chi(i)
        if v == 0:
            continue
        term = v.as_rational() * r ** (-m * i) * qeuler_poly_exact(m, r, d, i)
        total += -term if i % 2 else term
    return (1 + r) / (1 + r**d) * q_bracket(d, r) ** m * total
