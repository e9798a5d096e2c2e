"""Exception types shared across the package, and the domain checks.

Each domain rule of the package is written once here, beside the
:class:`DomainError` it raises: an integer in a range, an instance of a
class, a finite float or complex number, a rational (in (0, 1) for an
exact base), the float base of the series routes and the base of a
closed form.  A check takes the argument and its name, raises
DomainError naming both when the argument lies outside the rule, and
otherwise returns the argument, as a Fraction for a rational and a
float for a series base, so every call site is one line.  A NaN or an infinity lies
outside every rule, so a non-finite argument is always a DomainError,
never a NaN result or a bare ValueError from the arithmetic; so is
text or any other type where a number is due, never a bare TypeError.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

__all__ = [
    "DomainError",
    "ResourceLimitError",
    "NonConvergenceError",
    "NearSingularError",
]


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class ResourceLimitError(RuntimeError):
    """A finite stage's estimated value size exceeds ``MAX_RESULT_BITS``."""


class NonConvergenceError(RuntimeError):
    """A series failed to meet its stopping rule within ``max_terms``.

    The partial evaluation accumulated so far is available as ``partial``
    (a :class:`qeuler.zeta.SeriesValue`).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class NearSingularError(ArithmeticError):
    """A series denominator ``1 + q**(s + j)`` came within 1e-12 of zero.

    ``term_index`` is the index j of the offending term.
    """

    def __init__(self, message: str, term_index: int):
        super().__init__(message)
        self.term_index = term_index


def check_int(value, name, low, high=math.inf, odd=False):
    """``value``, an int in [low, high], and odd where asked."""
    if not isinstance(value, int) or not low <= value <= high or odd and value % 2 == 0:
        raise DomainError(f"{name} must be an{' odd' * odd} integer in [{low}, {high}], "
                          f"got {value!r}")
    return value


def check_instance(value, name, cls):
    """``value``, an instance of ``cls``."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be {cls.__name__}, got {value!r}")
    return value


def check_finite(value, name, positive=False):
    """``value``, a finite int, Fraction, float or complex; real and > 0 where asked."""
    if (not isinstance(value, (int, Fraction, float, complex))
            or isinstance(value, (float, complex)) and not cmath.isfinite(value)
            or positive and (isinstance(value, complex) or not value > 0)):
        raise DomainError(f"{name} must be a finite{' positive' * positive} number, got {value!r}")
    return value


def check_rational(value, name, unit=False):
    """``Fraction(value)``, a float taken exactly; in (0, 1) where ``unit`` asks."""
    try:
        r = Fraction(value)
    except (ValueError, OverflowError):  # a NaN or an infinity, or unparsable text
        raise DomainError(f"{name} must be a finite rational, got {value!r}") from None
    if unit and not 0 < r < 1:
        raise DomainError(f"{name} must be a rational in (0, 1), got {r}")
    return r


def check_base(q, name):
    """``float(q)``, a float base in (0, 1) for the series routes."""
    q = float(q)
    if not 0 < q < 1:
        raise DomainError(f"{name} must lie in (0, 1), got {q}")
    return q


def check_closed_form_base(q, name, unit=False):
    """(``Fraction(q)``, whether to round the result to a float) for the base
    of a closed form: an int, a Fraction or a finite float, > 0 and != 1,
    in (0, 1) where ``unit`` asks.  A float q is taken exactly."""
    # text and other types that Fraction() would take are outside the rule
    r = check_rational(q, name, unit) if isinstance(q, (int, Fraction, float)) else 0
    if r <= 0 or r == 1:
        raise DomainError(f"{name} must be a rational or a float, > 0 and != 1, got {q!r}")
    return r, isinstance(q, float)
