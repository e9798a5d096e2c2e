"""Exception types shared across the package, and the domain checks.

Each domain rule of the package is written once here, beside the
:class:`DomainError` it raises: an integer in a range, an instance of a
class, a finite float or complex number, a rational (in (0, 1) for an
exact base), the float base of the series routes and the base of a
closed form.  A check takes the argument and its name, raises
DomainError naming both when the argument lies outside the rule, and
otherwise returns the argument, as a Fraction for a rational and a
float for a series base (``check_double`` for a float or complex
argument), so every call site is one line.  A NaN or an
infinity lies outside every rule, so a non-finite argument is always a
DomainError, never a NaN result or a bare ValueError from the
arithmetic.  Every check of a number applies one type test
(``_number``) before it compares or converts: an int, a Fraction or a
float (or a complex where the rule allows one) is a number, and text,
None or any other type is a DomainError, never a bare TypeError and
never parsed.  Every message shows its argument through ``_shown``, which
does not fail on an int too long for a decimal string (past
``sys.get_int_max_str_digits()``): it shows its type and bit length, so a
refusal of a huge argument is still the typed error.
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


def _shown(value, text=repr):
    """``text(value)`` for a message; an int past the decimal-string limit
    shows its type and bit length, and a value holding one its type."""
    try:
        return text(value)
    except ValueError:  # the limit, raised by the int's conversion to str
        bits = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{bits}>"


def check_int(value, name, low, high=math.inf, odd=False):
    """``value``, an int in [low, high], and odd where asked."""
    if not isinstance(value, int) or not low <= value <= high or odd and value % 2 == 0:
        raise DomainError(f"{name} must be an{' odd' * odd} integer in [{low}, {high}], "
                          f"got {_shown(value)}")
    return value


def check_instance(value, name, cls):
    """``value``, an instance of ``cls``."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be {cls.__name__}, got {_shown(value)}")
    return value


def _number(value, name, kinds=(int, Fraction, float)):
    """``value``, an instance of ``kinds`` (a real number by default)."""
    if not isinstance(value, kinds):
        raise DomainError(f"{name} must be a number, got {_shown(value)}")
    return value


def check_finite(value, name, positive=False):
    """``value``, a finite int, Fraction, float or complex; real and > 0 where asked."""
    _number(value, name, (int, Fraction, float, complex))
    if (isinstance(value, (float, complex)) and not cmath.isfinite(value)
            or positive and (isinstance(value, complex) or not value > 0)):
        raise DomainError(f"{name} must be a finite{' positive' * positive} number, "
                          f"got {_shown(value)}")
    return value


def check_double(value, name, kind=float, positive=False):
    """``kind(value)``, a float or a complex, of a number ``check_finite``
    accepts (``_double``)."""
    return _double(check_finite(value, name, positive), name, kind)


def _double(value, name, kind=float):
    """``kind(value)`` of a number: an int or a Fraction beyond the double
    range is a DomainError, never an OverflowError of the conversion."""
    try:
        return kind(value)
    except OverflowError:
        raise DomainError(f"{name} must lie within the double range, "
                          f"got {_shown(value):.40}...") from None


def check_rational(value, name, unit=False):
    """``Fraction(value)``, a float taken exactly; in (0, 1) where ``unit`` asks."""
    _number(value, name)
    try:
        r = Fraction(value)
    except (ValueError, OverflowError):  # a NaN or an infinity
        raise DomainError(f"{name} must be a finite rational, got {_shown(value)}") from None
    if unit and not 0 < r < 1:
        raise DomainError(f"{name} must be a rational in (0, 1), got {_shown(r, str)}")
    return r


def check_base(q, name):
    """``float(q)``, a float base in (0, 1) for the series routes."""
    q = _double(_number(q, name), name)
    if not 0 < q < 1:
        raise DomainError(f"{name} must lie in (0, 1), got {q}")
    return q


def check_closed_form_base(q, name, unit=False):
    """(``Fraction(q)``, whether to round the result to a float) for the base
    of a closed form: an int, a Fraction or a finite float, > 0 and != 1,
    in (0, 1) where ``unit`` asks.  A float q is taken exactly."""
    r = check_rational(q, name, unit)
    if r <= 0 or r == 1:
        raise DomainError(f"{name} must be a rational or a float, > 0 and != 1, "
                          f"got {_shown(q)}")
    return r, isinstance(q, float)
