"""Exception types shared across the package."""

from __future__ import annotations

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
