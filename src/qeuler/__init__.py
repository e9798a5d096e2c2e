"""Exact q-Euler numbers and polynomials, finite-stage alternating sums,
and q-analogue Euler zeta / Hurwitz / Dirichlet L evaluation.

Exact arithmetic uses :class:`fractions.Fraction` throughout; the
closed forms take a float base exactly and round the result once, and
the floating series routes are separate entry points, never silently
mixed with exact ones.  See the module docstrings for the conventions:

* :mod:`qeuler.numeric` -- q-brackets, generalized binomials, valuations
* :mod:`qeuler.euler_numbers` -- closed-form q-Euler numbers/polynomials
* :mod:`qeuler.fermionic` -- alternating stage sums with p-adic convergence
* :mod:`qeuler.characters` -- Dirichlet characters with exact values
* :mod:`qeuler.zeta` -- series evaluation and exact negative-integer values
* :mod:`qeuler.cli` -- the ``qeuler`` command-line interface
"""

from .errors import (
    DomainError,
    NearSingularError,
    NonConvergenceError,
    ResourceLimitError,
)
from .numeric import (
    PAdicQParam,
    binom,
    gen_binom,
    is_prime,
    p_valuation,
    q_bracket,
    q_bracket_signed,
)
from .euler_numbers import (
    classical_multiplication_residual,
    distribution_residual,
    euler_classical,
    multiplication_residual_x0,
    qeuler_higher,
    qeuler_mixed,
    qeuler_poly_exact,
    qeuler_poly_numeric,
)
from .fermionic import (
    MAX_RESULT_BITS,
    Integrand,
    IntegrandTerm,
    StageReport,
    convergence_report,
    higher_order_stage,
    stage_sum,
)
from .characters import (
    DirichletCharacter,
    RootOfUnity,
    characters_mod,
    conductor,
    generalized_qeuler,
    is_primitive,
    root_sum_is_zero,
)
from .zeta import (
    PrecisionPolicy,
    SeriesValue,
    euler_zeta_neg_int_exact,
    euler_zeta_q,
    euler_zeta_q_direct,
    hurwitz_neg_int_exact,
    hurwitz_zeta_q,
    hurwitz_zeta_q_direct,
    l_neg_int_decomposition,
    l_neg_int_exact,
    l_series,
    l_series_direct,
    partial_zeta,
    partial_zeta_direct,
    partial_zeta_neg_int_exact,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NearSingularError",
    "NonConvergenceError",
    "ResourceLimitError",
    "PAdicQParam",
    "binom",
    "gen_binom",
    "is_prime",
    "p_valuation",
    "q_bracket",
    "q_bracket_signed",
    "classical_multiplication_residual",
    "distribution_residual",
    "euler_classical",
    "multiplication_residual_x0",
    "qeuler_higher",
    "qeuler_mixed",
    "qeuler_poly_exact",
    "qeuler_poly_numeric",
    "MAX_RESULT_BITS",
    "Integrand",
    "IntegrandTerm",
    "StageReport",
    "convergence_report",
    "higher_order_stage",
    "stage_sum",
    "DirichletCharacter",
    "RootOfUnity",
    "characters_mod",
    "conductor",
    "generalized_qeuler",
    "is_primitive",
    "root_sum_is_zero",
    "PrecisionPolicy",
    "SeriesValue",
    "euler_zeta_neg_int_exact",
    "euler_zeta_q",
    "euler_zeta_q_direct",
    "hurwitz_neg_int_exact",
    "hurwitz_zeta_q",
    "hurwitz_zeta_q_direct",
    "l_neg_int_decomposition",
    "l_neg_int_exact",
    "l_series",
    "l_series_direct",
    "partial_zeta",
    "partial_zeta_direct",
    "partial_zeta_neg_int_exact",
    "__version__",
]
