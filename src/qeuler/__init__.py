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

Each module loads on the first read of one of its names (PEP 562): a
bare ``import qeuler`` loads none, and the stage sums and closed forms
load neither the characters nor the series routes.  The first read of a
name binds all of its module's exports here at once.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, keyed by the module that defines them; _direct has
# none, but ``qeuler._direct`` resolves like every other module here.
_EXPORTS = {
    "errors": (
        "DomainError",
        "NearSingularError",
        "NonConvergenceError",
        "ResourceLimitError",
    ),
    "numeric": (
        "PAdicQParam",
        "binom",
        "gen_binom",
        "is_prime",
        "p_valuation",
        "q_bracket",
        "q_bracket_signed",
    ),
    "euler_numbers": (
        "classical_multiplication_residual",
        "distribution_residual",
        "euler_classical",
        "multiplication_residual_x0",
        "qeuler_higher",
        "qeuler_mixed",
        "qeuler_poly_exact",
        "qeuler_poly_numeric",
    ),
    "fermionic": (
        "MAX_RESULT_BITS",
        "Integrand",
        "IntegrandTerm",
        "StageReport",
        "convergence_report",
        "higher_order_stage",
        "stage_sum",
    ),
    "characters": (
        "DirichletCharacter",
        "RootOfUnity",
        "characters_mod",
        "conductor",
        "generalized_qeuler",
        "is_primitive",
        "root_sum_is_zero",
    ),
    "_direct": (),
    "zeta": (
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
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name):
    """Import the module that defines ``name`` and bind all of its exports
    here; called only for a name not bound yet."""
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:  # a module read as qeuler.zeta; importing it binds it
            return import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = import_module(f"{__name__}.{module}")
    exports = {export: getattr(source, export) for export in _EXPORTS[module]}
    globals().update(exports)
    return exports[name]


def __dir__():
    """Every public name and module, loaded or not."""
    return sorted({*globals(), *__all__, *_EXPORTS})
