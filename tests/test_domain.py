"""The number rule: a NaN or an infinity in any float or complex
argument of a public function raises DomainError, and so does None,
text (even the text of a good value) or any other object where a number
is due; so does an argument of the wrong type where a character or a
p-adic context is expected, and an int or a Fraction beyond the double
range where a float route converts it.  An int too long for a decimal
string is refused by the same typed error as any other argument: its
message shows its size.

DomainError subclasses ValueError, so a bare ValueError (from math.ceil
or Fraction) fails these tests, as does a bare TypeError, a
NonConvergenceError or a returned NaN.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from qeuler import (
    DirichletCharacter,
    DomainError,
    Integrand,
    IntegrandTerm,
    PAdicQParam,
    PrecisionPolicy,
    RootOfUnity,
    binom,
    characters_mod,
    conductor,
    convergence_report,
    distribution_residual,
    euler_zeta_neg_int_exact,
    euler_zeta_q,
    euler_zeta_q_direct,
    gen_binom,
    generalized_qeuler,
    higher_order_stage,
    hurwitz_neg_int_exact,
    hurwitz_zeta_q,
    hurwitz_zeta_q_direct,
    is_primitive,
    l_neg_int_decomposition,
    l_neg_int_exact,
    l_series,
    l_series_direct,
    multiplication_residual_x0,
    p_valuation,
    partial_zeta,
    partial_zeta_direct,
    partial_zeta_neg_int_exact,
    q_bracket,
    q_bracket_signed,
    qeuler_higher,
    qeuler_mixed,
    qeuler_poly_exact,
    qeuler_poly_numeric,
    stage_sum,
)
from qeuler.errors import (ResourceLimitError, _shown, check_base, check_closed_form_base,
                           check_double, check_finite, check_instance, check_int,
                           check_rational)

CHI = characters_mod(5)[1]
CTX = PAdicQParam(3, 4)

REAL = (math.nan, math.inf, -math.inf)
COMPLEX = REAL + (complex(1, math.nan), complex(2, math.inf), complex(math.nan, 1),
                  complex(-math.inf, 0))

# (function and argument, the call with that argument replaced, a finite value
# in the domain, the non-finite values to feed)
ENTRY_POINTS = [
    ("q_bracket x", lambda v: q_bracket(v, 0.5), 1 + 1j, COMPLEX),
    ("q_bracket q", lambda v: q_bracket(3, v), 0.5, REAL),
    ("q_bracket_signed q", lambda v: q_bracket_signed(3, v), 0.5, REAL),
    ("binom i", lambda v: binom(4, v), 2, REAL),
    ("gen_binom s", lambda v: gen_binom(v, 2), 1 + 1j, COMPLEX),
    ("p_valuation r", lambda v: p_valuation(v, 3), 0.75, REAL),
    ("PAdicQParam q", lambda v: PAdicQParam(3, v), 4.0, REAL),
    ("qeuler_higher q", lambda v: qeuler_higher(3, 1, v), 0.5, REAL),
    ("qeuler_mixed q", lambda v: qeuler_mixed(2, 3, v), 0.5, REAL),
    ("qeuler_poly_exact r", lambda v: qeuler_poly_exact(3, v, 2, 1), 0.5, REAL),
    ("qeuler_poly_numeric q", lambda v: qeuler_poly_numeric(3, v, 0.5), 0.5, REAL),
    ("qeuler_poly_numeric x", lambda v: qeuler_poly_numeric(3, 0.5, v), 0.5, REAL),
    ("distribution_residual r", lambda v: distribution_residual(2, 3, 0, v), 0.5, REAL),
    ("multiplication_residual_x0 r", lambda v: multiplication_residual_x0(2, 3, v), 0.5, REAL),
    ("IntegrandTerm coeff", lambda v: IntegrandTerm(v, 1, 0), 0.5, REAL),
    ("Integrand.term coeff", lambda v: Integrand.term(v), 0.5, REAL),
    ("Integrand scalar", lambda v: v * Integrand.moment(1), 0.5, REAL),
    ("convergence_report reference",
     lambda v: convergence_report(Integrand.moment(1), CTX, 2, reference=v), 0.5, REAL),
    ("DirichletCharacter exponents", lambda v: DirichletCharacter(5, (v,)), 1, REAL),
    ("RootOfUnity.from_exponent e", lambda v: RootOfUnity.from_exponent(v), 0.5, REAL),
    ("generalized_qeuler r", lambda v: generalized_qeuler(2, CHI, v), 0.5, REAL),
    ("PrecisionPolicy eps", lambda v: PrecisionPolicy(eps=v), 1e-12, REAL),
    ("euler_zeta_q s", lambda v: euler_zeta_q(v, 0.5), 2, COMPLEX),
    ("euler_zeta_q q", lambda v: euler_zeta_q(2, v), 0.5, REAL),
    ("euler_zeta_q_direct s", lambda v: euler_zeta_q_direct(v, 0.5), 2, COMPLEX),
    ("euler_zeta_q_direct q", lambda v: euler_zeta_q_direct(2, v), 0.5, REAL),
    ("hurwitz_zeta_q s", lambda v: hurwitz_zeta_q(v, 0.5, 0.5), 2, COMPLEX),
    ("hurwitz_zeta_q x", lambda v: hurwitz_zeta_q(2, v, 0.5), 0.5, REAL),
    ("hurwitz_zeta_q q", lambda v: hurwitz_zeta_q(2, 0.5, v), 0.5, REAL),
    ("hurwitz_zeta_q_direct s", lambda v: hurwitz_zeta_q_direct(v, 0.5, 0.5), 2, COMPLEX),
    ("hurwitz_zeta_q_direct x", lambda v: hurwitz_zeta_q_direct(2, v, 0.5), 0.5, REAL),
    ("hurwitz_zeta_q_direct q", lambda v: hurwitz_zeta_q_direct(2, 0.5, v), 0.5, REAL),
    ("l_series s", lambda v: l_series(v, CHI, 0.5), 2, COMPLEX),
    ("l_series q", lambda v: l_series(2, CHI, v), 0.5, REAL),
    ("l_series_direct s", lambda v: l_series_direct(v, CHI, 0.5), 2, COMPLEX),
    ("l_series_direct q", lambda v: l_series_direct(2, CHI, v), 0.5, REAL),
    ("partial_zeta s", lambda v: partial_zeta(v, 2, 5, 0.5), 2, COMPLEX),
    ("partial_zeta q", lambda v: partial_zeta(2, 2, 5, v), 0.5, REAL),
    ("partial_zeta_direct s", lambda v: partial_zeta_direct(v, 2, 5, 0.5), 2, COMPLEX),
    ("partial_zeta_direct q", lambda v: partial_zeta_direct(2, 2, 5, v), 0.5, REAL),
    ("hurwitz_neg_int_exact r", lambda v: hurwitz_neg_int_exact(2, v, 3, 1), 0.5, REAL),
    ("euler_zeta_neg_int_exact r", lambda v: euler_zeta_neg_int_exact(2, v), 0.5, REAL),
    ("l_neg_int_exact r", lambda v: l_neg_int_exact(2, CHI, v), 0.5, REAL),
    ("l_neg_int_decomposition r", lambda v: l_neg_int_decomposition(2, CHI, v), 0.5, REAL),
    ("partial_zeta_neg_int_exact r", lambda v: partial_zeta_neg_int_exact(2, 2, 5, v), 0.5, REAL),
]


class _Object:
    """A plain object with a stable repr, for stable test ids."""

    def __repr__(self):
        return "object()"


# Besides the non-finite values, every argument refuses None (except the
# optional reference of convergence_report), a plain object and the text
# of its own good value: the Python API parses no text.
CASES = [(name, call, bad) for name, call, good, values in ENTRY_POINTS
         for bad in (*values, *(() if name.startswith("convergence_report") else (None,)),
                     _Object(), str(good))]


@pytest.mark.parametrize("name,call,bad", CASES, ids=[f"{n}={b!r}" if isinstance(b, str)
                                                      else f"{n}={b}" for n, _, b in CASES])
def test_non_finite_argument_raises_domain_error(name, call, bad):
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize("name,call,good", [e[:3] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_the_same_call_runs_at_a_finite_value(name, call, good):
    # each call above reaches the argument it names: with a finite value
    # in the domain there, it returns
    call(good)


# (function and argument, the call with a wrong type there, the same call
# with a value of the right type)
WRONG_TYPES = [
    ("conductor chi", conductor, "chi", CHI),
    ("is_primitive chi", is_primitive, 5, CHI),
    ("stage_sum ctx", lambda v: stage_sum(Integrand.constant(), v, 1), "ctx", CTX),
    ("convergence_report ctx", lambda v: convergence_report(Integrand.moment(1), v, 2), (3, 4),
     CTX),
    ("higher_order_stage ctx", lambda v: higher_order_stage(2, 1, v, 1), None, CTX),
    # a number of the wrong type in the kernel: binom used to return 0, the
    # others to raise a bare TypeError
    ("binom i Fraction", lambda v: binom(4, v), Fraction(2), 2),
    ("binom i float", lambda v: binom(4, v), 2.0, 2),
    ("binom i text", lambda v: binom(4, v), "2", 2),
    ("gen_binom s", lambda v: gen_binom(v, 3), "2", 2),
    ("q_bracket x", lambda v: q_bracket(v, 0.5), "3", 3),
    ("q_bracket q", lambda v: q_bracket(3, v), "0.5", 0.5),
    ("q_bracket_signed q", lambda v: q_bracket_signed(3, v), "1/2", Fraction(1, 2)),
    ("PrecisionPolicy eps", lambda v: PrecisionPolicy(eps=v), "1e-9", 1e-9),
]


@pytest.mark.parametrize("name,call,bad,good", WRONG_TYPES, ids=[w[0] for w in WRONG_TYPES])
def test_wrong_type_raises_domain_error(name, call, bad, good):
    with pytest.raises(DomainError, match=name.split()[1]):
        call(bad)
    call(good)


# The float routes convert their exact arguments to doubles: an int or a
# Fraction beyond the double range is a DomainError there, not the
# OverflowError of the conversion.
FLOAT_ROUTE_NAMES = {"euler_zeta_q", "euler_zeta_q_direct", "hurwitz_zeta_q",
                     "hurwitz_zeta_q_direct", "l_series", "l_series_direct", "partial_zeta",
                     "partial_zeta_direct", "qeuler_poly_numeric"}
FLOAT_ROUTES = [e[:2] for e in ENTRY_POINTS if e[0].split()[0] in FLOAT_ROUTE_NAMES]
BEYOND_DOUBLE = [Fraction(10**400), 10**400, Fraction(-(10**400), 3)]


@pytest.mark.parametrize("name,call", FLOAT_ROUTES, ids=[e[0] for e in FLOAT_ROUTES])
@pytest.mark.parametrize("big", BEYOND_DOUBLE, ids=["Fraction", "int", "negative"])
def test_beyond_double_range_raises_domain_error(name, call, big):
    with pytest.raises(DomainError):
        call(big)


# An int of 5,001 digits, past the decimal-string limit of
# sys.get_int_max_str_digits() (4,300 by default): a message that printed
# it would raise a bare ValueError in place of the refusal.
HUGE = 10**5000
HUGE_SHOWN = f"<int of {HUGE.bit_length()} bits>"

# (call, the error it raises, the argument as its message shows it)
HUGE_CALLS = {
    "qeuler_higher m": (lambda: qeuler_higher(-HUGE, 1, 0.5), DomainError, HUGE_SHOWN),
    "stage_sum N below 1": (lambda: stage_sum(Integrand.moment(1), CTX, -HUGE), DomainError,
                            HUGE_SHOWN),
    "stage_sum N too large": (lambda: stage_sum(Integrand.moment(1), CTX, HUGE),
                              ResourceLimitError, f"3**{HUGE_SHOWN}"),
    "characters_mod d": (lambda: characters_mod(10 * HUGE + 2), DomainError, "<int of "),
    "PAdicQParam p": (lambda: PAdicQParam(HUGE, 4), DomainError, HUGE_SHOWN),
    "p_valuation p": (lambda: p_valuation(Fraction(1, 3), HUGE + 1), DomainError, "<int of "),
    "q_bracket x": (lambda: q_bracket(HUGE, 0.5), DomainError, HUGE_SHOWN),
    "q_bracket_signed x": (lambda: q_bracket_signed(HUGE, 1.5), OverflowError, HUGE_SHOWN),
    "q_bracket exact x": (lambda: q_bracket(Fraction(HUGE, 3), Fraction(1, 2)), DomainError,
                          "x=<Fraction>"),
    "PAdicQParam q": (lambda: PAdicQParam(3, HUGE + 1), DomainError, "got q = <Fraction>"),
    "multiplication_residual_x0 r": (lambda: multiplication_residual_x0(2, 3, -HUGE),
                                     DomainError, "got <Fraction>"),
    "DirichletCharacter exponents": (lambda: DirichletCharacter(5, (HUGE, 1)), DomainError,
                                     "got <tuple>"),
    # each check of the errors module
    "check_int": (lambda: check_int(HUGE, "n", 0, 10), DomainError, HUGE_SHOWN),
    "check_instance": (lambda: check_instance(HUGE, "chi", DirichletCharacter), DomainError,
                       HUGE_SHOWN),
    "_number": (lambda: check_finite([HUGE], "x"), DomainError, "got <list>"),
    "check_finite": (lambda: check_finite(-HUGE, "eps", positive=True), DomainError,
                     HUGE_SHOWN),
    "check_double": (lambda: check_double(HUGE, "s"), DomainError, f"{HUGE_SHOWN}..."),
    "check_rational": (lambda: check_rational(HUGE, "r", unit=True), DomainError,
                       "got <Fraction>"),
    "check_base": (lambda: check_base(-HUGE, "q"), DomainError, HUGE_SHOWN),
    "check_closed_form_base": (lambda: check_closed_form_base(-HUGE, "q"), DomainError,
                               HUGE_SHOWN),
}


@pytest.mark.parametrize("name", HUGE_CALLS)
def test_huge_int_is_refused_by_a_typed_error(name):
    call, error, shown = HUGE_CALLS[name]
    with pytest.raises(error) as exc:
        call()
    assert shown in str(exc.value)


def test_a_printable_argument_prints_as_before():
    # the longest int the limit allows still prints in full
    big = 10**4299
    assert _shown(big) == repr(big) and _shown(Fraction(1, 3), str) == "1/3"
    with pytest.raises(DomainError, match=r"got \[1, 2\]$"):
        check_finite([1, 2], "x")
    with pytest.raises(DomainError, match=r"got 3/2$"):
        check_rational(Fraction(3, 2), "r", unit=True)
