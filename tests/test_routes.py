"""Route independence: the two sides of a verify row that the paper says
agree must not run the same formula, or the check proves nothing.

Each row of ``ROWS`` names a ``qeuler verify`` check, the public functions
on each of its two sides, and an allowlist: the ``qeuler`` functions both
sides may run, each with the reason it is harmless to share.  The test
traces every case of the row with ``sys.setprofile`` and attributes each
call to the public function that the verify row called (the side's root),
so it checks the verify table itself, not a copy of it.  A function run
by both sides and missing from the allowlist fails the test until it is
added with a reason.  Comprehensions count as their enclosing function.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qeuler
from qeuler import _verify, euler_numbers, zeta

PACKAGE = str(Path(qeuler.__file__).parent)
VERIFY = str(Path(PACKAGE, "_verify.py"))

NO_ARITHMETIC = "argument check: a domain rule, no arithmetic of either route"
KERNEL = "numeric kernel: exact integer-pair sums and powers, no formula of either route"

CHECKS = {name: NO_ARITHMETIC for name in (
    "errors._number", "errors._double", "errors.check_base", "errors.check_double",
    "errors.check_finite", "errors.check_instance", "errors.check_int",
    "errors.check_rational", "zeta._hurwitz_x")}
NUMERIC = {name: KERNEL for name in (
    "numeric._exact_sum", "numeric._tree", "numeric._coprime_add", "numeric._v2",
    "numeric._fraction", "numeric._float", "numeric._pair", "numeric._negated",
    "numeric._powers", "numeric._power_sums", "numeric._sum_order", "numeric._factor_key",
    "numeric._factorize", "numeric.gen_binom")}
PROGRESSION = {"_direct.Progression.of": "argument structure, no arithmetic"}
CHARACTER = {
    "characters.DirichletCharacter._unit_table":
        "the character's values (a, k, chi(a)), input data that both sides read",
}
CHI_COMBINATION = {
    "characters._class_groups": "ROADMAP item 6: the classes grouped by chi(a) on both sides",
    "characters._chi_combination": "ROADMAP item 6: the chi-weighted sum of the class values",
}
SERIES = {
    "_direct.moment": "the defining series' term: the continuation's shifted head is the "
                      "direct series' first K terms (zeta module docstring)",
    "_direct._log_bracket": "ln [y]_q, in the shifted head's terms and in the class-skip bound",
    "_direct.plain_terms": "the continuation's shifted head is the plain stream's first K "
                           "terms: the check reaches the continuation through its tail",
    "zeta._sum_series": "the series driver: sums a stream to its tail bound, no formula",
}

EXACT = CHECKS | NUMERIC | PROGRESSION
FLOAT = CHECKS | PROGRESSION | SERIES
L_FLOAT = FLOAT | CHARACTER
L_EXACT = EXACT | CHARACTER | CHI_COMBINATION

# verify row -> (roots of one side, roots of the other, allowlist)
ROWS = {
    "methods/zeta-direct-vs-continuation": ({"euler_zeta_q"}, {"euler_zeta_q_direct"}, FLOAT),
    "methods/hurwitz-direct-vs-continuation": (
        {"hurwitz_zeta_q"}, {"hurwitz_zeta_q_direct"}, FLOAT),
    "methods/lseries-direct-vs-decomposition": ({"l_series"}, {"l_series_direct"}, L_FLOAT),
    "methods/partial-direct-vs-decomposition": (
        {"partial_zeta"}, {"partial_zeta_direct"}, FLOAT),
    "methods/partial-partition-exact": (
        {"partial_zeta_neg_int_exact"}, {"euler_zeta_neg_int_exact"},
        EXACT | CHI_COMBINATION | {
            "zeta._truncated": "the partition identity: one truncation over the classes "
                               "a (mod F) adds up to the same truncation over n >= 1",
        }),
    "methods/lseries-neg-int-exact": (
        {"l_neg_int_decomposition"}, {"l_neg_int_exact"}, L_EXACT),
    "methods/lseries-neg-int-complex": (
        {"l_neg_int_decomposition"}, {"l_neg_int_exact"}, L_EXACT),
    "methods/lseries-continuation-at-neg-int": (
        {"l_series"}, {"generalized_qeuler"}, CHECKS | CHARACTER),
    "methods/seeded-spot-check": ({"euler_zeta_q"}, {"euler_zeta_q_direct"}, FLOAT),
    "interpolation/zeta-neg-int": ({"euler_zeta_neg_int_exact"}, {"qeuler_higher"}, EXACT),
    "interpolation/zeta-sign-boundary": ({"euler_zeta_neg_int_exact"}, set(), EXACT),
    "interpolation/hurwitz-neg-int": ({"hurwitz_neg_int_exact"}, {"qeuler_poly_exact"}, EXACT),
    "interpolation/continuation-terminates": ({"euler_zeta_q"}, {"qeuler_higher"}, CHECKS),
    "interpolation/sign-boundary-continuation": ({"euler_zeta_q"}, set(), CHECKS),
    "identities/mixed-diagonal": ({"qeuler_mixed"}, {"hurwitz_neg_int_exact"}, EXACT),
    # every p-adic pin: the stage sums against the closed-form number
    **{f"padic/convergence-m{m}-k{k}": ({"higher_order_stage"}, {"qeuler_higher"}, CHECKS)
       for m, k, *_ in _verify._PADIC_PINS},
}


class SideTracer:
    """A ``sys.setprofile`` hook that records, per root, the ``qeuler``
    functions run under it.

    A root is a ``qeuler`` function called while no root runs: from
    ``_verify`` or from outside the package.  Every ``qeuler`` call
    beneath it is recorded under the root's name.  ``_verify`` itself is
    never recorded.
    """

    def __init__(self):
        self.sides = {}
        self._root = self._side = None

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename == VERIFY or not code.co_filename.startswith(PACKAGE):
            return
        if event == "call":
            if self._root is None:
                self._root = frame
                self._side = self.sides.setdefault(code.co_name, set())
            function = code.co_qualname.split(".<locals>")[0]
            self._side.add(f"{Path(code.co_filename).stem}.{function}")
        elif event == "return" and frame is self._root:
            self._root = None

    def run(self, step):
        """``step()`` under the hook: its value, and the sides it ran."""
        self.sides = {}
        sys.setprofile(self)
        try:
            return step(), self.sides
        finally:
            sys.setprofile(None)


def _steps(row):
    """Thunks that evaluate the cases of ``row`` at seed 0, both sides of
    one case per call, and return None once the cases are exhausted."""
    if row.startswith("padic/"):
        pin = next(p for p in _verify._PADIC_PINS if row == f"padic/convergence-m{p[0]}-k{p[1]}")
        yield lambda: _verify._padic_pin(qeuler.PAdicQParam(3, Fraction(4)), *pin)
        return
    table = _verify.SUITES[row.split("/")[0]].__wrapped__(random.Random(0))
    cases = iter(next(r for r in table if r[0] == row)[1])
    while True:
        yield lambda: next(cases, None)


def shared_beyond(row):
    """(the functions both sides of a case of ``row`` ran that its allowlist
    lacks, the roots that ran)."""
    one, other, allowed = ROWS[row]
    tracer = SideTracer()
    beyond, ran = set(), set()
    for step in _steps(row):
        case, sides = tracer.run(step)
        if case is None:
            break
        a = set().union(*(sides.get(r, ()) for r in one))
        b = set().union(*(sides.get(r, ()) for r in other))
        ran |= sides.keys() & (one | other)
        beyond |= (a & b) - allowed.keys()
    return beyond, ran


@pytest.mark.parametrize("row", sorted(ROWS))
def test_sides_share_only_the_allowlist(row):
    beyond, ran = shared_beyond(row)
    one, other, _ = ROWS[row]
    assert ran == one | other, f"sides did not run: {(one | other) - ran}"
    assert beyond == set()


def test_every_route_row_is_covered():
    # every methods and interpolation row compares two routes
    for suite in ("methods", "interpolation"):
        names = {r[0] for r in _verify.SUITES[suite].__wrapped__(random.Random(0))}
        assert names <= ROWS.keys()


def test_every_allowlist_entry_states_its_reason():
    for _, _, allowed in ROWS.values():
        assert all(isinstance(why, str) and len(why) > 20 for why in allowed.values())


def _higher_as_truncation(m, q, progression, qx=(1, 1)):
    return euler_numbers.qeuler_higher(m, 1, Fraction(*q))


@pytest.mark.parametrize("row,name,fake,formula", [
    ("methods/zeta-direct-vs-continuation", "_direct_series", zeta._continuation,
     "zeta._continuation"),
    ("interpolation/zeta-neg-int", "_truncated", _higher_as_truncation,
     "euler_numbers._binomial_sum"),
])
def test_a_side_that_runs_the_other_sides_formula_fails(monkeypatch, row, name, fake, formula):
    monkeypatch.setattr(zeta, name, fake)
    beyond, _ = shared_beyond(row)
    assert formula in beyond
