"""Self-check of the benchmark's own parts: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qeuler as Q  # noqa: E402
import qeuler.cli  # noqa: E402,F401

from checks import (  # noqa: E402
    CliResult,
    SeriesOracle,
    check_cli,
    check_series_grid,
    higher_order_multinomial,
    series_error,
)
from inputs import GOLDEN_TABLES, WORKLOADS, Op, build, canonical, known_defect_region  # noqa: E402
from run import _call  # noqa: E402
from tracing import Tracer  # noqa: E402


def _inputs(workload, seed):
    ops, probe = build(workload, seed, Q, ROOT)
    return canonical(ops) + canonical(probe)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    a = _inputs(workload, 7)
    assert a == _inputs(workload, 7)
    assert a != _inputs(workload, 8)


def test_series_grid_splits_at_the_known_defect_region():
    ops, probe = build("series-grid", 7, Q, ROOT)
    assert len(ops) == 80 and len(probe) == 100
    assert not any(known_defect_region(op.args[0], op.args[-1]) for op in ops)
    assert all(known_defect_region(op.args[0], op.args[-1]) for op in probe)
    # The probe keeps every negative-s region and the q = 0.999 row.
    assert {op.args[-1] for op in probe} >= {0.99, 0.999}
    assert min(complex(op.args[0]).real for op in probe) <= -12


def test_oracle_flags_known_wrong_continuation():
    op = Op("euler_zeta_q", (-12.0, 0.99), "g")
    assert known_defect_region(-12.0, 0.99)
    failures = check_series_grid([op], [_call(op, Q)], Q, SeriesOracle(Q))
    assert 0 in failures  # returns about -6.6e10 against the exact -171.59


def test_cli_probe_flags_the_wrong_float_closed_form():
    ops, probe = build("cli-e2e", 7, Q, ROOT)
    op = next(o for o in probe if o.group == "eval-qeuler-float-0.99")
    assert op not in ops
    assert 0 in check_cli([op], [_call(op, Q)], Q, SeriesOracle(Q))  # prints -194.42


def test_oracle_passes_a_correct_value():
    op = Op("euler_zeta_q_direct", (2.0, 0.5), "g")
    assert check_series_grid([op], [_call(op, Q)], Q, SeriesOracle(Q)) == {}


@pytest.mark.parametrize("s,q", [(-5.0, 0.99), (-12.0, 0.999), (-3.0, 0.3)])
def test_mpmath_route_matches_exact_values(s, q):
    oracle = SeriesOracle(Q)
    mp_value = oracle._mp("euler", complex(s), q, ())
    exact = ("exact", Q.euler_zeta_neg_int_exact(-int(s), Fraction(q)))
    assert series_error(complex(mp_value), exact) <= 1e-15 * max(1.0, abs(float(exact[1])))


@pytest.mark.parametrize("name,argv", GOLDEN_TABLES)
def test_golden_compare_fails_on_one_altered_byte(name, argv):
    op = next(o for o in build("cli-e2e", 0, Q, ROOT)[0] if o.group == f"golden-{name}")
    good = _call(op, Q)
    assert check_cli([op], [good], Q, SeriesOracle(Q)) == {}
    text = good.stdout
    flipped = text[:5] + chr(ord(text[5]) ^ 1) + text[6:]
    bad = CliResult(good.rc, flipped, good.stderr)
    assert 0 in check_cli([op], [bad], Q, SeriesOracle(Q))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multinomial_route_matches_closed_form(k):
    for m in range(7):
        for q in (Fraction(1, 2), Fraction(4), Fraction(9999, 10000)):
            assert higher_order_multinomial(m, k, q) == Q.qeuler_higher(m, k, q)


def test_tracer_records_layers_and_restores_originals():
    before = (Q.euler_zeta_q, Q.zeta.gen_binom, Q.cli.main, Q.DirichletCharacter.__call__)
    tracer = Tracer(Q)
    tracer.install()
    try:
        Q.euler_zeta_neg_int_exact(4, Fraction(1, 2))
        Q.l_series_direct(2.0, Q.characters_mod(5)[1], 0.5)
    finally:
        tracer.uninstall()
    after = (Q.euler_zeta_q, Q.zeta.gen_binom, Q.cli.main, Q.DirichletCharacter.__call__)
    assert before == after
    metrics = tracer.layer_metrics()
    assert metrics["zeta.calls"][0] == 2
    assert metrics["numeric.calls"][0] == 5  # gen_binom, once per term of the m = 4 truncation
    assert metrics["characters.calls"][0] > 0  # chi(n) per direct term
    assert metrics["zeta.series_terms"][0] > 0
