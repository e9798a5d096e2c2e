"""Tests for the command line: golden tables, records, exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qeuler import DomainError, qeuler_higher
from qeuler import cli
from qeuler.cli import main

from gen_verify_golden import SEEDS, TEXT_SEED, verify_args, verify_text_args

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("QEULER_MAX_TERMS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qeuler.cli", *args],
        capture_output=True,
        env=env,
    )


class TestGoldenTables:
    CASES = [
        ("table_qeuler.csv", ["table", "qeuler", "--q", "1/2", "--m", "0..6",
                              "--exact", "--format", "csv"]),
        ("table_classical.csv", ["table", "classical", "--k", "1", "--m", "0..5"]),
        ("table_zeta.csv", ["table", "zeta", "--q", "1/2", "--s-grid", "-3..0",
                            "--exact"]),
    ]

    @pytest.mark.parametrize("golden,args", CASES, ids=[c[0] for c in CASES])
    def test_byte_equality(self, golden, args):
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_bytes()

    def test_determinism(self):
        args = ["table", "qeuler", "--q", "1/2", "--m", "0..6", "--exact"]
        assert run_cli(*args).stdout == run_cli(*args).stdout
        vargs = ["verify", "identities", "--seed", "5"]
        assert run_cli(*vargs).stdout == run_cli(*vargs).stdout


class TestGoldenVerify:
    """``verify all`` output is pinned byte for byte (regenerate with
    ``tests/gen_verify_golden.py``): check names, case counts and details."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_equality(self, seed):
        proc = run_cli(*verify_args(seed))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / f"verify_all_seed{seed}.json").read_bytes()

    def test_text_byte_equality(self):
        proc = run_cli(*verify_text_args(TEXT_SEED))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / f"verify_all_seed{TEXT_SEED}.txt").read_bytes()


class TestParserReuse:
    CALLS = [
        ["eval", "qeuler", "--q", "1/2", "--m", "4", "--exact"],
        ["eval", "qeuler", "--q", "1/2", "--m", "4"],
        ["table", "qeuler", "--q", "1/2", "--m", "0..6", "--exact"],
        ["verify", "identities", "--seed", "3"],
    ]

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # the parser is built once per process; no option of one call may
        # leak into the next
        for argv in self.CALLS:
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == run_cli(*argv).stdout, argv


class TestEvalRecords:
    def test_exact_record_round_trips(self, capsys):
        assert main(["eval", "qeuler", "--m", "2", "--k", "1", "--q", "1/2",
                     "--exact"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["function"] == "qeuler"
        assert record["method"] == "closed-form"
        value = F(record["value"]["num"], record["value"]["den"])
        assert value == qeuler_higher(2, 1, F(1, 2)) == F(1, 5)
        # the rendered num/den string parses back to the identical rational
        assert F(f"{record['value']['num']}/{record['value']['den']}") == value

    def test_exact_zeta_record(self, capsys):
        assert main(["eval", "zeta", "--s", "-1", "--q", "1/2", "--exact"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "exact-negative-integer"
        assert (record["value"]["num"], record["value"]["den"]) == (-1, 2)

    def test_numeric_zeta_record(self, capsys):
        assert main(["eval", "zeta", "--s", "2", "--q", "0.5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "continuation"
        assert record["err"] <= 1e-12
        assert record["value"]["re"] == pytest.approx(-0.3396340966016850, abs=1e-12)

    def test_key_order_is_stable(self, capsys):
        main(["eval", "classical", "--m", "3"])
        keys = list(json.loads(capsys.readouterr().out))
        assert keys == ["function", "params", "value", "method", "err", "terms"]

    def test_integral_stage_record(self, capsys):
        assert main(["eval", "integral-stage", "--m", "1", "--k", "1", "--p", "3",
                     "--q", "4", "--N", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "stage"
        assert F(record["value"]["num"], record["value"]["den"]) == F(1, 208)

    def test_float_closed_form_is_the_typed_rational_rounded(self, capsys):
        # a float evaluation of this closed form printed -194.42
        assert main(["eval", "qeuler", "--m", "8", "--q", "0.99"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["q"] == "99/100"
        assert record["value"] == {"re": float(qeuler_higher(8, 1, F(99, 100))), "im": 0.0}

    def test_polynomial_at_zero_is_the_number(self, capsys):
        assert main(["eval", "qeuler-poly", "--m", "16", "--q", "0.99", "--x", "0"]) == 0
        poly = json.loads(capsys.readouterr().out)
        assert main(["eval", "qeuler", "--m", "16", "--q", "0.99"]) == 0
        assert poly["value"] == json.loads(capsys.readouterr().out)["value"]
        assert poly["value"]["re"] == float(qeuler_higher(16, 1, F(99, 100)))

    def test_exact_hurwitz_requires_perfect_power_base(self, capsys):
        assert main(["eval", "hurwitz", "--s", "-1", "--x", "1/3", "--q", "1/8",
                     "--exact"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert F(record["value"]["num"], record["value"]["den"]) == F(-5, 28)
        # 1/2 has no exact cube root: domain error, not a wrong answer
        assert main(["eval", "hurwitz", "--s", "-1", "--x", "1/3", "--q", "1/2",
                     "--exact"]) == 2


class TestRecordShape:
    """The params of every eval function's record, in output order, with
    ints for m k a F p N and strings for s q x char; and every table row
    equals the eval record at its point, for each of the three sweeps."""

    CASES = [
        ("zeta", ["--s", "2", "--q", "0.5"], {"s": "2", "q": "1/2"}),
        ("hurwitz", ["--s", "2,1", "--x", "1/3", "--q", "0.5"],
         {"s": "2,1", "x": "1/3", "q": "1/2"}),
        ("lseries", ["--s", "-2", "--char", "5:1", "--q", "1/2", "--exact"],
         {"s": "-2", "char": "5:1", "q": "1/2"}),
        ("partial", ["--s", "1.5", "--a", "2", "--F", "5", "--q", "0.5"],
         {"s": "1.5", "a": 2, "F": 5, "q": "1/2"}),
        ("qeuler", ["--m", "3", "--q", "0.25"], {"m": 3, "k": 1, "q": "1/4"}),
        ("qeuler-poly", ["--m", "3", "--q", "1/8", "--x", "2/3", "--exact"],
         {"m": 3, "q": "1/8", "x": "2/3"}),
        ("classical", ["--m", "4", "--k", "2"], {"m": 4, "k": 2}),
        ("integral-stage", ["--m", "1", "--p", "3", "--q", "4", "--N", "1"],
         {"m": 1, "k": 1, "p": 3, "q": "4", "N": 1}),
    ]
    INTS = {"m", "k", "a", "F", "p", "N"}

    @pytest.mark.parametrize("function,options,params", CASES, ids=[c[0] for c in CASES])
    def test_params_in_order_with_their_types(self, capsys, function, options, params):
        assert main(["eval", function, *options]) == 0
        got = json.loads(capsys.readouterr().out)["params"]
        assert list(got) == list(params)
        assert got == params
        assert all(type(v) is (int if k in self.INTS else str) for k, v in got.items())

    SWEEPS = [
        (["table", "qeuler", "--q", "1/2", "--m", "2..4", "--exact"],
         [["eval", "qeuler", "--q", "1/2", "--m", str(m), "--exact"] for m in (2, 3, 4)]),
        (["table", "zeta", "--q", "0.5", "--s-grid", "-2..1"],
         [["eval", "zeta", "--q", "0.5", "--s", str(s)] for s in (-2, -1, 0, 1)]),
        (["table", "qeuler", "--m-fixed", "3", "--k", "2", "--q-list", "1/3,0.5"],
         [["eval", "qeuler", "--m", "3", "--k", "2", "--q", q] for q in ("1/3", "0.5")]),
    ]

    @pytest.mark.parametrize("table,evals", SWEEPS, ids=["m", "s-grid", "q-list"])
    def test_table_rows_equal_eval(self, capsys, table, evals):
        assert main([*table, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(evals)
        for argv, row in zip(evals, rows):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out) == row, argv


class TestOptionInventory:
    """Every option string of eval, table and verify with its default (and
    choices), read from the built parser: an option added, dropped or
    re-defaulted shows up here."""

    S = argparse.SUPPRESS
    SHARED = {"-h": S, "--help": S, "--q": None, "--s": None, "--k": 1, "--exact": False,
              "--eps": 1e-12, "--max-terms": None}
    OPTIONS = {
        "eval": {**SHARED, "--x": None, "--char": None, "--m": None, "--a": None, "--F": None,
                 "--p": None, "--N": None, "--method": "continuation"},
        "table": {**SHARED, "--m": None, "--m-fixed": None, "--s-grid": None, "--q-list": None,
                  "--format": "csv"},
        "verify": {"-h": S, "--help": S, "--seed": 0, "--format": "text",
                   "--inject-failure": False},
    }
    CHOICES = {
        "eval": {"function": ["zeta", "hurwitz", "lseries", "partial", "qeuler", "qeuler-poly",
                              "classical", "integral-stage"],
                 "--method": ["continuation", "direct"]},
        "table": {"function": ["qeuler", "classical", "zeta"], "--format": ["csv", "json"]},
        "verify": {"suite": ["identities", "interpolation", "padic", "characters", "methods",
                             "all"],
                   "--format": ["text", "json"]},
    }

    def subcommands(self):
        parser = cli._parser()
        assert sorted(o for a in parser._actions for o in a.option_strings) == [
            "--help", "--version", "-h"]
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_option_strings_and_defaults(self):
        subs = self.subcommands()
        assert list(subs) == list(self.OPTIONS)
        for name, sub in subs.items():
            got = {o: a.default for a in sub._actions for o in a.option_strings}
            assert got == self.OPTIONS[name], name

    def test_choices(self):
        for name, sub in self.subcommands().items():
            got = {a.option_strings[0] if a.option_strings else a.dest: a.choices
                   for a in sub._actions if a.choices is not None}
            assert got == self.CHOICES[name], name


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("eval", "classical", "--m", "2").returncode == 0

    def test_verification_failure_is_one(self):
        proc = run_cli("verify", "identities", "--inject-failure")
        assert proc.returncode == 1
        assert b"FAIL injected-failure" in proc.stdout

    def test_usage_error_is_two(self):
        assert run_cli("eval", "nosuchfunction", "--m", "2").returncode == 2
        assert run_cli("eval", "zeta", "--q", "1/2").returncode == 2  # missing --s
        assert run_cli("eval", "zeta", "--s", "x", "--q", "1/2").returncode == 2
        assert run_cli("eval", "qeuler", "--m", "2", "--q", "0").returncode == 2

    def test_non_convergence_is_three(self):
        proc = run_cli("eval", "zeta", "--s", "2", "--q", "0.5",
                       env_extra={"QEULER_MAX_TERMS": "1"})
        assert proc.returncode == 3
        assert b"non-convergence" in proc.stderr

    def test_overflow_is_two_and_named(self, capsys):
        # q**(step s) = 0.3**(-3000) is beyond the double range
        assert main(["eval", "partial", "--s", "-200", "--a", "15", "--F", "15",
                     "--q", "0.3"]) == 2
        err = capsys.readouterr().err
        assert "eval partial (route continuation): q**(step*s) exceeds the double range" in err

    def test_one_minus_q_overflow_is_two_and_named(self, capsys):
        # (1-q)**s = 0.1**(-3000) is beyond the double range
        assert main(["eval", "zeta", "--s", "-3000", "--q", "0.9"]) == 2
        err = capsys.readouterr().err
        assert "eval zeta (route continuation): (1-q)**s exceeds the double range" in err

    @pytest.mark.parametrize("x, q, code", [
        ("1e-17", "0.5", 0), ("1e-300", "0.5", 2), ("5e-324", "0.5", 2), ("5e-324", "0.99", 2),
    ])
    def test_tiny_hurwitz_x_is_a_value_or_two(self, x, q, code, capsys):
        # q**x rounds to 1: a value, or an error line with exit 2, never a traceback
        assert main(["eval", "hurwitz", "--s", "2", "--x", x, "--q", q]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out)["value"]["re"] > 0
        else:
            assert err.startswith("qeuler: error:")

    @pytest.mark.parametrize("argv", [
        ["eval", "zeta", "--s", "2", "--q", "1e400"],
        ["eval", "hurwitz", "--s", "2", "--x", "1e400", "--q", "0.5"],
    ])
    def test_number_beyond_double_range_is_two(self, argv, capsys):
        assert main(argv) == 2
        assert "must lie within the double range" in capsys.readouterr().err

    def test_explicit_flag_beats_environment(self):
        proc = run_cli("eval", "zeta", "--s", "2", "--q", "0.5",
                       "--max-terms", "10000",
                       env_extra={"QEULER_MAX_TERMS": "1"})
        assert proc.returncode == 0

    @pytest.mark.parametrize("command", [
        ["eval", "zeta", "--s", "2", "--q", "0.5"],
        ["table", "zeta", "--s", "2", "--q-list", "1/2,0.9"],
    ])
    def test_removed_stopping_flag_is_a_usage_error(self, command, capsys):
        # every series stops on its proven tail bound, so eps and
        # max-terms are the only stopping options
        with pytest.raises(SystemExit) as exc:
            main([*command, "--consecutive-small", "3"])
        assert exc.value.code == 2
        assert "--consecutive-small" in capsys.readouterr().err

    def test_verify_all_passes(self):
        proc = run_cli("verify", "all", "--seed", "0")
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.rstrip().endswith(b"checks")


class TestVerifyOutput:
    def test_json_report_shape(self, capsys):
        assert main(["verify", "padic", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["suites"] == ["padic"]
        assert all({"name", "passed", "detail"} <= set(c) for c in report["checks"])

    def test_text_lines(self, capsys):
        assert main(["verify", "identities"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1].startswith("ok ")

    def test_padic_pin_mismatch_is_a_failed_check(self, monkeypatch):
        # the valuations against the wrong reference 1/2 are the pinned [0, 0],
        # so only the comparison with the closed form E_1(4) = -1/2 fails
        from qeuler import _verify

        monkeypatch.setattr(_verify, "_PADIC_PINS", [(1, 1, 2, F(1, 2), [0, 0])])
        failed = [c for c in _verify.suite_padic(0) if not c.passed]
        assert [c.name for c in failed] == ["padic/convergence-m1-k1"]
        assert "!= closed form -1/2" in failed[0].detail

    # name and detail of every failing check under the three faults injected
    # below, so a failing run reports its first offending case as before
    INJECTED_FAILURES = [
        ("identities/E2-closed-form", "first failure at q=1/2: residual = 1/7"),
        ("identities/mixed-diagonal", "first failure at m=2: residual = 1/7"),
        ("identities/classical-limit",
         "first failure at m=2 k=1: |0.14285739285739285 - 0.0| = 0.14285739285739285 > 0.0001"),
        ("interpolation/zeta-neg-int", "first failure at m=2 q=1/2: residual = -1/7"),
        ("interpolation/continuation-terminates",
         "first failure at m=2 q=1/2: |(0.20000000000000018+0j) - 0.34285714285714286| "
         "= 0.14285714285714268 > 1e-12"),
        ("padic/convergence-m2-k1",
         "valuations [1, 2, 3, 4, 5, 6] (pinned [1, 2, 3, 4, 5, 6]), reference -3/34 "
         "!= closed form 13/238"),
        ("padic/convergence-m2-k2",
         "valuations [1, 2, 3] (pinned [1, 2, 3]), reference -110/221 "
         "!= closed form -549/1547"),
        ("characters/orthogonality-exact", "first failure at d=3, chi=0, psi=1"),
        ("characters/column-orthogonality", "first failure at d=3 n=0"),
        ("methods/zeta-direct-vs-continuation",
         "first failure at s=1 q=0.3: |(-0.31952654842490574+0j) - (-0.3195268679516682+0j)| "
         "= 3.195267624378495e-07 > 1e-09"),
        ("methods/seeded-spot-check",
         "first failure at s=2 q=14/23: |(-0.5268798247513369+0j) - (-0.5268803516312279+0j)| "
         "= 5.268798910496031e-07 > 1e-09"),
    ]

    def test_failing_details_are_pinned(self, monkeypatch, capsys):
        # E_2 and E_{2,2} off by 1/7, the direct zeta route off by one part
        # in 10^6, and no cyclotomic sum vanishing
        from qeuler import _verify

        higher, mixed = _verify.qeuler_higher, _verify.qeuler_mixed
        direct = _verify.euler_zeta_q_direct

        def shifted_higher(m, k, q):
            return higher(m, k, q) + (F(1, 7) if m == 2 else 0)

        def shifted_mixed(kdeg, m, q):
            return mixed(kdeg, m, q) + (F(1, 7) if kdeg == m == 2 else 0)

        def scaled_direct(*args):
            result = direct(*args)
            return dataclasses.replace(result, value=result.value * (1 + 1e-6))

        monkeypatch.setattr(_verify, "qeuler_higher", shifted_higher)
        monkeypatch.setattr(_verify, "qeuler_mixed", shifted_mixed)
        monkeypatch.setattr(_verify, "euler_zeta_q_direct", scaled_direct)
        monkeypatch.setattr(_verify, "_exponent_sum_is_zero", lambda exponents, order: False)
        assert main(["verify", "all", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        failed = [(c["name"], c["detail"]) for c in report["checks"] if not c["passed"]]
        assert failed == self.INJECTED_FAILURES


class TestTableFormats:
    def test_json_table(self, capsys):
        assert main(["table", "classical", "--m", "0..3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [F(r["value"]["num"], r["value"]["den"]) for r in rows] == [
            F(1), F(-1, 2), F(0), F(1, 4)
        ]

    def test_q_list_sweep(self, capsys):
        assert main(["table", "qeuler", "--m-fixed", "1", "--q-list",
                     "1/3,1/2,2/3", "--exact"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "q,value"
        assert [line.split(",")[1] for line in out[1:]] == ["-1/2"] * 3

    def test_sweep_must_be_unique(self, capsys):
        assert main(["table", "qeuler", "--q", "1/2", "--m", "0..2",
                     "--q-list", "1/2"]) == 2


class TestNonFiniteAndHugeS:
    @pytest.mark.parametrize("s", ["inf", "-inf", "nan", "1,inf", "2,nan", "-nan", "-Infinity",
                                   "-1e999"])
    def test_non_finite_s_is_rejected_as_usage_error(self, s, capsys):
        # _parse_s raises DomainError; argparse reports it against --s, and
        # a "-"-leading value reaches it rather than reading as an option
        with pytest.raises(SystemExit) as exc:
            main(["eval", "zeta", "--s", s, "--q", "0.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --s" in err
        assert f"argument --s: s must be finite, got {s!r}" in err

    def test_an_option_after_a_value_option_is_not_its_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "zeta", "--s", "--q", "0.5"])
        assert exc.value.code == 2
        assert "argument --s: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # true values about 1.2e315 and 3.1e340: the n = 0 term alone
        # (1+q) [x]_q**(-s) is outside the double range
        ["eval", "hurwitz", "--s", "1000", "--x", "0.4", "--q", "0.5"],
        ["eval", "hurwitz", "--s", "800", "--x", "0.3", "--q", "0.5"],
    ])
    def test_overflow_is_reported_as_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qeuler: error: eval hurwitz (route continuation): ")
        # the n = 0 term is the first of the shifted continuation's head
        assert "term n = 0 of the defining series" in err

    def test_direct_term_beyond_double_range_is_reported_as_overflow(self, capsys):
        # the n = 0 term, 1.5 [0.1]_q**-2000, is about 1e1746
        argv = ["eval", "hurwitz", "--s", "2000", "--x", "0.1", "--q", "0.5",
                "--method", "direct"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qeuler: error: eval hurwitz (route direct): ")
        assert "term n = 0 of the defining series" in err

    def test_large_s_near_one_direct_returns_a_value(self, capsys):
        # [2]**2000 is about e**1385, but the value is -0.27
        assert main(["eval", "zeta", "--s", "2000", "--q", "0.999", "--method", "direct"]) == 0
        out = json.loads(capsys.readouterr().out)
        # mpmath at 40 digits: -(1+q) q**2000 at q = 999/1000, the later terms below 1e-600
        assert abs(out["value"]["re"] - -0.2702646508696019) <= out["err"]

    def test_non_finite_term_is_non_convergence(self, capsys):
        # the continuation stops at its first NaN term instead of summing 10,000
        assert main(["eval", "zeta", "--s", "2000", "--q", "0.5"]) == 3
        assert "term 220 is non-finite" in capsys.readouterr().err


class TestRefusedOptionValue:
    # each argparse converter's DomainError reaches stderr after the
    # option's name, with exit code 2, never as "invalid _parse_... value"
    @pytest.mark.parametrize("argv,line", [
        (["eval", "zeta", "--s", "x", "--q", "0.5"], "argument --s: cannot parse s 'x'"),
        (["eval", "zeta", "--s", "1,2,3", "--q", "0.5"],
         "argument --s: s must be 're' or 're,im', got '1,2,3'"),
        (["eval", "zeta", "--s", "inf", "--q", "0.5"], "argument --s: s must be finite, got 'inf'"),
        (["eval", "zeta", "--s", "2", "--q", "1/0"], "argument --q: cannot parse rational '1/0'"),
        (["table", "zeta", "--q", "1/2", "--s-grid", "3..1"],
         "argument --s-grid: empty range '3..1'"),
        (["table", "qeuler", "--q", "1/2", "--m", "a..b"],
         "argument --m: cannot parse range 'a..b' (expected 'a..b')"),
        (["table", "qeuler", "--m-fixed", "1", "--q-list", "1/2,x"],
         "argument --q-list: cannot parse rational 'x'"),
    ], ids=["s-text", "s-parts", "s-inf", "q", "s-grid", "m-range", "q-list"])
    def test_the_reason_reaches_stderr(self, argv, line, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert line in err
        assert "_parse" not in err

    def test_x_is_refused_at_evaluation(self, capsys):
        # --x is parsed by the function that reads it, after argparse
        with pytest.raises(DomainError, match="cannot parse rational '1/0'"):
            cli._parse_rational("1/0")
        argv = ["eval", "hurwitz", "--s", "-2", "--x", "1/0", "--q", "1/8", "--exact"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("qeuler: error: cannot parse rational '1/0'")


class TestTableSweepValidation:
    @pytest.mark.parametrize("argv", [
        ["table", "classical", "--q-list", "1/2"],
        ["table", "classical", "--s-grid", "-2..0"],
        ["table", "zeta", "--q", "1/2", "--m", "0..2"],
        ["table", "qeuler", "--q", "1/2", "--s-grid", "-2..0"],
    ])
    def test_sweep_over_a_parameter_the_function_lacks(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qeuler: error:")

    def test_numeric_zeta_rows_match_eval(self, capsys):
        assert main(["table", "zeta", "--s", "2", "--q-list", "1/2,0.9", "--format",
                     "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        for q, row in zip(["1/2", "0.9"], rows):
            assert main(["eval", "zeta", "--s", "2", "--q", q]) == 0
            assert json.loads(capsys.readouterr().out) == row
