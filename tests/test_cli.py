"""Command-line interface: dispatch, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import goldencalc
from goldencalc import angular, cli, oscillator
from goldencalc.binomials import fibonomial
from goldencalc.calculus import golden_trig
from goldencalc.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, run_command
from goldencalc.core import fib_exact


def payload(argv):
    code, record = run_command(argv)
    assert code == EXIT_OK, f"{argv} exited {code}"
    return record.payload


class TestDispatch:
    def test_fib(self):
        assert payload(["fib", "7"]) == "13\n"
        assert payload(["fib", "0"]) == "0\n"
        assert payload(["fib", "-3"]) == "2\n"

    def test_fibonomial(self):
        assert payload(["fibonomial", "5", "2"]) == "15\n"

    def test_invert(self):
        assert payload(["invert-n", "55", "--parity", "even"]) == "10\n"

    def test_unknown_subcommand(self):
        code, record = run_command(["nosuchcmd"])
        assert code == EXIT_USAGE and record is None

    def test_bad_argument_type(self):
        code, _ = run_command(["fib", "seven"])
        assert code == EXIT_USAGE

    def test_domain_error_exit(self):
        code, _ = run_command(["fib", "2000000"])
        assert code == EXIT_DOMAIN
        code, _ = run_command(["invert-n", "4", "--parity", "even"])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("argv", [
        ["ratios", "--n-max", "10000000"],
        ["plot-data", "ratios", "--n-max", "10000000", "--output", "unused.csv"],
        ["plot-data", "casimir_ratios", "--n-max", "10000000", "--output", "unused.csv"],
    ])
    def test_ratio_bounds_exit(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, record = run_command(argv)
        assert code == EXIT_DOMAIN and record is None
        assert not (tmp_path / "unused.csv").exists()

    def test_help_exits_zero(self):
        code, _ = run_command(["--help"])
        assert code == EXIT_OK


    @pytest.mark.parametrize("argv", [
        ["fibx", "abc"],
        ["exp", "abc"],
        ["trig", "abc", "--kind", "cos_F"],
        ["deriv", "0,0,1", "--x", "abc"],
        ["integrate", "0,0,1", "--x", "abc"],
        ["limit", "abc"],
        ["deriv", ""],
        ["integrate", "", "--x", "1"],
    ])
    def test_malformed_real_is_usage_error(self, argv, capsys):
        code, record = run_command(argv)
        assert code == EXIT_USAGE and record is None
        err = capsys.readouterr().err
        if "" in argv:  # an empty coefficient list parses as one empty coefficient
            assert err.startswith("error: cannot parse coefficient list '': ")
        else:
            assert err == "error: 'abc' is not a real number\n"

    def test_non_finite_real_is_domain_error(self):
        for argv in (["exp", "inf"], ["deriv", "0,0,1", "--x", "inf"],
                     ["deriv", "0,0,1", "--x", "-inf"], ["deriv", "0,0,1", "--x", "nan"]):
            code, record = run_command(argv)
            assert code == EXIT_DOMAIN and record is None, argv

    @pytest.mark.parametrize("argv", [
        ["deriv", "0,0,1", "--x", "2"], ["integrate", "0,0,1", "--x", "1"], ["exp", "1"],
        ["trig", "1", "--kind", "Cosh_F"],
    ])
    def test_precision_below_bound_is_domain_error(self, argv, capsys):
        code, record = run_command(["--precision", "15"] + argv)
        assert code == EXIT_DOMAIN and record is None
        assert capsys.readouterr().err == "domain error: precision must be at least 16 digits\n"

    def test_exact_derivative_at_any_precision(self):
        assert payload(["--precision", "15", "deriv", "0,0,1"]) == "0,1\n"

    def test_invert_at_any_precision(self):
        # the exact round trip decides the index, so invert-n reads no precision
        argv = ["invert-n", "55", "--parity", "even"]
        assert payload(["--precision", "15"] + argv) == payload(["--precision", "16"] + argv) == "10\n"

    def test_integrate_has_no_term_count(self):
        code, _ = run_command(["integrate", "0,0,1", "--x", "1", "--terms", "5"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv,message", [
        (["fibx", "1", "nan"], "Re z and Im z must be finite"),
        (["fibx", "nan"], "Re z and Im z must be finite"),
        (["fibx", "2000"], "|Re z| and |Im z| must not exceed 1000"),
    ])
    def test_fibx_domain_messages(self, argv, message, capsys):
        code, record = run_command(argv)
        assert code == EXIT_DOMAIN and record is None
        assert capsys.readouterr().err == f"domain error: {message}\n"


class TestFormats:
    def test_spectrum_csv_rows(self):
        text = payload(["spectrum", "--n-max", "3", "--hbar-omega", "1",
                        "--format", "csv"])
        lines = text.strip().splitlines()
        assert lines[0] == "n,E_n"
        assert lines[1:] == ["0,0.5", "1,1", "2,1.5", "3,2.5"]

    def test_json_schema_keys(self):
        for argv in (["fib", "9"], ["poly", "2"], ["ratios", "--n-max", "4"],
                     ["spectrum", "--n-max", "2"], ["limit", "1", "--n", "40"],
                     ["exp", "1"], ["angmom", "--j", "1"]):
            data = json.loads(payload(["--format", "json"] + argv))
            assert {"command", "params", "precision"} <= set(data)
            assert "value" in data or "values" in data

    def test_complex_serialization(self):
        data = json.loads(payload(["--format", "json", "fibx", "0.5"]))
        assert set(data["value"]) == {"re", "im"}
        text = payload(["--format", "csv", "fibx", "0.5"])
        assert text.splitlines()[0] == "re,im"

    @pytest.mark.parametrize("dps", [16, 34, 100])
    def test_fibx_at_integers_prints_a_zero_imaginary_part(self, dps):
        # F_n is real at every integer n: each format prints F_n and an imaginary part of exactly 0
        for n in range(-60, 61):
            argv = ["--precision", str(dps), "fibx", str(n)]
            plain = payload(argv).strip()
            assert plain.startswith("(") and plain.endswith(" + 0.0j)"), (n, plain)
            assert Decimal(plain[1:-len(" + 0.0j)")]) == fib_exact(n), (n, plain)
            value = json.loads(payload(["--format", "json"] + argv))["value"]
            assert value["im"] == "0.0" and Decimal(value["re"]) == fib_exact(n), (n, value)
            re, im = payload(["--format", "csv"] + argv).splitlines()[1].split(",")
            assert im == "0.0" and Decimal(re) == fib_exact(n), (n, re, im)

    def test_csv_always_has_header(self):
        for argv in (["fib", "3"], ["ratios", "--n-max", "3"],
                     ["binom", "2"], ["verify", "--only", "core.addition-law"]):
            text = payload(["--format", "csv"] + argv)
            header = text.splitlines()[0]
            assert header
            assert not header[0].isdigit()

    def test_global_flags_after_subcommand(self):
        asbefore = payload(["--format", "json", "fib", "7"])
        asafter = payload(["fib", "7", "--format", "json"])
        assert asbefore == asafter


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["--format", "json", "fibx", "0.25", "0.5"],
        ["--format", "csv", "spectrum", "--n-max", "5"],
        ["--format", "json", "verify", "--only", "core"],
        ["--format", "json", "exp", "1.5", "--kind", "big_E"],
    ])
    def test_byte_identical_across_runs(self, argv):
        first = payload(list(argv))
        second = payload(list(argv))
        assert first == second

    def test_precision_changes_output(self):
        a = payload(["--precision", "20", "fibx", "0.5"])
        b = payload(["--precision", "34", "fibx", "0.5"])
        assert a != b


class TestVerifyCommand:
    def test_default_run_green(self):
        code, record = run_command(["verify"])
        assert code == EXIT_OK
        assert "known-deviation 3" in record.payload.splitlines()[-1]

    def test_json_report_schema(self):
        code, record = run_command(["--format", "json", "verify"])
        assert code == EXIT_OK
        data = json.loads(record.payload)
        assert {"command", "params", "precision", "value"} <= set(data)
        report = data["value"]
        assert {"precision", "seed", "entries", "summary", "diagnostics"} <= set(report)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["known_deviation"] == 3
        for entry in report["entries"]:
            assert {"id", "statement", "range", "tolerance", "max_residual",
                    "status", "notes"} == set(entry)

    def test_json_margins_past_the_float_range(self):
        report = json.loads(payload(["--precision", "400", "--format", "json", "verify",
                                     "--only", "core.real-addition"]))["value"]
        (entry,) = report["entries"]
        assert entry["tolerance"] == "1.0e-397"
        assert 0 < mp.mpf(entry["max_residual"]) <= mp.mpf("1e-397")
        rows = payload(["--precision", "400", "--format", "csv", "verify",
                        "--only", "core.real-addition"]).splitlines()
        assert rows[1] == f"core.real-addition,pass,{entry['max_residual']}"
        plain = payload(["--precision", "400", "verify", "--only", "core.real-addition"]).splitlines()[0]
        shown = Decimal(plain.split()[-1])  # 1.292e-399, not the 0.000e+00 a float would print
        assert shown != 0 and abs(shown - Decimal(entry["max_residual"])) <= Decimal("5e-403")

    @pytest.mark.parametrize("text, shown", [("0.0", "0.000e+00"), ("3.0e-9", "3.000e-09"),
                                             ("1.29162309037008e-399", "1.292e-399"),
                                             ("2.77555756156289e-17", "2.776e-17"), ("123.456", "1.235e+02")])
    def test_plain_residual_shape(self, text, shown):
        assert cli._sci(text) == shown

    def test_precision_below_bound_is_domain_error(self, capsys):
        code, record = run_command(["--precision", "15", "verify"])
        assert code == EXIT_DOMAIN and record is None
        assert capsys.readouterr().err == "domain error: precision must be at least 16 digits\n"

    def test_csv_residuals_are_numbers(self):
        rows = [line.split(",") for line in payload(["--format", "csv", "verify"]).splitlines()[1:]]
        residuals = [row[2] for row in rows if row[2]]
        assert len(residuals) == len(rows)
        for cell in residuals:
            float(cell)

    def test_report_written_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run_command(["verify", "--report", str(target)])
        assert code == EXIT_OK
        data = json.loads(target.read_text())
        assert data["value"]["summary"]["fail"] == 0

    def test_unwritable_report_is_domain_error(self, capsys):
        code, record = run_command(["verify", "--report", "/nonexistent-dir/x.json"])
        assert code == EXIT_DOMAIN and record is None
        assert capsys.readouterr().err.startswith("domain error: cannot write '/nonexistent-dir/x.json'")

    def test_fault_injection_fails_with_exit_code(self, monkeypatch):
        build = oscillator.build_ladder

        def corrupted(dim):  # the weight F_1 read as 2
            ladder = build(dim)
            return replace(ladder, shift=replace(ladder.shift, sq=(2,) + ladder.shift.sq[1:]))

        monkeypatch.setattr(oscillator, "build_ladder", corrupted)
        code, record = run_command(["verify", "--only", "oscillator.fock-normalization"])
        assert code == EXIT_VERIFY
        assert "fail 1" in record.payload.splitlines()[-1]

    def test_empty_filter_is_usage_error(self):
        code, record = run_command(["verify", "--only", "nonexistent"])
        assert code == EXIT_USAGE and record is None

    def test_seed_flows_into_report(self):
        code, record = run_command(["--format", "json", "--seed", "5", "verify",
                                    "--only", "core.real-recurrence"])
        data = json.loads(record.payload)
        assert data["value"]["seed"] == 5


class TestPlotData:
    def test_ratios_file(self, tmp_path):
        out = tmp_path / "ratios.csv"
        code, record = run_command(["plot-data", "ratios", "--n-max", "5",
                                    "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 6
        assert abs(float(lines[-1].split(",")[1]) - 1.6) < 0.01

    def test_spectrum_single_row(self, tmp_path):
        out = tmp_path / "levels.csv"
        run_command(["plot-data", "spectrum", "--n-max", "0", "--output", str(out)])
        assert out.read_text() == "n,E_n\n0,0.5\n"

    def test_casimir_rows(self, tmp_path):
        out = tmp_path / "cas.csv"
        run_command(["plot-data", "casimir_ratios", "--n-max", "4",
                     "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,value"
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert values == [-2.0, -3.0, -2.5]

    @pytest.mark.parametrize("n_max", ["-5", "1", "2"])
    def test_casimir_below_three_is_refused(self, n_max, tmp_path, capsys):
        # the library's own bound (casimir_ratio refuses j_max < 3), named as the option the user typed
        out = tmp_path / "cas.csv"
        code, record = run_command(["plot-data", "casimir_ratios", "--n-max", n_max, "--output", str(out)])
        assert code == EXIT_DOMAIN and record is None
        assert capsys.readouterr().err == "domain error: n_max must be at least 3\n"
        assert not out.exists()

    def test_unwritable_path_reported(self):
        code, _ = run_command(["plot-data", "ratios", "--n-max", "3",
                               "--output", "/nonexistent-dir/x.csv"])
        assert code in (EXIT_USAGE, EXIT_DOMAIN)


class TestRecordMetadata:
    def test_record_carries_command_and_params(self):
        envelope = json.loads(payload(["--format", "json", "fib", "7"]))
        assert envelope["command"] == "fib"
        assert envelope["params"] == {"n": 7}
        assert envelope["precision"] == 34


def _refuse(*args):
    raise AssertionError("a renderer of a format that was not requested ran")


class TestLazyRendering:
    """Each command renders only the format it was asked for."""

    EVERY_COMMAND = [
        ["fib", "7"], ["fibx", "0.5"], ["fibonomial", "6", "3"], ["binom", "3"], ["poly", "3"],
        ["deriv", "0,0,1"], ["deriv", "0,0,1", "--x", "2"], ["exp", "1"],
        ["trig", "0.7", "--kind", "sin_F"], ["integrate", "0,0,1", "--x", "1"],
        ["spectrum", "--n-max", "3"], ["ratios", "--n-max", "5"], ["angmom", "--j", "1"],
        ["angmom", "--j", "1", "--variant", "symmetric"], ["angmom", "--j", "3/2", "--variant", "tilde"],
        ["invert-n", "55", "--parity", "even"], ["limit", "0.5"], ["verify", "--only", "core"],
        ["plot-data", "ratios", "--n-max", "5", "--output", "out.csv"],
    ]

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_no_csv_cells_outside_csv(self, fmt, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        expected = [payload(["--format", fmt] + argv) for argv in self.EVERY_COMMAND]
        monkeypatch.setattr(cli, "_csv_cells", _refuse)
        for argv, text in zip(self.EVERY_COMMAND, expected):
            assert payload(["--format", fmt] + argv) == text, argv

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_verify_shapes_residuals_only_for_plain(self, fmt, monkeypatch):
        expected = payload(["--format", fmt, "verify"])
        monkeypatch.setattr(cli, "_sci", _refuse)
        assert payload(["--format", fmt, "verify"]) == expected


def _monomial(x_power, y_power, unit_part):
    return {"coefficient": {"phi_part": 0, "unit_part": unit_part},
            "x_power": x_power, "y_power": y_power}


_VERIFY_STATUSES = [
    ("angular.casimir-forms", "pass"), ("angular.docagne-identity", "pass"),
    ("angular.hermiticity", "pass"), ("angular.relabeling", "pass"),
    ("angular.tilde-anticommutator", "pass"),
    ("calculus.antiderivative-convention", "known-deviation"),
    ("calculus.binomial-derivative", "pass"), ("calculus.exp-eigenrelations", "pass"),
    ("calculus.leibnitz-general-alpha", "pass"), ("calculus.leibnitz-rule-i", "pass"),
    ("calculus.leibnitz-rule-ii", "pass"), ("calculus.quotient-rules", "pass"),
    ("calculus.summation-formula", "pass"), ("calculus.taylor-basis", "pass"),
    ("core.addition-law", "pass"), ("core.division-law", "pass"),
    ("core.lucas-combinations", "pass"), ("core.multiplication-law", "pass"),
    ("core.pi-extension-scale", "known-deviation"), ("core.real-addition", "pass"),
    ("core.real-recurrence", "pass"), ("core.subtraction-law", "pass"),
    ("fibonomial.factored-polynomials", "pass"), ("fibonomial.form-agreement", "pass"),
    ("fibonomial.noncomm-bridge", "pass"), ("fibonomial.root-structure", "pass"),
    ("fibonomial.symmetry-integrality", "pass"), ("oscillator.diagonal-identities", "pass"),
    ("oscillator.fock-normalization", "pass"), ("oscillator.hamiltonian-diagonal", "pass"),
    ("oscillator.number-distinct", "pass"),
    ("oscillator.number-inversion-branch", "known-deviation"),
]


def _real_matrix(rows):
    return [[{"im": "0.0", "re": re} for re in row] for row in rows]


class TestOutputContract:
    """Full payloads of exact commands, pinned; a dict stands for its JSON rendering.

    The series commands (exp, trig, integrate) are pinned too, now that each
    series stops on a proven tail bound at the requested precision; their
    digits were checked against independent mpmath sums at 120 digits.
    """

    @pytest.mark.parametrize("argv,expected", [
        (["fib", "7"], "13\n"),
        (["fibx", "2.5", "1"],
         "(1.317486920782086270369389372568689 + 0.6841868920401788569005309977673571j)\n"),
        (["fibonomial", "5", "2"], "15\n"),
        (["invert-n", "832040", "--parity", "even"], "30\n"),
        (["limit", "1"],
         "finite:  (1.313425861129575856281587020050988 + 0.0j)\n"
         "jackson: (1.313425861129575856281587020050988 + 0.0j)\n"
         "difference: 2.14239e-34\n"),
        (["binom", "6"],
         "(1+0φ)x^6 + (8+0φ)x^5y + (-40+0φ)x^4y^2 + (-60+0φ)x^3y^3 + (40+0φ)x^2y^4"
         " + (8+0φ)xy^5 + (-1+0φ)y^6\n"),
        (["binom", "6", "--format", "json"],
         {"command": "binom", "params": {"form": "product", "n": 6}, "precision": 34,
          "values": [_monomial(0, 6, -1), _monomial(1, 5, 8), _monomial(2, 4, 40),
                     _monomial(3, 3, -60), _monomial(4, 2, -40), _monomial(5, 1, 8),
                     _monomial(6, 0, 1)]}),
        (["binom", "6", "--format", "csv"],
         "x_power,y_power,coeff_unit,coeff_phi\n0,6,-1,0\n1,5,8,0\n2,4,40,0\n"
         "3,3,-60,0\n4,2,-40,0\n5,1,8,0\n6,0,1,0\n"),
        (["spectrum", "--n-max", "10", "--format", "csv"],
         "n,E_n\n0,0.5\n1,1\n2,1.5\n3,2.5\n4,4\n5,6.5\n6,10.5\n7,17\n8,27.5\n"
         "9,44.5\n10,72\n"),
        (["ratios", "--n-max", "5"], "1.0\n2.0\n1.5\n1.666666666666666666666666666666667\n1.6\n"),
        (["poly", "3", "--a", "1/2", "--format", "json"],
         {"command": "poly", "params": {"a": "0.5", "n": 3}, "precision": 34,
          "values": ["0.0625", "-0.25", "-0.5", "0.5"]}),
        (["deriv", "0,0,0,1"], "0,0,2\n"),
        (["limit", "1", "--format", "csv"],
         "finite_re,finite_im,jackson_re,jackson_im,difference\n"
         "1.313425861129575856281587020050988,0.0,1.313425861129575856281587020050988,0.0,2.14239e-34\n"),
    ])
    def test_payload(self, argv, expected):
        if isinstance(expected, dict):
            expected = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert payload(argv) == expected

    @pytest.mark.parametrize("argv,expected", [
        (["exp", "1"],
         "(3.70450289915406748719754896618188 + 0.0j) (terms used: 20, tail bound: 2.06335e-37)\n"),
        (["exp", "1", "--format", "json"],
         {"command": "exp", "params": {"kind": "small_e", "terms": 500, "x": "1"}, "precision": 34,
          "tail_bound": "2.063347444911026335860905064409795e-37", "terms_used": 20,
          "value": {"im": "0.0", "re": "3.70450289915406748719754896618188"}}),
        (["exp", "1", "--format", "csv"],
         "re,im,terms_used,tail_bound\n"
         "3.70450289915406748719754896618188,0.0,20,2.063347444911026335860905064409795e-37\n"),
        (["--precision", "60", "exp", "1"],
         "(3.70450289915406748719754896618187978517783483136062816921615 + 0.0j)"
         " (terms used: 26, tail bound: 8.79479e-65)\n"),
        (["--precision", "60", "exp", "1", "--format", "json"],
         {"command": "exp", "params": {"kind": "small_e", "terms": 500, "x": "1"}, "precision": 60,
          "tail_bound": "8.79478987444171533555929332296793002770567356313063360940473e-65",
          "terms_used": 26,
          "value": {"im": "0.0",
                    "re": "3.70450289915406748719754896618187978517783483136062816921615"}}),
        (["--precision", "60", "exp", "1", "--format", "csv"],
         "re,im,terms_used,tail_bound\n"
         "3.70450289915406748719754896618187978517783483136062816921615,0.0,26,"
         "8.79478987444171533555929332296793002770567356313063360940473e-65\n"),
        (["trig", "0.7", "--kind", "Cosh_F"],
         "(0.5495273421230914109953555918781842 + 0.0j) (terms used: 19, tail bound: 1.59112e-36)\n"),
        (["trig", "0.7", "--kind", "Cosh_F", "--format", "json"],
         {"command": "trig", "params": {"kind": "Cosh_F", "terms": 500, "x": "0.7"}, "precision": 34,
          "tail_bound": "1.591119918151342977846909143524583e-36", "terms_used": 19,
          "value": {"im": "0.0", "re": "0.5495273421230914109953555918781842"}}),
        (["trig", "0.7", "--kind", "Cosh_F", "--format", "csv"],
         "re,im,terms_used,tail_bound\n"
         "0.5495273421230914109953555918781842,0.0,19,1.591119918151342977846909143524583e-36\n"),
        (["integrate", "0,0,1", "--x", "1"], "(0.5 + 0.0j)\n"),
        (["integrate", "0,0,1", "--x", "1", "--format", "json"],
         {"command": "integrate", "params": {"coeffs": "0,0,1", "x": "1"}, "precision": 34,
          "value": {"im": "0.0", "re": "0.5"}}),
        (["integrate", "0,0,1", "--x", "1", "--format", "csv"], "re,im\n0.5,0.0\n"),
        # no term up to index 1002 is proven (2|x| > F_1002): the bound is +inf and the value the partial sum
        (["trig", "1e300", "--kind", "cos_F"],
         "(8.949659984082400741691762711517467e+123998 + 0.0j) (terms used: 501, tail bound: +inf)\n"),
        (["trig", "1e300", "--kind", "cos_F", "--format", "csv"],
         "re,im,terms_used,tail_bound\n8.949659984082400741691762711517467e+123998,0.0,501,+inf\n"),
        (["deriv", "1/3,2/7,5/11", "--x", "0.5", "--format", "csv"], "value\n0.512987012987012987012987012987013\n"),
    ])
    def test_series_payload(self, argv, expected):
        self.test_payload(argv, expected)

    def test_capped_trig_bound_covers_the_full_sum(self):
        # five terms at x = 100 stop far from convergence: the CSV bound must cover what they leave out
        header, row = payload(["trig", "100", "--kind", "cos_F", "--terms", "5", "--format", "csv"]).splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["terms_used"] == "6"
        full = golden_trig(100, "cos_F", precision=60).value.real
        with mp.workdps(60):
            assert abs(mp.mpf(cells["re"]) - full) <= mp.mpf(cells["tail_bound"])

    @pytest.mark.parametrize("argv,expected", [
        (["angmom", "--j", "1"],
         "variant standard_F, j = 1\n"
         "J+ =\n[[0.+0.j 0.+0.j 0.+0.j]\n [1.+0.j 0.+0.j 0.+0.j]\n [0.+0.j 1.+0.j 0.+0.j]]\n"
         "J- =\n[[0.+0.j 1.+0.j 0.+0.j]\n [0.+0.j 0.+0.j 1.+0.j]\n [0.+0.j 0.+0.j 0.+0.j]]\n"
         "Jz =\n[[-1.+0.j  0.+0.j  0.+0.j]\n [ 0.+0.j  0.+0.j  0.+0.j]\n"
         " [ 0.+0.j  0.+0.j  1.+0.j]]\n"
         "Casimir eigenvalue = -1+0j (form difference 0.000e+00)\n"),
        (["angmom", "--j", "1", "--format", "json"],
         {"casimir_eigenvalue": {"im": "0.0", "re": "-1.0"}, "casimir_form_difference": 0.0,
          "command": "angmom", "params": {"j": "1", "variant": "standard"}, "precision": 34,
          "values": {"j_minus": _real_matrix([["0.0", "1.0", "0.0"], ["0.0", "0.0", "1.0"],
                                              ["0.0", "0.0", "0.0"]]),
                     "j_plus": _real_matrix([["0.0", "0.0", "0.0"], ["1.0", "0.0", "0.0"],
                                             ["0.0", "1.0", "0.0"]]),
                     "j_z": _real_matrix([["-1.0", "0.0", "0.0"], ["0.0", "0.0", "0.0"],
                                          ["0.0", "0.0", "1.0"]])}}),
        (["angmom", "--j", "1", "--format", "csv"],
         "operator,row,col,re,im\nj_plus,1,0,1.0,0.0\nj_plus,2,1,1.0,0.0\n"
         "j_minus,0,1,1.0,0.0\nj_minus,1,2,1.0,0.0\nj_z,0,0,-1.0,0.0\nj_z,2,2,1.0,0.0\n"),
        (["angmom", "--j", "2", "--variant", "tilde"],
         "variant tilde_F, j = 2\n"
         "J+ =\n"
         "[[ 0.      +0.j        0.      +0.j        0.      +0.j\n"
         "   0.      +0.j        0.      +0.j      ]\n"
         " [ 0.      +1.732051j  0.      +0.j        0.      +0.j\n"
         "   0.      +0.j        0.      +0.j      ]\n"
         " [ 0.      +0.j       -1.414214+0.j        0.      +0.j\n"
         "   0.      +0.j        0.      +0.j      ]\n"
         " [ 0.      +0.j        0.      +0.j        0.      -1.414214j\n"
         "   0.      +0.j        0.      +0.j      ]\n"
         " [ 0.      +0.j        0.      +0.j        0.      +0.j\n"
         "   1.732051+0.j        0.      +0.j      ]]\n"
         "J- =\n"
         "[[ 0.      +0.j        0.      +1.732051j  0.      +0.j\n"
         "   0.      +0.j        0.      +0.j      ]\n"
         " [ 0.      +0.j        0.      +0.j       -1.414214+0.j\n"
         "   0.      +0.j        0.      +0.j      ]\n"
         " [ 0.      +0.j        0.      +0.j        0.      +0.j\n"
         "   0.      -1.414214j  0.      +0.j      ]\n"
         " [ 0.      +0.j        0.      +0.j        0.      +0.j\n"
         "   0.      +0.j        1.732051+0.j      ]\n"
         " [ 0.      +0.j        0.      +0.j        0.      +0.j\n"
         "   0.      +0.j        0.      +0.j      ]]\n"
         "Jz =\n"
         "[[-2.+0.j  0.+0.j  0.+0.j  0.+0.j  0.+0.j]\n"
         " [ 0.+0.j -1.+0.j  0.+0.j  0.+0.j  0.+0.j]\n"
         " [ 0.+0.j  0.+0.j  0.+0.j  0.+0.j  0.+0.j]\n"
         " [ 0.+0.j  0.+0.j  0.+0.j  1.+0.j  0.+0.j]\n"
         " [ 0.+0.j  0.+0.j  0.+0.j  0.+0.j  2.+0.j]]\n"
         "tilde j=2: anti-commutator residual 0.000e+00, Casimir form difference 0.000e+00\n"),
    ])
    def test_angmom_payload(self, argv, expected):
        # the one command whose output numpy formats (array_str for plain, the matrices for json/csv)
        self.test_payload(argv, expected)

    def test_verify_csv_statuses(self):
        lines = payload(["--format", "csv", "verify"]).splitlines()
        assert [tuple(line.split(",")[:2]) for line in lines] == \
            [("id", "status")] + _VERIFY_STATUSES

    @pytest.mark.parametrize("precision", ["16", "34", "100"])
    def test_angmom_floats_print_their_shortest_decimal(self, precision):
        rows = payload(["--precision", precision, "--format", "csv", "angmom", "--j", "2"]).splitlines()
        assert rows[1] == "j_plus,1,0,1.7320508075688772,0.0"  # sqrt(3) as a double, at any precision
        data = json.loads(payload(["--precision", precision, "--format", "json", "angmom", "--j", "1/2"]))
        assert data["casimir_eigenvalue"] == {"re": "-0.2", "im": "-0.6"}

    @pytest.mark.parametrize("j", ["1", "3/2", "2"])
    def test_symmetric_commutator_residual(self, j):
        data = json.loads(payload(["--format", "json", "angmom", "--j", j, "--variant", "symmetric"]))
        assert data["commutator_residual"] == angular.verify_symmetric(Fraction(j)).residual


def _limit_reference(n: int):
    """(1 + 1/phi^n)_F^n and its distance from the n-term e_{-phi^2}(1/sqrt(5)), at 400 digits."""
    with mp.workdps(400):
        phi = (1 + mp.sqrt(5)) / 2
        finite = sum((-1) ** (k * (k - 1) // 2) * fibonomial(n, k) * phi ** (-n * k) for k in range(n + 1))
        q, x = -phi ** 2, 1 / mp.sqrt(5)
        jackson = term = mp.one
        basic = mp.zero  # [k]_q = 1 + q [k-1]_q
        for k in range(1, n + 1):
            basic = 1 + q * basic
            term = term * x / basic
            jackson += term
        return finite, abs(finite - jackson)


class TestLimit:
    @pytest.mark.parametrize("precision,n", [(16, 10), (16, 200), (34, 80), (60, 80), (100, 200)])
    def test_difference_matches_reference(self, precision, n):
        finite, diff = _limit_reference(n)
        if diff < mp.mpf(10) ** -precision * max(abs(finite), 1):
            expected = f"< 1e-{precision}"  # below the printed digits: only the bound is known
        else:
            expected = mp.nstr(diff, 6, strip_zeros=True)
        lines = payload(["--precision", str(precision), "limit", "1", "--n", str(n)]).splitlines()
        assert lines[-1] == f"difference: {expected}"


def _unlimited_str(value: int) -> str:
    """str(value) with the interpreter's int-to-str digit limit lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(previous)


class TestBigIntegers:
    """Exact results longer than Python's default 4300-digit str() limit."""

    CASES = [(["fibonomial", "300", "150"], lambda: fibonomial(300, 150)),
             (["fib", "30000"], lambda: fib_exact(30000))]

    @pytest.mark.parametrize("argv,value", CASES)
    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_every_format(self, argv, value, fmt):
        text = _unlimited_str(value())
        assert len(text) > 4300
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        out = payload(["--format", fmt] + argv)
        if fmt == "plain":
            assert out == text + "\n"
        elif fmt == "json":
            assert out.endswith(f'  "value": {text}\n}}\n')
        else:
            assert out.splitlines()[1].split(",")[-1] == text
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit  # restored after the command

    def test_largest_fibonacci_index(self):
        assert payload(["fib", "1000000"]) == _unlimited_str(fib_exact(10**6)) + "\n"


def _run_child(script: str, *args: str) -> None:
    """Run script in a fresh interpreter that imports this checkout's goldencalc."""
    src = str(Path(goldencalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestImportCost:
    """numpy loads only where a dense matrix is built, mpmath only at the first analytic call."""

    NUMPY_FREE = [
        ["fib", "7"], ["fibx", "2.5", "1"], ["fibonomial", "5", "2"], ["binom", "6"],
        ["poly", "3", "--a", "1/2"], ["deriv", "0,0,1", "--x", "2"], ["exp", "1"],
        ["trig", "0.7", "--kind", "Cosh_F"], ["integrate", "0,0,1", "--x", "1"], ["limit", "1"],
        ["spectrum", "--n-max", "10"], ["ratios", "--n-max", "5"],
        ["invert-n", "55", "--parity", "even"],
        ["plot-data", "casimir_ratios", "--n-max", "5", "--output", "OUTPUT"],
        ["verify"], ["--precision", "100", "verify"],
    ]

    def test_scalar_commands_never_load_numpy(self, tmp_path):
        argvs = [[str(tmp_path / "plot.csv") if a == "OUTPUT" else a for a in argv]
                 for argv in self.NUMPY_FREE]
        _run_child(
            "import json, sys\n"
            "import goldencalc\n"
            "assert 'numpy' not in sys.modules, 'import goldencalc'\n"
            "from goldencalc import cli\n"
            "assert 'numpy' not in sys.modules, 'import goldencalc.cli'\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code, record = cli.run_command(argv)\n"
            "    assert code == 0 and record is not None, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n",
            json.dumps(argvs))
        assert (tmp_path / "plot.csv").read_text().startswith("n,value\n")

    def test_angmom_loads_numpy(self):
        _run_child(
            "import sys\n"
            "from goldencalc import cli\n"
            "assert 'numpy' not in sys.modules\n"
            "code, record = cli.run_command(['angmom', '--j', '1'])\n"
            "assert code == 0 and record.payload.startswith('variant standard_F'), code\n"
            "assert 'numpy' in sys.modules\n")

    # the exact commands: integers, Fibonomials, Z[phi] and Q coefficients, no mpmath arithmetic
    MPMATH_FREE = [
        ["fib", "7"], ["fib", "-13"], ["fibonomial", "5", "2"], ["binom", "6"],
        ["binom", "6", "--form", "expansion"], ["poly", "3", "--a", "1/2"], ["poly", "4"],
        ["deriv", "1/3,2/7,5/11"], ["spectrum", "--n-max", "10"],
        ["spectrum", "--n-max", "5", "--hbar-omega", "7/3"],
        ["plot-data", "spectrum", "--n-max", "5", "--output", "OUTPUT"],
        ["angmom", "--j", "2"], ["--precision", "100", "angmom", "--j", "1/2", "--variant", "symmetric"],
        ["angmom", "--j", "49/2", "--variant", "tilde"],
    ]

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_exact_commands_never_load_mpmath(self, fmt, tmp_path):
        argvs = [[str(tmp_path / "spectrum.csv") if a == "OUTPUT" else a for a in argv]
                 for argv in self.MPMATH_FREE]
        _run_child(
            "import json, sys\n"
            "import goldencalc\n"
            "assert 'mpmath' not in sys.modules, 'import goldencalc'\n"
            "from goldencalc import cli\n"
            "assert 'mpmath' not in sys.modules, 'import goldencalc.cli'\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code, record = cli.run_command(['--format', sys.argv[2], *argv])\n"
            "    assert code == 0 and record is not None, argv\n"
            "    assert 'mpmath' not in sys.modules, argv\n",
            json.dumps(argvs), fmt)
        assert (tmp_path / "spectrum.csv").read_text().startswith("n,E_n\n")

    @pytest.mark.parametrize("argv", [["exp", "1"], ["verify"]])
    def test_analytic_commands_load_mpmath(self, argv):
        _run_child(
            "import json, sys\n"
            "from goldencalc import cli\n"
            "assert 'mpmath' not in sys.modules\n"
            "code, record = cli.run_command(json.loads(sys.argv[1]))\n"
            "assert code == 0 and record is not None, code\n"
            "assert 'mpmath' in sys.modules\n",
            json.dumps(argv))

    def test_import_loads_every_layer(self):
        # perfbench reads the seven layers from sys.modules after `import goldencalc, goldencalc.cli`
        _run_child(
            "import sys\n"
            "import goldencalc\n"
            "layers = ['core', 'binomials', 'calculus', 'oscillator', 'angular', 'verify']\n"
            "missing = [m for m in layers if 'goldencalc.' + m not in sys.modules]\n"
            "assert not missing, missing\n"
            "import goldencalc.cli\n"
            "assert 'goldencalc.cli' in sys.modules and 'mpmath' not in sys.modules\n")

    def test_import_builds_no_spectrum_ratios(self):
        _run_child(
            "from fractions import Fraction\n"
            "import goldencalc.cli\n"
            "from goldencalc import oscillator\n"
            "assert oscillator._RATIOS == (Fraction(2),), len(oscillator._RATIOS)\n")
