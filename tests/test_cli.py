"""Command-line interface: dispatch, formats, exit codes, determinism."""

from __future__ import annotations

import json
import sys

import pytest

from goldencalc.binomials import fibonomial
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
        assert {"profile", "seed", "entries", "summary", "diagnostics"} <= set(report)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["known_deviation"] == 3
        for entry in report["entries"]:
            assert {"id", "statement", "range", "tolerance", "max_residual",
                    "status", "notes"} == set(entry)

    def test_report_written_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run_command(["verify", "--report", str(target)])
        assert code == EXIT_OK
        data = json.loads(target.read_text())
        assert data["value"]["summary"]["fail"] == 0

    def test_fault_injection_fails_with_exit_code(self):
        code, record = run_command(["verify", "--profile", "strict",
                                    "--inject-fault", "oscillator.fock-normalization"])
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

    def test_unwritable_path_reported(self):
        code, _ = run_command(["plot-data", "ratios", "--n-max", "3",
                               "--output", "/nonexistent-dir/x.csv"])
        assert code in (EXIT_USAGE, EXIT_DOMAIN)


class TestRecordMetadata:
    def test_record_carries_command_and_params(self):
        _, record = run_command(["fib", "7"])
        assert record.command == "fib"
        assert record.params == {"n": 7}
        assert record.precision == 34


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
