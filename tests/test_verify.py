"""The verification registry: coverage, statuses, determinism, fault injection."""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import goldencalc.binomials as binomials
import goldencalc.calculus as calculus
import goldencalc.verify as verify
from goldencalc.binomials import UnivarPoly
from goldencalc.cli import EXIT_OK, run_command
from goldencalc.core import DomainError
from goldencalc.verify import (
    DEFAULT_PRECISION,
    SUITES,
    Suite,
    SuiteContext,
    verify_all,
)

MANIFEST = json.loads((Path(__file__).parent / "identity_manifest.json").read_text())


@pytest.fixture(scope="module")
def default_report():
    return verify_all()


class TestRegistryCoverage:
    def test_ids_match_manifest(self):
        expected = set(MANIFEST["invariants"]) | set(MANIFEST["known_deviations"])
        assert {s.id for s in SUITES} == expected

    def test_each_identity_appears_once(self, default_report):
        ids = [e.id for e in default_report.entries]
        assert len(ids) == len(set(ids))
        assert set(ids) == {s.id for s in SUITES}

    def test_known_deviation_kinds(self):
        tagged = {s.id for s in SUITES if s.kind == "known-deviation"}
        assert tagged == set(MANIFEST["known_deviations"])

    def test_entries_sorted_by_id(self, default_report):
        ids = [e.id for e in default_report.entries]
        assert ids == sorted(ids)


class TestStatuses:
    def test_no_failures_default(self, default_report):
        assert default_report.summary["fail"] == 0

    def test_exactly_declared_deviations(self, default_report):
        dev = [e.id for e in default_report.entries if e.status == "known-deviation"]
        assert sorted(dev) == MANIFEST["known_deviations"]

    def test_deviations_never_pass(self, default_report):
        for e in default_report.entries:
            if e.id in MANIFEST["known_deviations"]:
                assert e.status in ("known-deviation", "fail")

    def test_clean_at_scaled_tolerances(self):
        for precision in (16, 60, 100, 400):
            report = verify_all(precision=precision)
            assert report.summary["fail"] == 0, precision

    def test_series_suite_past_the_default_term_cap(self):
        # at 1500 digits the Golden exponential needs more than 120 terms
        report = verify_all(precision=1500, only=["calculus.exp-eigenrelations"])
        assert [(e.id, e.status) for e in report.entries] == [("calculus.exp-eigenrelations", "pass")]

    def test_symmetric_diagnostics_present(self, default_report):
        assert any("symmetric" in d for d in default_report.diagnostics)


class TestDeterminism:
    def test_same_seed_same_json(self):
        a = json.dumps(verify_all(seed=7).to_dict(), sort_keys=True)
        b = json.dumps(verify_all(seed=7).to_dict(), sort_keys=True)
        assert a == b

    def test_cold_and_warm_memos_same_json(self, cold_memos):
        cold = json.dumps(verify_all(seed=7).to_dict(), sort_keys=True)
        assert json.dumps(verify_all(seed=7).to_dict(), sort_keys=True) == cold

    def test_seed_recorded(self):
        assert verify_all(seed=3).seed == 3


class TestFiltering:
    def test_prefix_filter(self):
        report = verify_all(only=["core"])
        assert all(e.id.startswith("core") for e in report.entries)
        assert len(report.entries) == 8
        code, record = run_command(["--format", "csv", "verify", "--only", "core"])  # a tuple of prefixes
        rows = record.payload.splitlines()[1:]
        assert code == EXIT_OK and [row.split(",")[0] for row in rows] == [e.id for e in report.entries]

    def test_exact_id_filter(self):
        report = verify_all(only=["calculus.summation-formula"])
        assert len(report.entries) == 1

    def test_empty_filter_rejected(self):
        with pytest.raises(DomainError):
            verify_all(only=["nonexistent"])

    @pytest.mark.parametrize("only", ["core", [1], ["core", 1]])
    def test_bare_string_or_non_string_prefix_refused(self, only):
        # a bare "core" would be the prefixes c, o, r, e: 22 suites instead of 8
        with pytest.raises(DomainError, match=re.escape(repr(only))):
            verify_all(only=only)


class TestFaultInjection:
    @pytest.fixture(autouse=True)
    def _fresh_builds(self, cold_memos):
        """A fault injected under a memoized builder reaches a fresh build, and no corrupted build outlives its test."""

    def test_fault_detected(self, monkeypatch):
        build = verify.oscillator.build_ladder

        def corrupted(dim):  # the weight F_1 read as 2
            ladder = build(dim)
            return replace(ladder, shift=replace(ladder.shift, sq=(2,) + ladder.shift.sq[1:]))

        monkeypatch.setattr(verify.oscillator, "build_ladder", corrupted)
        report = verify_all()
        assert report.summary["fail"] >= 1
        bad = [e for e in report.entries if e.status == "fail"]
        assert bad[0].id == "oscillator.fock-normalization"
        assert bad[0].notes == "failed at n=1"

    @pytest.mark.parametrize("mirror", [True, False], ids=["symmetric", "one-sided"])
    def test_corrupted_fibonomial_row_fails_symmetry_integrality(self, monkeypatch, mirror):
        """[37 5] off by one fails at (n=37, k=5), also when [37 32] is off alike and the row stays symmetric."""
        build = binomials._fibonomial_row

        def corrupted(n):
            row = list(build(n))
            if n == 37:
                row[5] += 1
                row[32] += mirror
            return tuple(row)

        monkeypatch.setattr(binomials, "_fibonomial_row", corrupted)
        (entry,) = verify_all(only=["fibonomial.symmetry-integrality"]).entries
        assert (entry.status, entry.notes) == ("fail", "failed at (n=37, k=5)")

    @pytest.mark.parametrize("max_degree, case", [
        (15, "Taylor round trip of P_15, a=1"),
        (6, "Taylor round trip of polynomial 0"),  # P_15 rebuilt right: the seeded draws still catch it
    ], ids=["every-polynomial", "up-to-degree-6"])
    def test_corrupted_taylor_reconstruct_fails_taylor_basis(self, monkeypatch, max_degree, case):
        """taylor_reconstruct with the constant coefficient off by one fails calculus.taylor-basis at its first case."""
        rebuild = calculus.taylor_reconstruct

        def corrupted(values):
            f = rebuild(values)
            if f.degree <= max_degree:
                f = UnivarPoly(coeffs=(f.coeffs[0] + 1, *f.coeffs[1:]))
            return f

        monkeypatch.setattr(calculus, "taylor_reconstruct", corrupted)
        (entry,) = verify_all(only=["calculus.taylor-basis"]).entries
        assert (entry.status, entry.notes) == ("fail", f"failed at {case}")

    def test_wrong_power_past_the_table_fails_lucas_combinations(self, monkeypatch):
        """phi^1200, walked past the shared Fibonacci table, off by one fails at its first case."""
        power = verify.phi_power_exact
        monkeypatch.setattr(verify, "phi_power_exact", lambda n: power(n) + (1 if n == 1200 else 0))
        (entry,) = verify_all(only=["core.lucas-combinations"]).entries
        assert (entry.status, entry.notes) == ("fail", "failed at even k=600")

    @pytest.mark.parametrize("exponent, n", [(0, 1), (5, 6), (-7, 8), (19, 20)])
    def test_wrong_phi_power_fails_form_agreement(self, monkeypatch, exponent, n):
        """phi^exponent off by one in the factor product fails at the first n whose factors take it."""
        power = binomials.phi_power_exact
        monkeypatch.setattr(binomials, "phi_power_exact", lambda e: power(e) + (1 if e == exponent else 0))
        (entry,) = verify_all(only=["fibonomial.form-agreement"]).entries
        assert (entry.status, entry.notes) == ("fail", f"failed at n={n}")

    def test_corrupted_normal_ordering_fails_noncomm_bridge(self, monkeypatch):
        """The x^4 y^3 coefficient of the normal-ordered (x+y)^7 off by one fails at (n=7, k=3)."""
        word = binomials.NoncommWord

        def corrupted(n, coeffs):
            if n == 7:
                coeffs = (*coeffs[:3], coeffs[3] + 1, *coeffs[4:])
            return word(n=n, coeffs=coeffs)

        monkeypatch.setattr(binomials, "NoncommWord", corrupted)
        (entry,) = verify_all(only=["fibonomial.noncomm-bridge"]).entries
        assert (entry.status, entry.notes) == ("fail", "failed at (n=7, k=3)")

    @pytest.mark.parametrize("index, notes", [
        (5, ["failed at (j=3, m=1)", "failed at n=2", "failed at (n=5, m=2)"]),
        # F_400 enters only the last pair, n = m = 200, of the addition law
        (400, ["exact integers for 0 <= m <= j <= 40", "failed at n=200", "exact in Z[phi] for 0 <= m <= n <= 100"]),
    ])
    def test_two_index_failure_notes(self, monkeypatch, index, notes):
        """A Fibonacci table with F_index off by one fails each suite that reads it at its first bad case."""
        fib_range = verify.fib_range

        def corrupted(lo, hi):
            fibs = fib_range(lo, hi)
            if lo <= index <= hi:
                fibs[index - lo] += 1
            return fibs

        monkeypatch.setattr(verify, "fib_range", corrupted)
        report = verify_all(only=["core.addition-law", "core.subtraction-law", "angular.docagne-identity"])
        assert [e.id for e in report.entries] == [
            "angular.docagne-identity", "core.addition-law", "core.subtraction-law"]
        assert [e.notes for e in report.entries] == notes
        assert [e.status for e in report.entries] == ["pass" if n.startswith("exact") else "fail" for n in notes]

    @pytest.mark.parametrize("seed", range(10))
    def test_corrupted_derivative_fails_exact_calculus_suites(self, monkeypatch, seed):
        """A Golden derivative that reads F_4 as F_4 + 1 fails all four product and quotient suites."""
        derive = verify.calculus.derive_poly

        def corrupted(f):
            d = derive(f)
            if f.degree < 4:
                return d
            coeffs = list(d.coeffs)
            coeffs[3] += f.coeffs[4]  # x^4 -> (F_4 + 1) x^3
            return UnivarPoly(coeffs=tuple(coeffs))

        monkeypatch.setattr(verify.calculus, "derive_poly", corrupted)
        report = verify_all(seed=seed, only=["calculus.leibnitz", "calculus.quotient-rules"])
        assert [(e.id, e.status) for e in report.entries] == [
            ("calculus.leibnitz-general-alpha", "fail"), ("calculus.leibnitz-rule-i", "fail"),
            ("calculus.leibnitz-rule-ii", "fail"), ("calculus.quotient-rules", "fail")]

    @pytest.mark.parametrize("part", ["denominator", "factor"])
    @pytest.mark.parametrize("n", sorted(verify._PRINTED_POLYNOMIAL_FACTORS))
    def test_wrong_printed_polynomial_fails(self, monkeypatch, n, part):
        """P_n printed with its denominator, or its last factor's a-coefficient, off by one fails at that n."""
        den, factors = verify._PRINTED_POLYNOMIAL_FACTORS[n]
        *head, last = factors
        wrong = (den + 1, factors) if part == "denominator" else (den, [*head, (*last[:-1], last[-1] + 1)])
        monkeypatch.setitem(verify._PRINTED_POLYNOMIAL_FACTORS, n, wrong)
        (entry,) = verify_all(only=["fibonomial.factored-polynomials"]).entries
        assert (entry.status, entry.notes) == ("fail", f"failed at printed polynomial at n={n}")


class TestReportShape:
    def test_entry_fields(self, default_report):
        for d in default_report.to_dict()["entries"]:
            assert set(d) == {"id", "statement", "range", "tolerance",
                              "max_residual", "status", "notes"}
            assert d["status"] in ("pass", "fail", "known-deviation")

    def test_json_round_trip(self, default_report):
        data = json.loads(json.dumps(default_report.to_dict()))
        assert set(data) == {"precision", "seed", "entries", "diagnostics", "summary"}
        assert data["summary"]["pass"] + data["summary"]["fail"] \
            + data["summary"]["known_deviation"] == len(data["entries"])

    def test_exception_becomes_fail_entry(self, monkeypatch):
        import goldencalc.verify as v

        def boom(n_max=100):
            raise RuntimeError("synthetic breakage")

        monkeypatch.setattr(v.oscillator, "diagonal_identities_exact", boom)
        report = verify_all(only=["oscillator.diagonal-identities"])
        assert report.entries[0].status == "fail"
        assert "synthetic breakage" in report.entries[0].notes


class TestHarness:
    """Suite.runner turns the (case, residual) pairs a suite yields into its verdict."""

    def test_exact_suite_stops_at_first_nonzero_residual(self, monkeypatch):
        seen = []

        def cases(ctx):
            for n in range(5):
                seen.append(n)
                yield f"n={n}", 1 if n == 2 else 0

        monkeypatch.setattr(verify, "SUITES", (
            Suite("test.exact", "n = 2 is the only failure", "0 <= n < 5", None,
                  "invariant", cases, "all cases vanish"),))
        (entry,) = verify_all().entries
        assert (entry.status, entry.max_residual, entry.notes) == ("fail", None, "failed at n=2")
        assert seen == [0, 1, 2]

    def test_template_label_formatted_only_for_the_failing_case(self, monkeypatch):
        formatted = []

        class Index(int):
            def __format__(self, spec):
                formatted.append(int(self))
                return format(int(self), spec)

        def cases(ctx):
            for n in range(5):
                yield ("(n={}, m={})", Index(n), Index(n + 1)), n == 3

        monkeypatch.setattr(verify, "SUITES", (
            Suite("test.template", "n = 3 is the only failure", "0 <= n < 5", None,
                  "invariant", cases, "all cases vanish"),))
        (entry,) = verify_all().entries
        assert (entry.status, entry.notes) == ("fail", "failed at (n=3, m=4)")
        assert formatted == [3, 4]

    def test_toleranced_suite_reports_worst_residual_as_decimal(self, monkeypatch):
        def cases(ctx):
            yield "mpf", mp.mpf("1e-20")
            yield "numpy", np.float64(3e-9)
            yield "fraction", Fraction(1, 10 ** 12)

        monkeypatch.setattr(verify, "SUITES", (
            Suite("test.toleranced", "small residuals", "3 cases", 1e-10, "invariant",
                  cases, "three residual types"),))
        (entry,) = verify_all().entries
        assert entry.status == "fail" and entry.notes == "three residual types"
        assert (entry.max_residual, entry.tolerance) == ("3.0e-9", "1.0e-10")

    @pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.id)
    def test_every_suite_passes_its_runner(self, suite):
        # as perfbench times the suites: the runner alone, at the default tolerance
        ctx = SuiteContext(tol=suite.default_tol, rng=random.Random(0), precision=DEFAULT_PRECISION)
        ok, residual, notes = suite.runner(ctx)
        assert ok and notes == suite.notes, notes
        assert type(residual) is str
        assert residual == "0.0" if suite.default_tol is None else mp.mpf(residual) <= suite.default_tol

    def test_angular_casimir_suites_are_exact(self):
        tols = {s.id: s.default_tol for s in SUITES}
        assert tols["angular.casimir-forms"] is None and tols["angular.tilde-anticommutator"] is None
        for suite_id in ("calculus.leibnitz-rule-i", "calculus.leibnitz-rule-ii",
                         "calculus.leibnitz-general-alpha", "calculus.quotient-rules",
                         "oscillator.hamiltonian-diagonal", "angular.hermiticity"):
            assert tols[suite_id] is None, suite_id

    def test_precision_below_bound_rejected(self):
        with pytest.raises(DomainError, match="at least 16 digits"):
            verify_all(precision=15)

    @pytest.mark.parametrize("precision", [60, 100])
    def test_exp_eigenrelations_follows_precision(self, precision):
        (entry,) = verify_all(only=["calculus.exp-eigenrelations"], precision=precision).entries
        assert entry.status == "pass"
        assert mp.mpf(entry.max_residual) <= 10.0 ** -(precision - 2)


class TestScaledTolerances:
    """A toleranced invariant suite is as tight as the precision it runs at."""

    @pytest.mark.parametrize("precision", [16, 34, 60, 100, 400])
    def test_inputs_five_digits_short_fail(self, monkeypatch, precision):
        fault = mp.mpf(10) ** (5 - precision)  # additive: a relative error cancels from linear identities

        def faulty(evaluate):
            def call(*args, **kwargs):
                result = evaluate(*args, **kwargs)
                return replace(result, value=result.value + fault)
            return call

        # golden_exp sums through GoldenSeries.evaluate, so it carries the fault too
        monkeypatch.setattr(verify.core, "fib_extended", faulty(verify.core.fib_extended))
        monkeypatch.setattr(verify.calculus.GoldenSeries, "evaluate",
                            faulty(verify.calculus.GoldenSeries.evaluate))
        report = verify_all(only=["core.real-", "core.division-law", "calculus.exp-eigenrelations"],
                            precision=precision)
        assert [(e.id, e.status) for e in report.entries] == [
            ("calculus.exp-eigenrelations", "fail"), ("core.division-law", "fail"),
            ("core.real-addition", "fail"), ("core.real-recurrence", "fail")]

    @pytest.mark.parametrize("precision", [60, 100])
    def test_summation_formula_follows_precision(self, precision):
        (entry,) = verify_all(only=["calculus.summation-formula"], precision=precision).entries
        assert entry.status == "pass"
        assert mp.mpf(entry.max_residual) <= 10.0 ** (2 - precision)

    @pytest.mark.parametrize("precision", [16, 34])
    def test_seeded_suites_pass_on_seeds_across_the_range(self, precision):
        for seed in range(0, 2 ** 31, 2 ** 31 // 100):
            report = verify_all(seed=seed, only=["core.real-"], precision=precision)
            assert report.summary["fail"] == 0, seed

    def test_tolerance_scales_with_precision(self):
        suites = {s.id: s for s in SUITES}
        addition, pi_scale = suites["core.real-addition"], suites["core.pi-extension-scale"]
        assert addition.tolerance(DEFAULT_PRECISION) == addition.default_tol == 1e-31
        assert addition.tolerance(400) == mp.mpf("1e-397")  # past the float range
        assert pi_scale.tolerance(400) == pi_scale.default_tol == 5e-3
        assert suites["oscillator.fock-normalization"].tolerance(400) is None


class TestReportPastFloatRange:
    """Tolerance and worst residual are decimal strings from the mpf, so they keep their
    exponent where a float underflows to 0.0 (past ~1e-308)."""

    @pytest.mark.parametrize("precision", [400, 1000])
    def test_margins_keep_their_exponent(self, precision):
        report = verify_all(only=["core.real-", "core.division-law", "calculus.exp-eigenrelations",
                                  "calculus.summation-formula"], precision=precision)
        assert {e.id: e.tolerance for e in report.entries} == {
            "calculus.exp-eigenrelations": f"1.0e-{precision - 2}",
            "calculus.summation-formula": f"1.0e-{precision - 2}",
            "core.division-law": f"1.0e-{precision - 2}",
            "core.real-addition": f"1.0e-{precision - 3}",
            "core.real-recurrence": f"1.0e-{precision - 2}"}
        for entry in report.entries:
            residual = mp.mpf(entry.max_residual)
            assert entry.status == "pass" and 0 < residual <= mp.mpf(entry.tolerance), entry
            assert residual > mp.mpf(10) ** -(precision + 5), entry  # the rounding, not a zero
            assert float(entry.max_residual) == 0.0  # what the float field used to print

    def test_known_deviation_margins_are_decimal_strings(self):
        (entry,) = verify_all(only=["core.pi-extension-scale"], precision=400).entries
        assert entry.status == "known-deviation" and entry.tolerance == "0.005"
        assert entry.max_residual.startswith("0.00326827302")
