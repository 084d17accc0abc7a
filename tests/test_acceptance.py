"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints one line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  Oracles here are deliberately independent of the
library paths they check (naive recursion, local dict-polynomial expansion,
direct summation).
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from mpmath import mp

from goldencalc.angular import casimir_ratio, casimir_suF2, verify_tilde
from goldencalc.binomials import (
    fib_factorial,
    golden_binomial,
    jackson_exp,
    remarkable_limit_lhs,
)
from goldencalc.calculus import (
    derive_bivar,
    golden_derivative,
    golden_exp_series,
    jackson_antiderivative,
)
from goldencalc.binomials import BivarPoly, UnivarPoly
from goldencalc.cli import run_command
from goldencalc.core import ZPhi, fib_exact, fib_extended, ratio_sequence
from goldencalc.oscillator import (
    diagonal_identities_exact,
    spectrum,
    verify_oscillator_algebra,
)
from goldencalc.verify import verify_all


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_1_fibonacci_and_binet():
    t0 = time.perf_counter()
    a, b = 0, 1  # naive recurrence oracle, run upward once
    naive = {0: 0}
    for n in range(1, 301):
        a, b = b, a + b
        naive[n] = a
    for n in range(-50, 301):
        expected = naive[n] if n >= 0 else (naive[-n] if (-n) % 2 else -naive[-n])
        assert fib_exact(n) == expected, f"fib_exact({n})"
    for n in range(-50, 301):
        value = fib_extended(n, 34).value
        target = fib_exact(n)
        if target == 0:
            assert abs(value) < 1e-12
        else:
            assert abs(value - target) / abs(target) < 1e-12, f"fib_extended({n})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"
    _report(1, f"exact Fibonacci matches naive recursion on [-50, 300]; analytic "
               f"extension agrees to 1e-12 relative at integers ({elapsed:.2f}s)")


def test_criterion_2_spectrum_levels():
    table = spectrum(3, 1)
    assert [e for _, e in table.levels] == [
        Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)]
    _report(2, "E_0..E_3 = hw * {1/2, 1, 3/2, 5/2} exactly in rational arithmetic")


def test_criterion_3_golden_ratio_limits():
    with mp.workdps(34):
        phi = +mp.phi
        assert abs(phi - mp.mpf("1.6180339887")) < 1e-9
        r30 = ratio_sequence(30, 34)[29]
        assert abs(r30 - phi) < mp.mpf("1e-12")
        e30 = spectrum(31).ratios[30]  # E_31 / E_30 = F_33 / F_32, exact
        assert e30 == Fraction(fib_exact(33), fib_exact(32))
        assert abs(mp.mpf(e30.numerator) / e30.denominator - phi) < mp.mpf("1e-12")
        c30 = casimir_ratio(30, 34)[-1]
        assert abs(c30 + phi ** 2) < mp.mpf("1e-10")
    _report(3, "F_{n+1}/F_n and E_{n+1}/E_n within 1e-12 of phi at n = 30; "
               "Casimir ratio within 1e-10 of -phi^2 at j = 30")


def test_criterion_4_oscillator_algebra():
    report = verify_oscillator_algebra(12)
    assert report.passed, report.failures
    four = ("deformed_commutator_minus", "deformed_commutator_plus",
            "number_raises", "number_lowers")
    worst = max(report.residuals[k] for k in four)
    assert worst < 1e-12
    assert diagonal_identities_exact(100)
    _report(4, f"four operator identities at dim 12: max interior residual "
               f"{worst:.2e} < 1e-12; diagonal forms exact in Z[phi] to n = 100")


def _local_bivar_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


# printed factored forms: (denominator, [factors]); a factor is coefficients of
# x^2, x*a, a^2 (length 3) or of x, a (length 2), exactly as published
_PRINTED = {
    1: (1, [(1, -1)]),
    2: (1, [(1, -1, -1)]),
    3: (2, [(1, 1), (1, -3, 1)]),
    4: (6, [(1, 1, -1), (1, -4, -1)]),
    5: (30, [(1, -1), (1, 3, 1), (1, -7, 1)]),
    6: (240, [(1, -1, -1), (1, 4, -1), (1, -11, -1)]),
    7: (3120, [(1, 1), (1, -3, 1), (1, 7, 1), (1, -18, 1)]),
}


def _package_poly_in_x_a(n: int) -> dict:
    """(x-a)_F^n / F_n! from the library, as an (x, a) coefficient dict."""
    out = {}
    for (i, k), c in golden_binomial(n, "expansion").coefficients.items():
        assert c.b == 0
        sign = -1 if k % 2 else 1
        out[(i, k)] = Fraction(sign * c.a, fib_factorial(n))
    return {k: v for k, v in out.items() if v}


def test_criterion_5_golden_binomial():
    for n in range(21):
        assert golden_binomial(n, "product") == golden_binomial(n, "expansion"), n
    for n, (den, factors) in _PRINTED.items():
        acc = {(0, 0): Fraction(1)}
        for f in factors:
            if len(f) == 2:
                fac = {(1, 0): Fraction(f[0]), (0, 1): Fraction(f[1])}
            else:
                fac = {(2, 0): Fraction(f[0]), (1, 1): Fraction(f[1]),
                       (0, 2): Fraction(f[2])}
            acc = _local_bivar_mul(acc, fac)
        acc = {k: v / den for k, v in acc.items()}
        assert acc == _package_poly_in_x_a(n), f"printed P_{n}"
    for k in range(1, 5):
        poly = golden_binomial(2 * k)
        for _ in range(2 * k):
            poly = derive_bivar(poly, "y")
        sign = -1 if k % 2 else 1
        assert poly == BivarPoly({(0, 0): ZPhi(sign * fib_factorial(2 * k), 0)}), k
    _report(5, "product form = Fibonomial expansion (n <= 20); printed P_1..P_7 "
               "reproduced exactly; iterated y-derivative collapse exact (k <= 4)")


def test_criterion_6_summation_formula():
    with mp.workdps(34):
        lhs = mp.mpf(0)
        for n in range(41):
            lhs += mp.mpf(fib_exact(n)) / mp.factorial(n)
        rhs = mp.exp(mp.mpf(1) / 2) * mp.sinh(mp.sqrt(5) / 2) / (mp.sqrt(5) / 2)
        assert abs(lhs - mp.mpf("2.01432")) < 1e-5
        assert abs(lhs - rhs) < mp.mpf("1e-12")
    _report(6, f"40-term sum F_n/n! = {mp.nstr(lhs, 8)} matches the closed "
               f"hyperbolic form to 1e-12")


def test_criterion_7_remarkable_limit():
    t0 = time.perf_counter()
    with mp.workdps(34):
        q = -(mp.phi ** 2)
        worst = mp.mpf(0)
        for y in (mp.mpf("0.5"), mp.mpf(1), mp.sqrt(5)):
            lhs = remarkable_limit_lhs(y, 80, 34)
            rhs = jackson_exp(q, y / mp.sqrt(5), 80, 34)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"
    _report(7, f"finite binomial at n = 80 within {float(worst):.1e} of the "
               f"Jackson exponential for y in {{0.5, 1, sqrt 5}} ({elapsed:.2f}s)")


def test_criterion_8_calculus_round_trips():
    # antiderivative round trip
    with mp.workdps(34):
        for coeffs in ((Fraction(1),), (Fraction(0), Fraction(1)),
                       (Fraction(0), Fraction(0), Fraction(1))):
            g = UnivarPoly(coeffs=coeffs)
            G = (lambda gg: lambda t: jackson_antiderivative(gg, t))(g)
            for x in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(2)):
                assert abs(golden_derivative(G, x) - g.evaluate(x)) < 1e-10
    # seeded product/quotient/Taylor identities at 1e-10
    from goldencalc.verify import verify_all as _va
    sub = _va(only=["calculus.leibnitz", "calculus.quotient-rules",
                    "calculus.taylor-basis"])
    assert sub.summary["fail"] == 0
    assert all(e.tolerance is None or float(e.tolerance) <= 1e-10 for e in sub.entries)
    # exponential eigenrelation at 1e-8
    series = golden_exp_series("small_e", Fraction(3, 2))
    shifted = series.derived()
    with mp.workdps(34):
        for x in (mp.mpf("0.4"), mp.mpf("1.2")):
            assert abs(shifted.evaluate(x).value
                       - Fraction(3, 2) * series.evaluate(x).value) < 1e-8
    _report(8, "derivative-of-antiderivative identity at 1e-10; Leibnitz, "
               "quotient and Taylor suites green at 1e-10; exponential "
               "eigenrelation at 1e-8")


def test_criterion_9_angular_momentum():
    for j in range(41):
        for m in range(j + 1):
            lhs = (fib_exact(j + m) * fib_exact(j - m + 1)
                   - fib_exact(j - m) * fib_exact(j + m + 1))
            sign = -1 if (j - m) % 2 else 1
            assert lhs == sign * fib_exact(2 * m)
    worst_cas = 0.0
    for twice_j in range(1, 13):
        j = Fraction(twice_j, 2)
        res = casimir_suF2(j)
        worst_cas = max(worst_cas, res.form_difference, res.eigenvalue_deviation)
    assert worst_cas < 1e-12
    worst_anti = 0.0
    for twice_j in range(1, 11):
        rep = verify_tilde(Fraction(twice_j, 2))
        assert rep.passed, rep.failures
        worst_anti = max(worst_anti, rep.anticommutator_residual)
    assert worst_anti < 1e-10
    _report(9, f"exact commutator identity to j = 40; Casimir forms agree to "
               f"{worst_cas:.1e} (j <= 6); tilde anti-commutator diagonal to "
               f"{worst_anti:.1e} (j <= 5)")


def test_criterion_10_verifier():
    t0 = time.perf_counter()
    report = verify_all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"verify_all took {elapsed:.1f}s"
    assert report.summary["fail"] == 0
    deviations = sorted(e.id for e in report.entries if e.status == "known-deviation")
    assert deviations == ["calculus.antiderivative-convention",
                          "core.pi-extension-scale",
                          "oscillator.number-inversion-branch"]
    # the CLI-emitted JSON validates against the documented schema
    code, record = run_command(["--format", "json", "verify"])
    assert code == 0
    data = json.loads(record.payload)
    assert {"command", "params", "precision", "value"} <= set(data)
    body = data["value"]
    assert {"precision", "seed", "entries", "summary", "diagnostics"} <= set(body)
    for entry in body["entries"]:
        assert set(entry) == {"id", "statement", "range", "tolerance",
                              "max_residual", "status", "notes"}
        assert entry["status"] in ("pass", "fail", "known-deviation")
    assert body["summary"] == {"pass": 29, "fail": 0, "known_deviation": 3}
    _report(10, f"verify_all: 29 pass, 0 fail, 3 known-deviations in "
                f"{elapsed:.1f}s; JSON report validates against the schema")
