"""Golden derivative, Taylor formula, exponentials, antiderivative."""

from __future__ import annotations

import hashlib
import random
import re
import time
from fractions import Fraction
from itertools import count

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from goldencalc import cli
from goldencalc.binomials import (
    MAX_SERIES_TERMS,
    UnivarPoly,
    fib_factorial,
    golden_binomial,
    golden_polynomial,
    jackson_exp,
    remarkable_limit_lhs,
)
from goldencalc.calculus import (
    MAX_EXP_TERMS,
    MAX_TAYLOR_DEGREE,
    GoldenSeries,
    derive_bivar,
    derive_poly,
    golden_derivative,
    golden_exp,
    golden_exp_series,
    golden_taylor,
    golden_trig,
    jackson_antiderivative,
    taylor_reconstruct,
)
from goldencalc.angular import casimir_ratio
from goldencalc.core import (
    MIN_DPS,
    DomainError,
    ZPhi,
    fib_exact,
    fib_extended,
    ratio_sequence,
)
from goldencalc.oscillator import invert_number
from goldencalc.verify import verify_all


def df_quotient(f, x, dps=40):
    """Independent difference-quotient oracle for the Golden derivative."""
    with mp.workdps(dps):
        phi = (1 + mp.sqrt(5)) / 2
        xv = mpmath.mpmathify(x)
        return (f(phi * xv) - f(-xv / phi)) / (mp.sqrt(5) * xv)


class TestDerivative:
    def test_monomial_rule(self):
        # x^3 -> F_3 x^2 = 2 x^2
        d = derive_poly(UnivarPoly(coeffs=(0, 0, 0, 1)))
        assert d.coeffs == (0, 0, 2)

    def test_constant_killed(self):
        assert derive_poly(UnivarPoly(coeffs=(7,))).coeffs == (0,)

    def test_coefficient_rule_degrees_0_to_40(self):
        # the rule coefficient by coefficient, F_k by fib_exact: c_k x^k -> c_k F_k x^(k-1)
        rng = random.Random(0)
        draws = (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 lambda: ZPhi(rng.randint(-9, 9), rng.randint(-9, 9)))
        for degree in range(41):
            for draw in draws:
                f = UnivarPoly(coeffs=tuple(draw() for _ in range(degree + 1)), shift=Fraction(1, 2))
                expected = [f.coeffs[k + 1] * fib_exact(k + 1) for k in range(degree)] or [0 * f.coeffs[0]]
                while len(expected) > 1 and not expected[-1]:
                    expected.pop()
                d = derive_poly(f)
                assert (d.coeffs, d.shift) == (tuple(expected), f.shift), (degree, f)
                assert [type(c) for c in d.coeffs] == [type(c) for c in expected]

    @given(st.integers(1, 12))
    def test_generates_fibonacci(self, n):
        coeffs = [0] * n + [1]
        d = derive_poly(UnivarPoly(coeffs=tuple(coeffs)))
        assert d.coeffs[-1] == fib_exact(n)

    def test_exponential_at_one(self):
        value = golden_derivative(mp.exp, 1)
        with mp.workdps(44):
            phi = (1 + mp.sqrt(5)) / 2
            expected = (mp.exp(phi) - mp.exp(-1 / phi)) / mp.sqrt(5)
        assert abs(value - expected) < 1e-30
        # also equals sum F_n / n!
        series = sum(mp.mpf(fib_exact(n)) / mp.factorial(n) for n in range(40))
        assert abs(value - series) < 1e-12

    def test_callable_needs_points(self):
        with pytest.raises(TypeError):
            golden_derivative(mp.exp)  # x is required
        with pytest.raises(DomainError):
            golden_derivative(mp.exp, 0)

    def test_series_refused(self):
        # a series derives exactly by GoldenSeries.derived
        with pytest.raises(DomainError, match="unsupported function representation GoldenSeries"):
            golden_derivative(golden_exp_series(), 1)

    def test_polynomial_evaluated_at_point(self):
        p = UnivarPoly(coeffs=(0, 0, 0, 1))
        assert abs(golden_derivative(p, mp.mpf(2)) - 8) < 1e-30

    def test_matches_difference_quotient(self):
        p = UnivarPoly(coeffs=(1, -2, 0, 3))
        with mp.workdps(40):
            for x in ("0.6", "-1.2"):
                exact = derive_poly(p).evaluate(mp.mpf(x))
                assert abs(exact - df_quotient(p.evaluate, mp.mpf(x))) < 1e-30


class TestTaylor:
    def test_monomial_case(self):
        assert golden_taylor(UnivarPoly(coeffs=(0, 0, 1))) == [0, 0, 1]

    def test_constant(self):
        assert golden_taylor(UnivarPoly(coeffs=(1,))) == [1]

    def test_round_trip_example(self):
        p = UnivarPoly(coeffs=(0, 1, 0, 1))  # x^3 + x
        values = golden_taylor(p)
        assert taylor_reconstruct(values).coeffs == (0, 1, 0, 1)

    @settings(max_examples=40)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=9))
    def test_round_trip_random(self, raw):
        if all(c == 0 for c in raw):
            raw[-1] = 1
        while len(raw) > 1 and raw[-1] == 0:
            raw.pop()
        p = UnivarPoly(coeffs=tuple(Fraction(c) for c in raw))
        assert taylor_reconstruct(golden_taylor(p)).coeffs == p.coeffs

    def test_reconstruct_at_max_degree(self):
        values = list(range(MAX_TAYLOR_DEGREE + 1))
        coeffs = taylor_reconstruct(values).coeffs
        assert coeffs == tuple(Fraction(n, fib_factorial(n)) for n in values)
        assert all(type(c) is Fraction for c in coeffs)
        floats = taylor_reconstruct([mp.mpf(n) for n in values]).coeffs
        assert floats == tuple(mp.mpf(n) / fib_factorial(n) for n in values)
        assert all(isinstance(c, mpmath.mpf) for c in floats)

    def test_rejects_non_polynomial(self):
        with pytest.raises(DomainError):
            golden_taylor(mp.exp)

    def test_coefficients_are_scaled_factorials(self):
        p = UnivarPoly(coeffs=(0, 0, 0, 0, 5))
        assert golden_taylor(p)[-1] == 5 * fib_factorial(4)


class TestGoldenExponentials:
    def test_series_head(self):
        assert golden_exp(0, "small_e").value == 1
        assert golden_exp(0, "big_E").value == 1

    def test_natural_base_oracle(self):
        # direct 30-term summation oracle
        with mp.workdps(40):
            total = mp.mpf(0)
            for n in range(30):
                total += mp.mpf(1) / fib_factorial(n)
        sv = golden_exp(1, "small_e", 30)
        assert abs(sv.value - total) < 1e-30
        assert abs(sv.value - mp.mpf("3.7045")) < 1e-4

    def test_big_e_sign_pattern(self):
        signs = [1 if (n * (n - 1) // 2) % 2 == 0 else -1 for n in range(10)]
        assert signs == [1, 1, -1, -1, 1, 1, -1, -1, 1, 1]
        series = golden_exp_series("big_E")
        assert [series.sign(n) for n in range(10)] == signs

    def test_tail_bound_decreases(self):
        a = golden_exp(2, "small_e", 8)
        b = golden_exp(2, "small_e", 30)
        assert b.tail_bound < a.tail_bound
        assert b.terms_used > a.terms_used

    def test_eigenrelation_small_e(self):
        k = Fraction(2)
        series = golden_exp_series("small_e", k)
        shifted = series.derived()
        for x in (0.3, 1.1):
            lhs = shifted.evaluate(x).value
            rhs = k * series.evaluate(x).value
            assert abs(lhs - rhs) < 1e-8
        fn = lambda t: golden_exp(2 * t, "small_e").value
        x = mp.mpf("0.7")
        assert abs(golden_derivative(fn, x) - 2 * fn(x)) < 1e-8

    def test_eigenrelation_big_e_reflects(self):
        series = golden_exp_series("big_E")
        shifted = series.derived()
        for x in (0.4, 0.9):
            lhs = shifted.evaluate(x).value
            rhs = series.evaluate(-mp.mpf(x)).value
            assert abs(lhs - rhs) < 1e-8


class TestGoldenTrig:
    def test_heads(self):
        assert golden_trig(0, "cos_F").value == 1
        assert golden_trig(0, "sin_F").value == 0

    def test_euler_formula(self):
        with mp.workdps(40):
            x = mp.mpf("0.8")
            e_ix = golden_exp(1j * x, "small_e").value
            c = golden_trig(x, "cos_F").value
            s = golden_trig(x, "sin_F").value
            assert abs(e_ix - (c + 1j * s)) < 1e-25

    def test_cosh_equals_cos(self):
        for x in (0.3, 1.0):
            c = golden_trig(x, "cos_F").value
            ch = golden_trig(x, "Cosh_F").value
            assert abs(c - ch) < 1e-12

    def test_sinh_equals_sin(self):
        s = golden_trig(0.7, "sin_F").value
        sh = golden_trig(0.7, "Sinh_F").value
        assert abs(s - sh) < 1e-12


class TestTermCap:
    """A capped series sums terms 0 .. n_terms, and terms_used says so."""

    X = mp.mpf(3)  # far from converged after 8 terms

    # each series and its coefficients c_n, written out apart from the library's sign tables
    SERIES = {
        "golden_exp small_e": (lambda x, n, p: golden_exp(x, "small_e", n, p), lambda n: 1),
        "golden_exp big_E": (lambda x, n, p: golden_exp(x, "big_E", n, p),
                             lambda n: (-1) ** (n * (n - 1) // 2)),
        "golden_trig cos_F": (lambda x, n, p: golden_trig(x, "cos_F", n, p),
                              lambda n: 0 if n % 2 else (-1) ** (n // 2)),
        "golden_trig sin_F": (lambda x, n, p: golden_trig(x, "sin_F", n, p),
                              lambda n: (-1) ** (n // 2) if n % 2 else 0),
        "GoldenSeries k=2, derived": (lambda x, n, p: GoldenSeries(lambda m: 1, 2, 1).evaluate(x, n, p),
                                      lambda n: 2 ** (n + 1)),
    }

    @pytest.mark.parametrize("n_terms", [1, 3, 8])
    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_capped_sum(self, name, n_terms):
        evaluate, coefficient = self.SERIES[name]
        sv = evaluate(self.X, n_terms, 60)
        assert sv.terms_used == n_terms + 1
        with mp.workdps(80):
            explicit = sum(coefficient(n) * self.X ** n / fib_factorial(n) for n in range(sv.terms_used))
        assert abs(sv.value - explicit) <= mp.mpf(10) ** -58 * max(abs(explicit), 1)

    @pytest.mark.parametrize("series,kind", [(golden_exp, "small_e"), (golden_exp, "big_E"),
                                             (golden_trig, "cos_F"), (golden_trig, "sin_F")],
                             ids=["small_e", "big_E", "cos_F", "sin_F"])
    def test_default_budget_reaches_high_precision(self, series, kind):
        # at x = 1, 2000 digits take about 140 terms: the default budget must not cut the sum short
        sv = series(1, kind, precision=2000)
        with mp.workdps(2010):
            assert sv.tail_bound <= mp.mpf(10) ** -2000 * max(abs(sv.value), 1), sv.terms_used


def _oscillator_solution(kind, k, A, B):
    """A exp_F(kt) + B exp_F(-kt), which solves (D_F^2 -+ k^2) f = 0 (small_e: -, big_E: +)."""
    return lambda t: A * golden_exp(k * t, kind, 60).value + B * golden_exp(-k * t, kind, 60).value


class TestFOscillator:
    def test_initial_value(self):
        assert _oscillator_solution("small_e", 1, 1, 0)(0) == 1

    def test_hyperbolic_residual(self):
        k = 1
        sol = _oscillator_solution("small_e", k, 1, 0)
        for t in (0.2, 0.5):
            d2 = golden_derivative(lambda u: golden_derivative(sol, u), mp.mpf(t))
            assert abs(d2 - k ** 2 * sol(mp.mpf(t))) < 1e-8

    def test_elliptic_residual(self):
        sol = _oscillator_solution("big_E", 1, 1, 1)
        t = mp.mpf("0.4")
        d2 = golden_derivative(lambda u: golden_derivative(sol, u), t)
        assert abs(d2 + sol(t)) < 1e-8


class TestAntiderivative:
    def test_constant(self):
        # integral of 1 is x
        g = UnivarPoly(coeffs=(1,))
        for x in (0.5, 1.0, 2.0):
            assert abs(jackson_antiderivative(g, x) - x) < 1e-25

    def test_linear_and_quadratic_round_trip(self):
        for coeffs, degree in (((0, 1), 2), ((0, 0, 1), 3)):
            g = UnivarPoly(coeffs=tuple(Fraction(c) for c in coeffs))
            G = lambda t: jackson_antiderivative(g, t)
            for x in (0.5, 1.0, 2.0):
                xv = mp.mpf(x)
                assert abs(golden_derivative(G, xv) - g.evaluate(xv)) < 1e-10
            # expected closed form x^degree / F_degree
            xv = mp.mpf(1)
            assert abs(G(xv) - xv ** degree / fib_exact(degree)) < 1e-25

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            jackson_antiderivative(UnivarPoly(coeffs=(1,)), 0)

    def test_callable_failure_propagates(self):
        def bad(t):
            raise RuntimeError("integrand blew up")
        with pytest.raises(RuntimeError):
            jackson_antiderivative(bad, 1.0)


def _reference_series(sign, k, x, dps, shift=0):
    """sum_n sign(n+shift) k^(n+shift) x^n / F_n! at dps + 30.

    Summed until the ratio |kx| / F_(n+1) is below 1 and a term is below
    10^-(dps+40), so the rest is far below the digits checked.
    """
    with mp.workdps(dps + 30):
        kx = mp.mpf(k.numerator) / k.denominator * mp.mpmathify(x)
        total, term = mp.mpf(0), (mp.mpf(k.numerator) / k.denominator) ** shift
        tiny = mp.mpf(10) ** -(dps + 40)
        a, b = 0, 1  # F_n, F_(n+1)
        for n in range(400):
            total += sign(n + shift) * term
            a, b = b, a + b
            term = term * kx / a
            if a > abs(kx) and abs(term) < tiny:
                return total
        raise AssertionError("reference series did not settle")


def _reference_antiderivative(coeffs, x, dps):
    """Grid closed form (1-Q) x sum_n a_n (x/phi)^n / (1 - Q^(n+1)), Q = -1/phi^2."""
    with mp.workdps(dps + 30):
        phi = (1 + mp.sqrt(5)) / 2
        q, xv = -1 / phi ** 2, mp.mpf(x)
        return (1 - q) * xv * mp.fsum(a * (xv / phi) ** n / (1 - q ** (n + 1))
                                      for n, a in enumerate(coeffs))


def _reference_workdps(ref, x, dps):
    with mp.workdps(dps + 30):
        return ref(x, dps)


_ONE = lambda n: 1
_BIG_E = lambda n: (1, 1, -1, -1)[n % 4]  # (-1)^(n(n-1)/2)


def _conformance_entries():
    """name -> (library call (x, dps), reference (x, dps))."""
    entries = {
        "golden_exp small_e": (lambda x, p: golden_exp(x, "small_e", precision=p),
                               lambda x, p: _reference_series(_ONE, Fraction(1), x, p)),
        "golden_exp big_E": (lambda x, p: golden_exp(x, "big_E", precision=p),
                             lambda x, p: _reference_series(_BIG_E, Fraction(1), x, p)),
    }
    # cos_F, sin_F: real and imaginary parts of e_F^{ix};
    # Cosh_F, Sinh_F: half sum and half difference of E_F^{x} and E_F^{-x}
    e_ix = lambda x, p: _reference_series(_ONE, Fraction(1), mp.mpc(0, x), p)
    e_pm = lambda x, p, sgn: (_reference_series(_BIG_E, Fraction(1), x, p)
                              + sgn * _reference_series(_BIG_E, Fraction(-1), x, p)) / 2
    for kind, ref in (("cos_F", lambda x, p: e_ix(x, p).real),
                      ("sin_F", lambda x, p: e_ix(x, p).imag),
                      ("Cosh_F", lambda x, p: e_pm(x, p, 1)),
                      ("Sinh_F", lambda x, p: e_pm(x, p, -1))):
        entries[f"golden_trig {kind}"] = (
            lambda x, p, kind=kind: golden_trig(x, kind, precision=p),
            lambda x, p, ref=ref: _reference_workdps(ref, x, p))
    for kind, sign in (("small_e", _ONE), ("big_E", _BIG_E)):
        for k in (Fraction(2), Fraction(3), Fraction(-1), Fraction(-2), Fraction(1, 2)):
            for shift in (0, 1):
                def call(x, p, kind=kind, k=k, shift=shift):
                    series = golden_exp_series(kind, k)
                    return (series.derived() if shift else series).evaluate(x, precision=p)
                reference = lambda x, p, sign=sign, k=k, shift=shift: \
                    _reference_series(sign, k, x, p, shift)
                entries[f"golden_exp_series {kind} k={k}" + " derived" * shift] = (call, reference)
    for degree in range(5):
        coeffs = tuple(Fraction((-1) ** i * (i + 2), i + 1) for i in range(degree + 1))
        entries[f"jackson_antiderivative degree {degree}"] = (
            lambda x, p, c=coeffs: jackson_antiderivative(UnivarPoly(coeffs=c), x, precision=p),
            lambda x, p, c=coeffs: _reference_antiderivative(c, x, p))
    return entries


class TestConformance:
    """Each analytic entry point against an independent mpmath sum at dps + 30.

    Every result must agree to 10^-dps * max(|ref|, 1), the floor perfbench's
    digits check uses, over signed x = ±10^(e/4), e = -12..8.
    """

    ENTRIES = _conformance_entries()
    EXPONENTS = range(-12, 9)

    @pytest.mark.parametrize("dps", [16, 34, 60, 100, 400])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_requested_digits(self, entry, dps):
        call, reference = self.ENTRIES[entry]
        misses = []
        for e in self.EXPONENTS:
            for sign in (1, -1):
                with mp.workdps(dps + 30):
                    x = sign * mp.mpf(10) ** (mp.mpf(e) / 4)
                got = call(x, dps)
                value = got.value if hasattr(got, "value") else got
                ref = reference(x, dps)
                with mp.workdps(dps + 30):
                    err = abs(value - ref) / max(abs(ref), 1)
                    if err > mp.mpf(10) ** -dps:
                        misses.append((mp.nstr(x, 6), mp.nstr(err, 3)))
                if hasattr(got, "tail_bound"):
                    assert got.tail_bound <= mp.mpf(10) ** -dps * max(abs(got.value), 1)
        assert not misses, f"{entry} at {dps} digits: {misses}"

    @pytest.mark.parametrize("x", [2, -2, 5, 50, 0.5, 3j])
    @pytest.mark.parametrize("n_terms", [1, 3, 8, 12])
    def test_tail_bound_covers_capped_sum(self, x, n_terms):
        calls = {
            "small_e": lambda n: golden_exp(x, "small_e", n_terms=n),
            "big_E": lambda n: golden_exp(x, "big_E", n_terms=n),
            "sin_F": lambda n: golden_trig(x, "sin_F", n_terms=n),
            "k=-3 derived":
                lambda n: golden_exp_series("small_e", -3).derived().evaluate(x, n_terms=n),
        }
        for name, call in calls.items():
            capped, full = call(n_terms), call(500)
            with mp.workdps(60):
                assert abs(capped.value - full.value) <= capped.tail_bound, name


    def test_no_finite_bound_far_from_convergence(self):
        # the ratio |x| / F_(n+1) stays above 1/2 for hundreds of terms past the cap
        start = time.perf_counter()
        sv = golden_exp(mp.mpf("1e1000"), n_terms=10)
        assert time.perf_counter() - start < 1.0  # no term past the cap is built
        assert sv.tail_bound == mp.inf and sv.terms_used == 11
        ref = _independent_sum(_ONE, 1, mp.mpf("1e1000"), 34, n_terms=11)
        with mp.workdps(100):
            assert abs(sv.value - ref) <= mp.mpf(10) ** -34 * abs(ref)


def _independent_sum(sign, k, x, dps, shift=0, n_terms=None):
    """sum_n sign(n+shift) k^(n+shift) x^n / F_n! at 2 dps + 20 digits, each term from exact F_n!.

    Sums the first n_terms terms, or else until F_(n+1) > 2|kx| and a term is
    below 10^-(2 dps + 30) max(|sum|, 1).
    """
    with mp.workdps(2 * dps + 20):
        k, x = mp.mpmathify(k), mp.mpmathify(x)
        total, tiny = mp.mpf(0), mp.mpf(10) ** -(2 * dps + 30)
        for n in count():
            term = k ** (n + shift) * x ** n / fib_factorial(n)
            total += sign(n + shift) * term
            if n + 1 == n_terms or n_terms is None and fib_exact(n + 1) > 2 * abs(k * x) \
                    and abs(term) < tiny * max(abs(total), 1):
                return total


_KINDS = {"small_e": _ONE, "big_E": _BIG_E,
          "cos_F": lambda n: 0 if n % 2 else _BIG_E(n), "sin_F": lambda n: _BIG_E(n) if n % 2 else 0}


def _rational_sum(sign, k: Fraction, x: Fraction, shift: int, dps: int) -> Fraction:
    """sum_n sign(n+shift) k^(n+shift) x^n / F_n! in Fractions, to under 10^-(dps + 30).

    Once F_n >= 2|kx| each later term is at most half the one before, so the terms
    left out sum to at most twice the first of them.
    """
    total, term, f, f_next, n = Fraction(0), k ** shift, 0, 1, 0  # term n = k^(n+shift) x^n / F_n!
    while True:
        total += sign(n + shift) * term
        n, f, f_next = n + 1, f_next, f + f_next
        term = term * k * x / f
        if f >= 2 * abs(k * x) and abs(term) * 10 ** (dps + 30) < 1:
            return total


def _as_fraction(v) -> Fraction:
    """A finite mpf as the Fraction ±man 2^exp (man_exp carries no sign)."""
    man, exp = v.man_exp
    return (-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _public_call(kind, x, dps):
    fn = golden_exp if kind in ("small_e", "big_E") else golden_trig
    return fn(x, kind, precision=dps)


class TestFixedPointKernel:
    """GoldenSeries.evaluate against an independent sum at 2p + 20 digits, over its whole input range."""

    @pytest.mark.parametrize("dps", [16, 34, 100])
    @pytest.mark.parametrize("k", [1j, 1 + 2j], ids=["1j", "1+2j"])
    def test_complex_k_and_x(self, k, dps):
        for kind in ("small_e", "big_E"):
            for shift in (0, 1):
                for x in (0.3 + 0.4j, -1.5 + 2j, 3j, -0.001j, 2.5, -4 - 1j):
                    series = golden_exp_series(kind, k)
                    sv = (series.derived() if shift else series).evaluate(x, precision=dps)
                    ref = _independent_sum(_KINDS[kind], k, x, dps, shift)
                    with mp.workdps(2 * dps + 20):
                        err = abs(sv.value - ref)
                        assert err <= mp.mpf(10) ** -dps * max(abs(ref), 1), (kind, shift, x)
                        assert sv.tail_bound <= mp.mpf(10) ** -dps * max(abs(sv.value), 1)

    @pytest.mark.parametrize("dps", [16, 34, 60])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_powers_of_ten(self, kind, dps):
        """x = ±10^e, e = -40..5: the documented bound, and relative digits on the summed terms.

        The summed terms of a series at |x| <= 1 keep their relative digits, so an odd
        series such as sin_F is right to the last digit however small x is.
        """
        for e in range(-40, 6):
            for sign in (1, -1):
                with mp.workdps(2 * dps + 20):
                    x = sign * mp.mpf(10) ** e
                sv = _public_call(kind, x, dps)
                full = _independent_sum(_KINDS[kind], 1, x, dps)
                summed = _independent_sum(_KINDS[kind], 1, x, dps, n_terms=sv.terms_used)
                with mp.workdps(2 * dps + 20):
                    assert abs(sv.value - full) <= mp.mpf(10) ** -dps * max(abs(full), 1), x
                    assert abs(summed - full) <= sv.tail_bound, x
                    if e <= 0:
                        assert abs(sv.value - summed) <= mp.mpf(10) ** -dps * abs(summed), x

    @pytest.mark.parametrize("dps", [16, 34, 100])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_tail_bound_against_exact_rational_sum(self, kind, dps):
        """The claimed bound, checked against a Fraction sum: the oracle calls no mpmath.

        |value - exact| <= tail_bound + 2 10^-p max(|exact|, 1) for dyadic x, capped at 6 terms or not
        (past the cap the terms still count towards a finite bound), and uncapped the bound is
        itself below 10^-p max(|value|, 1).
        """
        rng = random.Random(dps)
        for k in (1, Fraction(1, 2), 2, -1):
            for shift in range(3):
                series = GoldenSeries(_KINDS[kind], k, shift)
                for x in [Fraction(rng.randint(-4096, 4096), 256) for _ in range(3)]:
                    exact = _rational_sum(_KINDS[kind], Fraction(k), x, shift, dps)
                    slack = 2 * Fraction(1, 10 ** dps) * max(abs(exact), 1)
                    for n_terms in (MAX_EXP_TERMS, 6):
                        sv = series.evaluate(float(x), n_terms=n_terms, precision=dps)
                        case = (k, shift, x, n_terms)
                        assert _as_fraction(sv.value.imag) == 0, case
                        value, bound = _as_fraction(sv.value.real), _as_fraction(sv.tail_bound)
                        assert abs(value - exact) <= bound + slack, case
                        if n_terms == MAX_EXP_TERMS:
                            assert bound <= Fraction(1, 10 ** dps) * max(abs(value), 1), case

    def test_odd_series_at_tiny_argument(self):
        assert cli.run_command(["--precision", "34", "trig", "1e-30", "--kind", "sin_F"])[1].payload \
            == "(1.0e-30 + 0.0j)\n"
        for dps in (34, 60):  # x^3 / 2 is below both floors; at 16 digits so is x itself
            with mp.workdps(dps):
                x = mp.mpf("-1e-30")
            assert golden_trig(x, "sin_F", precision=dps).value == x

    @pytest.mark.parametrize("k", [1, 2, -3, Fraction(1, 2), 1j])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_zero_argument(self, kind, k):
        for shift in (0, 1, 2, 3):
            series = GoldenSeries(_KINDS[kind], k)
            for _ in range(shift):
                series = series.derived()
            sv = series.evaluate(0)
            with mp.workdps(60):
                assert sv.value == _KINDS[kind](shift) * mp.mpmathify(k) ** shift, (kind, shift)
            assert sv.terms_used == 1 and sv.tail_bound == 0

    @pytest.mark.parametrize("re, im", [("1e30", "0"), ("0", "-3e40")], ids=["1e30", "-3e40j"])
    def test_growth_past_4096_bits_rescales(self, re, im):
        # the terms grow by ~7000 and ~12000 bits before they turn, so the sum is rescaled
        x = mp.mpc(re, im)
        sv = golden_exp(x, "small_e", n_terms=MAX_EXP_TERMS)
        ref = _independent_sum(_ONE, 1, x, 34)
        with mp.workdps(100):
            assert abs(sv.value - ref) <= mp.mpf(10) ** -34 * abs(ref)

    def test_zero_k(self):
        # k^(n + shift) = 0 for every term once shift > 0: nothing is summed
        sv = GoldenSeries(_ONE, 0, 1).evaluate(2.5)
        assert (sv.value, sv.terms_used, sv.tail_bound) == (0, 0, 0)
        assert GoldenSeries(_ONE, 0).evaluate(2.5).value == 1  # 0^0 = 1


class TestSeriesBitIdentity:
    """GoldenSeries.evaluate's sums and term counts, pinned bit for bit."""

    # sha256 of the raw (value, terms_used) pairs below, as the summation loop gave them before it moved into
    # core's ratio-series kernel: any change to how a Golden series is summed or stopped changes it
    SWEEP_SHA256 = "b60b24bf8bc390e2889e1fe46a8c3eb61a9f73ac47fbfd61f32b1fbf040c42b8"

    def test_bit_identical_sums(self):
        """1000 seeded sums at 34 and 100 digits: four kinds, nine k (0 and 1e-40 among them), shift 0..2,
        real, complex, string and zero x with |x| log-uniform over [1e-100, 1e4.5], and four term caps."""
        rng, digest = random.Random(31), hashlib.sha256()
        ks = [1, Fraction(1, 2), 3, -2, Fraction(1, 3), 1j, 0.5 - 1.5j, 0, "1e-40"]
        for i in range(1000):
            kind, k, shift = rng.choice(sorted(_KINDS)), rng.choice(ks), rng.randrange(3)
            lo, hi = rng.choice([(-3, 2), (-100, -3), (2, 4.5)])
            x = rng.choice((1, -1)) * 10 ** rng.uniform(lo, hi)
            x = (x, x * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), f"{x:.25e}", 0)[i % 4]
            sv = GoldenSeries(_KINDS[kind], k, shift).evaluate(x, rng.choice((500, 120, 3, 1)), rng.choice((34, 100)))
            digest.update(repr((sv.value._mpc_, sv.terms_used)).encode())
        assert digest.hexdigest() == self.SWEEP_SHA256


class TestTermCountGate:
    """Every series entry point refuses a term count that is not an int in 1..cap."""

    CALLS = {
        "GoldenSeries.evaluate": (lambda n: golden_exp_series("big_E", 2).evaluate(1, n), MAX_EXP_TERMS),
        "golden_exp": (lambda n: golden_exp(50, n_terms=n), MAX_EXP_TERMS),
        "golden_trig": (lambda n: golden_trig(1, "sin_F", n_terms=n), MAX_EXP_TERMS),
        "jackson_antiderivative":
            (lambda n: jackson_antiderivative(UnivarPoly(coeffs=(1, 2)), 1, n_terms=n), MAX_EXP_TERMS),
        "jackson_antiderivative_callable":
            (lambda n: jackson_antiderivative(lambda t: t, 1, n_terms=n), MAX_EXP_TERMS),
        "jackson_exp": (lambda n: jackson_exp(2, 1, n), MAX_SERIES_TERMS),
    }

    @pytest.mark.parametrize("bad", [2.5, True, "3", 0, "cap+1"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused(self, call, bad):
        fn, cap = self.CALLS[call]
        range_messages = {0: "term count must be at least 1", "cap+1": f"term count must not exceed {cap}"}
        message = range_messages.get(bad, f"term count must be an integer, not {bad!r}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            fn(cap + 1 if bad == "cap+1" else bad)
        fn(cap)


class TestCallableGrid:
    """The geometric-grid sum, which only callables take."""

    @pytest.mark.parametrize("dps", [34, 60])
    def test_square_matches_closed_form(self, dps):
        for x in (0.5, -1.25, 3.0):
            got = jackson_antiderivative(lambda t: t ** 2, x, precision=dps)
            with mp.workdps(dps + 30):
                exact = mp.mpf(x) ** 3 / 2
                assert abs(got - exact) <= mp.mpf(10) ** -dps * max(abs(exact), 1)

    def test_term_cap_refused(self):
        with pytest.raises(DomainError):
            jackson_antiderivative(lambda t: t ** 2, 1.0, n_terms=5)

    @pytest.mark.parametrize("dps", [100, 208])
    def test_default_budget_reaches_high_precision(self, dps):
        # g(0) != 0: each grid term shrinks by |Q| = 1/phi^2, so p digits take ~2.4 p terms
        got = jackson_antiderivative(lambda t: 1 + 0 * t, 0.5, precision=dps)
        with mp.workdps(dps + 30):
            assert abs(got - mp.mpf("0.5")) <= mp.mpf(10) ** -dps


class TestPrecisionGate:
    """Every analytic entry point refuses a precision that is not an int >= MIN_DPS."""

    POLY = UnivarPoly(coeffs=(0, 0, 1))
    CALLS = {
        "fib_extended": lambda p: fib_extended(0.5, p),
        "ratio_sequence": lambda p: ratio_sequence(5, p),
        "casimir_ratio": lambda p: casimir_ratio(5, p),
        "invert_number": lambda p: invert_number(55, "even", p),
        "jackson_exp": lambda p: jackson_exp(2, 1, precision=p),
        "remarkable_limit_lhs": lambda p: remarkable_limit_lhs(1, 5, precision=p),
        "GoldenSeries.evaluate": lambda p: golden_exp_series("big_E", 2).evaluate(1, precision=p),
        "verify_all": lambda p: verify_all(only=["core.lucas-combinations"], precision=p),
        "golden_derivative_poly": lambda p: golden_derivative(TestPrecisionGate.POLY, 2, precision=p),
        "golden_derivative_callable": lambda p: golden_derivative(lambda t: t * t, 2, precision=p),
        "golden_exp": lambda p: golden_exp(1, precision=p),
        "golden_trig": lambda p: golden_trig(1, "Cosh_F", precision=p),
        "jackson_antiderivative_poly":
            lambda p: jackson_antiderivative(TestPrecisionGate.POLY, 1, precision=p),
        "jackson_antiderivative_callable": lambda p: jackson_antiderivative(lambda t: t, 1, precision=p),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused_below_bound(self, call):
        with pytest.raises(DomainError, match="precision"):
            self.CALLS[call](MIN_DPS - 1)
        self.CALLS[call](MIN_DPS)

    @pytest.mark.parametrize("precision", [34.5, True, "40", None, float("inf")],
                             ids=["fractional", "bool", "str", "None", "inf"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused_unless_an_int(self, call, precision):
        with pytest.raises(DomainError, match="precision"):
            self.CALLS[call](precision)

    def test_exact_derivative_needs_no_precision(self):
        assert derive_poly(self.POLY).coeffs == (0, 1)

    # D_F (1/3 + 2/7 x + 5/11 x^2 + 1/13 x^3) = 2/7 + 5/11 x + 2/13 x^2, exactly
    CUBIC = UnivarPoly(coeffs=(Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(1, 13)))

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-7, 4), Fraction(3)])
    @pytest.mark.parametrize("dps", [16, 34, 60, 100])
    def test_polynomial_point_at_requested_digits(self, dps, x):
        got = golden_derivative(self.CUBIC, float(x), precision=dps)
        exact = Fraction(2, 7) + Fraction(5, 11) * x + Fraction(2, 13) * x * x
        with mp.workdps(dps + 30):
            ref = mp.mpf(exact.numerator) / exact.denominator
            assert abs(got - ref) <= mp.mpf(10) ** -dps * abs(ref)

    def test_polynomial_point_from_a_string(self):
        assert golden_derivative(self.POLY, "0.5") == 0.5  # D_F x^2 = F_2 x


class TestNonFiniteArguments:
    """A non-finite real argument is refused, never turned into a NaN result."""

    CALLS = {
        "golden_exp": lambda v: golden_exp(v),
        "golden_trig": lambda v: golden_trig(v, "cos_F"),
        "jackson_antiderivative": lambda v: jackson_antiderivative(UnivarPoly(coeffs=(1,)), v),
        "jackson_exp": lambda v: jackson_exp(2, v),
        "remarkable_limit_lhs": lambda v: remarkable_limit_lhs(v, 5),
        "golden_derivative": lambda v: golden_derivative(lambda t: t, v),
        "golden_derivative_poly": lambda v: golden_derivative(UnivarPoly(coeffs=(0, 0, 1)), v),
        "GoldenSeries k": lambda v: golden_exp_series("small_e", v).evaluate(1),
    }

    @pytest.mark.parametrize("value", [mp.inf, -mp.inf, mp.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused(self, call, value):
        with pytest.raises(DomainError):
            self.CALLS[call](value)


class TestGoldenPeriodic:
    """D_F annihilates the Golden-periodic functions, those with f(phi x) = f(-x/phi)."""

    def test_constant_true(self):
        assert all(golden_derivative(lambda t: 3, x) == 0 for x in (0.5, 1.0, 2.0))

    def test_log_sine_example(self):
        f = lambda t: mp.sin(mp.pi * mp.log(abs(t)) / mp.log((1 + mp.sqrt(5)) / 2))
        samples = [mp.mpf(2) ** (i / mp.mpf(3)) for i in range(-9, 11)]
        assert max(abs(golden_derivative(f, x)) for x in samples) < 1e-30

    def test_identity_false(self):
        assert all(abs(golden_derivative(lambda t: t, x) - 1) < 1e-30 for x in (0.5, 1.0))  # D_F x = F_1


class TestBivarDerivative:
    def test_lowers_binomial(self):
        for n in range(1, 11):
            lhs = derive_bivar(golden_binomial(n), "x")
            rhs = golden_binomial(n - 1) * ZPhi(fib_exact(n), 0)
            assert lhs == rhs

    def test_iterated_even_collapse(self):
        from goldencalc.binomials import BivarPoly
        for k in range(1, 5):
            poly = golden_binomial(2 * k)
            for _ in range(2 * k):
                poly = derive_bivar(poly, "y")
            sign = -1 if k % 2 else 1
            assert poly == BivarPoly({(0, 0): ZPhi(sign * fib_factorial(2 * k), 0)})

    def test_polynomial_ladder(self):
        for a in (Fraction(1), Fraction(3, 2)):
            for n in range(1, 16):
                assert derive_poly(golden_polynomial(n, a)).coeffs == \
                    golden_polynomial(n - 1, a).coeffs
