"""Built-in verifier: every identity the library rests on, in one registry.

Each suite checks one identity (or tight identity family) over its declared
parameter range, either exactly (integer / Z[phi] arithmetic) or to a stated
tolerance.  Three entries are tagged "known-deviation": they document places
where the implementation deliberately departs from a printed source value or
fixes an ambiguous convention, and they verify that the deviation is exactly
the documented one.  A known-deviation entry is never reported as "pass".

Suites are pure and independent; randomized ones draw from a seeded
generator, so a whole run is reproducible from (profile, seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from mpmath import mp

from . import angular, calculus, core, oscillator
from .core import DomainError, ZPhi, fib_exact, fib_range, phi_power_exact
from .binomials import (
    BivarPoly,
    UnivarPoly,
    _linear_factor,
    fib_factorial,
    fibonomial as fibonomial_coeff,
    golden_binomial,
    golden_binomial_roots,
    golden_polynomial,
    noncomm_expand,
    noncomm_expected_coefficient,
)

DEFAULT_PRECISION = core.DEFAULT_DPS


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportEntry:
    id: str
    statement: str
    range: str
    tolerance: float | None
    max_residual: float | None
    status: str  # "pass" | "fail" | "known-deviation"
    notes: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    profile: str
    seed: int
    entries: tuple[ReportEntry, ...]
    diagnostics: tuple[str, ...]

    @property
    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "known_deviation": 0}
        for e in self.entries:
            counts[e.status.replace("-", "_")] += 1
        return counts

    @property
    def failed(self) -> bool:
        return self.summary["fail"] > 0

    def to_dict(self) -> dict:
        return {**asdict(self), "summary": self.summary}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass
class SuiteContext:
    tol: float | None
    rng: random.Random
    fault: bool = False
    precision: int = DEFAULT_PRECISION


@dataclass(frozen=True)
class Suite:
    id: str
    statement: str
    range_desc: str
    default_tol: float | None
    strict_tol: float | None
    kind: str  # "invariant" | "known-deviation"
    runner: Callable[[SuiteContext], tuple[bool, float | None, str]]
    supports_fault: bool = False


# ---------------------------------------------------------------------------
# golden_core suites
# ---------------------------------------------------------------------------

def _run_addition_law(ctx: SuiteContext):
    fibs = fib_range(-1, 401)  # F_{-1} .. F_401, index shift +1

    def f(i: int) -> int:
        return fibs[i + 1]

    for n in range(0, 201):
        for m in range(0, 201):
            if f(n + m) != f(n - 1) * f(m) + f(n) * f(m + 1):
                return False, None, f"failed at (n={n}, m={m})"
    return True, 0.0, "exact over all 201x201 index pairs"


def _run_subtraction_law(ctx: SuiteContext):
    fibs = fib_range(-1, 100)  # F_{-1} .. F_100, index shift +1
    powers = [ZPhi(fibs[m], fibs[m + 1]) for m in range(0, 101)]  # phi^m = F_{m-1} + F_m phi
    for n in range(0, 101):
        phi_n = powers[n]
        fn = fibs[n + 1]
        for m in range(0, n + 1):
            rhs = (powers[m] * fn - phi_n * fibs[m + 1])
            if m % 2:
                rhs = -rhs
            if rhs != ZPhi(fibs[n - m + 1], 0):
                return False, None, f"failed at (n={n}, m={m})"
    return True, 0.0, "exact in Z[phi] for 0 <= m <= n <= 100"


def _run_multiplication_law(ctx: SuiteContext):
    for n in range(1, 31):
        lucas = fib_exact(n - 1) + fib_exact(n + 1)
        sign = 1 if n % 2 == 0 else -1  # base product (phi * phi')^n = (-1)^n
        h_prev, h = 0, 1  # higher Fibonacci by its own recurrence
        fn = fib_exact(n)
        for m in range(1, 31):
            if fib_exact(n * m) != fn * h:
                return False, None, f"failed at (n={n}, m={m})"
            h_prev, h = h, lucas * h - sign * h_prev
    return True, 0.0, "exact for 1 <= n, m <= 30, higher numbers by independent recurrence"


def _run_division_law(ctx: SuiteContext):
    worst = mp.mpf(0)
    with mp.workdps(ctx.precision):
        for (m, n) in ((4, 2), (6, 3), (6, 2)):
            r = Fraction(m, n)
            lhs = core.fib_extended(float(r), ctx.precision).value
            rhs = fib_exact(m) / core.fib_higher_real(n, float(r), ctx.precision)
            worst = max(worst, abs(lhs - rhs))
    return float(worst) <= ctx.tol, float(worst), "pairs (4,2), (6,3), (6,2)"


def _run_lucas_combinations(ctx: SuiteContext):
    for k in range(1, 51):
        even = phi_power_exact(2 * k) + phi_power_exact(-2 * k)
        if even != ZPhi(fib_exact(2 * k) + 2 * fib_exact(2 * k - 1), 0):
            return False, None, f"even combination failed at k={k}"
        odd = phi_power_exact(2 * k + 1) - phi_power_exact(-(2 * k + 1))
        if odd != ZPhi(fib_exact(2 * k + 1) + 2 * fib_exact(2 * k), 0):
            return False, None, f"odd combination failed at k={k}"
    return True, 0.0, "exact in Z[phi] for 1 <= k <= 50"


def _fib_real(x, precision: int):
    return core.fib_extended(x, precision).value


def _run_real_addition(ctx: SuiteContext):
    worst = mp.mpf(0)
    with mp.workdps(ctx.precision):
        phi = +mp.phi
        for _ in range(20):
            x = mp.mpf(ctx.rng.uniform(-5, 5))
            y = mp.mpf(ctx.rng.uniform(-5, 5))
            lhs = _fib_real(x + y, ctx.precision)
            rhs = (mp.power(phi, x) * _fib_real(y, ctx.precision)
                   + mp.exp(1j * mp.pi * y) * mp.power(phi, -y) * _fib_real(x, ctx.precision))
            worst = max(worst, abs(lhs - rhs))
    return float(worst) <= ctx.tol, float(worst), "20 seeded pairs in [-5, 5]"


def _run_real_recurrence(ctx: SuiteContext):
    worst = mp.mpf(0)
    with mp.workdps(ctx.precision):
        for _ in range(20):
            x = mp.mpf(ctx.rng.uniform(-5, 5))
            res = abs(_fib_real(x, ctx.precision) - _fib_real(x - 1, ctx.precision)
                      - _fib_real(x - 2, ctx.precision))
            worst = max(worst, res)
    return float(worst) <= ctx.tol, float(worst), "20 seeded arguments in [-5, 5]"


# ---------------------------------------------------------------------------
# fibonomial suites
# ---------------------------------------------------------------------------

def _run_form_agreement(ctx: SuiteContext):
    for n in range(0, 21):
        if golden_binomial(n, "product") != golden_binomial(n, "expansion"):
            return False, None, f"forms differ at n={n}"
    return True, 0.0, "exact polynomial equality for n <= 20"


def _run_root_structure(ctx: SuiteContext):
    for n in range(1, 11):
        poly = golden_binomial(n, "product")
        for root in golden_binomial_roots(n):
            if poly.evaluate(root, 1):
                return False, None, f"nonzero at a declared root, n={n}"
    return True, 0.0, "all n declared zeros vanish exactly, n <= 10"


def _run_symmetry_integrality(ctx: SuiteContext):
    for n in range(0, 101):
        for k in range(0, n + 1):
            c = fibonomial_coeff(n, k)
            if c <= 0 or c != fibonomial_coeff(n, n - k):
                return False, None, f"failed at (n={n}, k={k})"
    return True, 0.0, "positive integers with mirror symmetry, n <= 100"


def _printed_polynomial_factors() -> dict[int, tuple[int, list[tuple[int, ...]]]]:
    """Published factorizations as (denominator, factors).

    A length-3 factor (c2, c1, c0) encodes c2 x^2 + c1 x a + c0 a^2;
    a length-2 factor (c1, c0) encodes c1 x + c0 a.
    """
    return {
        1: (1, [(1, -1)]),
        2: (1, [(1, -1, -1)]),
        3: (2, [(1, 1), (1, -3, 1)]),
        4: (6, [(1, 1, -1), (1, -4, -1)]),
        5: (30, [(1, -1), (1, 3, 1), (1, -7, 1)]),
        6: (240, [(1, -1, -1), (1, 4, -1), (1, -11, -1)]),
        7: (3120, [(1, 1), (1, -3, 1), (1, 7, 1), (1, -18, 1)]),
    }


def _factor_to_bivar(factor) -> BivarPoly:
    """c1 x + c0 a, or c2 x^2 + c1 x a + c0 a^2, from its coefficient tuple."""
    exponents = [(1, 0), (0, 1)] if len(factor) == 2 else [(2, 0), (1, 1), (0, 2)]
    return BivarPoly(dict(zip(exponents, factor)))


def _binomial_as_xa(n: int) -> BivarPoly:
    """(x - a)_F^n as an exact bivariate polynomial in (x, a)."""
    return BivarPoly({(i, k): -c if k % 2 else c
                      for (i, k), c in golden_binomial(n, "expansion").coefficients.items()})


def _run_factored_polynomials(ctx: SuiteContext):
    mismatches = []
    for n in range(1, 9):
        reference = _binomial_as_xa(n)
        nu, odd = divmod(n, 2)
        parity, sign = ("odd", -1) if odd else ("even", 1)
        # odd degrees carry one extra linear factor x - (-1)^nu a
        prod = _factor_to_bivar((1, 1 if nu % 2 else -1)) if odd else BivarPoly.one()
        prod2 = prod  # Fibonacci-coefficient quadratic form
        for k in range(1, nu + 1):
            s = -1 if (nu + k) % 2 else 1
            e = 2 * k - 1 + odd
            prod = (prod * _linear_factor(-s * phi_power_exact(e))
                    * _linear_factor(sign * s * phi_power_exact(-e)))
            lucas = fib_exact(e) + 2 * fib_exact(e - 1)
            prod2 = prod2 * _factor_to_bivar((1, -s * lucas, -sign))
        # the common prefactor 1/F_n! of P_n cancels from both sides
        if prod != reference:
            mismatches.append(f"phi-power {parity} form at n={n}")
        if prod2 != reference:
            mismatches.append(f"Fibonacci-coefficient {parity} form at n={n}")
    # printed small polynomials
    for n, (den, factors) in _printed_polynomial_factors().items():
        prod = BivarPoly.one()
        for f in factors:
            prod = prod * _factor_to_bivar(f)
        if prod.scale(Fraction(1, den)) != _binomial_as_xa(n).scale(Fraction(1, fib_factorial(n))):
            mismatches.append(f"printed polynomial at n={n}")
    if mismatches:
        return False, None, "; ".join(mismatches)
    return True, 0.0, "factored forms and printed polynomials reproduced exactly, n <= 8"


def _run_noncomm_bridge(ctx: SuiteContext):
    for n in range(0, 11):
        word = noncomm_expand(n)
        for k in range(n + 1):
            if word.coeffs[k] != noncomm_expected_coefficient(n, k):
                return False, None, f"coefficient mismatch at (n={n}, k={k})"
    return True, 0.0, "normal-ordered coefficients match the closed form, n <= 10"


# ---------------------------------------------------------------------------
# calculus suites
# ---------------------------------------------------------------------------

def _random_poly(rng: random.Random, max_deg: int = 6) -> UnivarPoly:
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = 1
    if coeffs[-1] == 0:
        coeffs[-1] = rng.choice([-3, -1, 1, 2])
    return UnivarPoly(coeffs=tuple(Fraction(c) for c in coeffs))


def _nonzero_x(rng: random.Random) -> float:
    x = 0.0
    while x == 0.0:
        x = rng.uniform(-2, 2)
    return x


def _poly_product(f: UnivarPoly, g: UnivarPoly) -> UnivarPoly:
    out = [Fraction(0)] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for k, b in enumerate(g.coeffs):
            out[i + k] += a * b
    return UnivarPoly(coeffs=tuple(out))


def _leibnitz_harness(ctx: SuiteContext, check) -> tuple[bool, float | None, str]:
    worst = mp.mpf(0)
    with mp.workdps(ctx.precision):
        phi = +mp.phi
        for _ in range(20):
            f = _random_poly(ctx.rng)
            g = _random_poly(ctx.rng)
            x = mp.mpf(_nonzero_x(ctx.rng))
            df = calculus.derive_poly(f)
            dg = calculus.derive_poly(g)
            dfg = calculus.derive_poly(_poly_product(f, g))
            res = check(phi, f, g, df, dg, dfg, x, ctx.rng)
            worst = max(worst, res)
    return float(worst) <= ctx.tol, float(worst), "20 seeded polynomial pairs, degree <= 6, x in [-2, 2] \\ {0}"


def _run_leibnitz_i(ctx: SuiteContext):
    def check(phi, f, g, df, dg, dfg, x, rng):
        lhs = dfg.evaluate(x)
        rhs = df.evaluate(x) * g.evaluate(phi * x) + f.evaluate(-x / phi) * dg.evaluate(x)
        return abs(lhs - rhs)
    return _leibnitz_harness(ctx, check)


def _run_leibnitz_ii(ctx: SuiteContext):
    def check(phi, f, g, df, dg, dfg, x, rng):
        lhs = dfg.evaluate(x)
        rhs_ii = df.evaluate(x) * g.evaluate(-x / phi) + f.evaluate(phi * x) * dg.evaluate(x)
        rhs_sym = (df.evaluate(x) * (g.evaluate(phi * x) + g.evaluate(-x / phi)) / 2
                   + dg.evaluate(x) * (f.evaluate(phi * x) + f.evaluate(-x / phi)) / 2)
        return max(abs(lhs - rhs_ii), abs(lhs - rhs_sym))
    return _leibnitz_harness(ctx, check)


def _run_leibnitz_alpha(ctx: SuiteContext):
    alphas = [mp.mpf(ctx.rng.uniform(-2, 2)) for _ in range(5)]

    def check(phi, f, g, df, dg, dfg, x, rng):
        lhs = dfg.evaluate(x)
        worst = mp.mpf(0)
        for a in alphas:
            rhs = ((a * f.evaluate(-x / phi) + (1 - a) * f.evaluate(phi * x)) * dg.evaluate(x)
                   + (a * g.evaluate(phi * x) + (1 - a) * g.evaluate(-x / phi)) * df.evaluate(x))
            worst = max(worst, abs(lhs - rhs))
        return worst
    return _leibnitz_harness(ctx, check)


def _run_quotient_rules(ctx: SuiteContext):
    worst = mp.mpf(0)
    with mp.workdps(ctx.precision):
        phi = +mp.phi
        s5 = mp.sqrt(5)
        tried = 0
        while tried < 20:
            f = _random_poly(ctx.rng)
            g = _random_poly(ctx.rng)
            x = mp.mpf(_nonzero_x(ctx.rng))
            gp, gm = g.evaluate(phi * x), g.evaluate(-x / phi)
            den = gp * gm
            if abs(den) < mp.mpf("1e-3"):
                continue
            tried += 1
            df_x = calculus.derive_poly(f).evaluate(x)
            dg_x = calculus.derive_poly(g).evaluate(x)
            fp, fm = f.evaluate(phi * x), f.evaluate(-x / phi)
            direct = (fp / gp - fm / gm) / (s5 * x)
            forms = (
                (df_x * gp - dg_x * fp) / den,
                (df_x * gm - dg_x * fm) / den,
                (df_x * (gm + gp) - dg_x * (fm + fp)) / (2 * den),
            )
            worst = max(worst, *(abs(direct - fm_) for fm_ in forms))
    return float(worst) <= ctx.tol, float(worst), "20 seeded pairs with |g(phi*x) g(-x/phi)| >= 1e-3"


def _run_summation_formula(ctx: SuiteContext):
    with mp.workdps(ctx.precision):
        lhs = mp.mpf(0)
        for n in range(41):
            lhs += mp.mpf(fib_exact(n)) / mp.factorial(n)
        rhs = mp.exp(mp.mpf(1) / 2) * mp.sinh(mp.sqrt(5) / 2) / (mp.sqrt(5) / 2)
        res = float(abs(lhs - rhs))
    return res <= ctx.tol, res, "40-term sum against the closed hyperbolic form"


def _run_exp_eigenrelations(ctx: SuiteContext):
    worst = mp.mpf(0)
    with mp.workdps(ctx.precision):
        for k in (Fraction(1), Fraction(1, 2), Fraction(2)):
            series_e = calculus.golden_exp_series("small_e", k)
            shifted_e = series_e.derived()
            series_E = calculus.golden_exp_series("big_E", k)
            shifted_E = series_E.derived()
            for x in (mp.mpf("0.3"), mp.mpf("0.7"), mp.mpf("1.1")):
                # exact coefficient-shift route
                worst = max(worst, abs(shifted_e.evaluate(x).value
                                       - k * series_e.evaluate(x).value))
                worst = max(worst, abs(shifted_E.evaluate(x).value
                                       - k * series_E.evaluate(-x).value))
                # numeric difference-quotient route
                fe = (lambda kk: lambda t: calculus.golden_exp(kk * t, "small_e").value)(k)
                fE = (lambda kk: lambda t: calculus.golden_exp(kk * t, "big_E").value)(k)
                worst = max(worst, abs(calculus.golden_derivative(fe, x)
                                       - k * fe(x)))
                worst = max(worst, abs(calculus.golden_derivative(fE, x)
                                       - k * fE(-x)))
    return float(worst) <= ctx.tol, float(worst), "k in {1, 1/2, 2}, x in {0.3, 0.7, 1.1}, both routes"


def _run_binomial_derivative(ctx: SuiteContext):
    for n in range(1, 11):
        lhs = calculus.derive_bivar(golden_binomial(n), "x")
        rhs = golden_binomial(n - 1) * ZPhi(fib_exact(n), 0)
        if lhs != rhs:
            return False, None, f"x-derivative mismatch at n={n}"
    for k in range(1, 5):
        poly = golden_binomial(2 * k)
        for _ in range(2 * k):
            poly = calculus.derive_bivar(poly, "y")
        sign = -1 if k % 2 else 1
        if poly != BivarPoly({(0, 0): ZPhi(sign * fib_factorial(2 * k), 0)}):
            return False, None, f"iterated y-derivative mismatch at k={k}"
    return True, 0.0, "exact: first derivative n <= 10, iterated even case k <= 4"


def _run_taylor_basis(ctx: SuiteContext):
    for a in (Fraction(1), Fraction(3, 2)):
        prev = golden_polynomial(0, a)
        for n in range(1, 16):
            cur = golden_polynomial(n, a)
            if calculus.derive_poly(cur).coeffs != prev.coeffs:
                return False, None, f"derivative ladder broken at (n={n}, a={a})"
            prev = cur
    return True, 0.0, "exact lowering P_n -> P_{n-1} for n <= 15, a in {1, 3/2}"


# ---------------------------------------------------------------------------
# oscillator suites
# ---------------------------------------------------------------------------

def _run_diagonal_identities(ctx: SuiteContext):
    oscillator.diagonal_identities_exact(100)
    return True, 0.0, "exact in Z[phi] for 0 <= n <= 100"


def _run_fock_normalization(ctx: SuiteContext):
    dim = 12
    lad = oscillator.build_ladder(dim)
    b_dag = lad.b_dag.copy()
    if ctx.fault:
        b_dag[1, 0] += 1e-6
    vec = np.zeros(dim, dtype=np.complex128)
    vec[0] = 1.0
    worst = 0.0
    for n in range(1, dim):
        vec = b_dag @ vec
        norm = float(np.linalg.norm(vec)) / np.sqrt(float(fib_factorial(n)))
        worst = max(worst, abs(norm - 1.0))
    return worst <= ctx.tol, worst, f"states built by repeated raising at dim {dim}"


def _run_number_distinct(ctx: SuiteContext):
    dim = 12
    diag, _ = oscillator.build_ladder(dim).shift.products()  # b+b = F_n, exact
    gap = max(abs(diag[n] - n) for n in range(3, dim - 1))
    return gap >= 1.0, float(gap), "max |F_n - n| over interior 3 <= n <= 10"


def _run_hamiltonian_diagonal(ctx: SuiteContext):
    dim = 12
    # b+b and bb+ are exact diagonals of the ladder's shift, so H has no off-diagonal part
    h = [Fraction(bdb + bbd, 2) for bdb, bbd in zip(*oscillator.build_ladder(dim).shift.products())]
    table = oscillator.spectrum(dim - 2, 1)
    worst = float(max(abs(h[n] - energy) / energy for n, energy in table.levels))
    return worst <= ctx.tol, worst, f"interior diagonal vs exact rational levels, dim {dim}"


# ---------------------------------------------------------------------------
# angular suites
# ---------------------------------------------------------------------------

def _run_docagne(ctx: SuiteContext):
    fibs = fib_range(0, 81)  # F_0 .. F_81
    for j in range(0, 41):
        for m in range(0, j + 1):
            lhs = fibs[j + m] * fibs[j - m + 1] - fibs[j - m] * fibs[j + m + 1]
            sign = -1 if (j - m) % 2 else 1
            if lhs != sign * fibs[2 * m]:
                return False, None, f"failed at (j={j}, m={m})"
    return True, 0.0, "exact integers for 0 <= m <= j <= 40"


def _half_spins(j_max: int) -> list[Fraction]:
    return [Fraction(t, 2) for t in range(1, 2 * j_max + 1)]


def _run_casimir_forms(ctx: SuiteContext):
    worst = 0.0
    for j in _half_spins(6):
        res = angular.casimir_suF2(j, tol=ctx.tol)
        worst = max(worst, res.form_difference, res.eigenvalue_deviation)
    return worst <= ctx.tol, worst, "both written forms and the closed eigenvalue, j <= 6 (half-integer steps)"


def _run_tilde_anticommutator(ctx: SuiteContext):
    worst = 0.0
    for j in _half_spins(5):
        rep = angular.verify_tilde(j, tol=ctx.tol)
        if not rep.passed:
            return False, None, "; ".join(rep.failures)
        worst = max(worst, rep.anticommutator_residual, rep.offdiagonal_max)
    return worst <= ctx.tol, worst, "diagonal F_{2m} with vanishing off-diagonal, j <= 5"


def _run_relabeling(ctx: SuiteContext):
    for j in _half_spins(6):
        rep = angular.build_suF2(j)
        ms = [m - j for m in range(int(2 * j) + 1)]
        for k, m in enumerate(ms[:-1]):
            amp, state = angular.double_boson_action(int(j + m), int(j - m), "plus")
            if amp != rep.j_plus[k + 1, k].real or state != (int(j + m) + 1, int(j - m) - 1):
                return False, None, f"mismatch at (j={j}, m={m})"
        for k, m in enumerate(ms):
            if k == 0:
                continue
            amp, _ = angular.double_boson_action(int(j + m), int(j - m), "minus")
            if amp != rep.j_minus[k - 1, k].real:
                return False, None, f"lowering mismatch at (j={j}, m={m})"
    return True, 0.0, "occupation-pair amplitudes equal the |j, m> matrix elements, j <= 6"


def _run_hermiticity(ctx: SuiteContext):
    worst = 0.0
    for j in _half_spins(6):
        rep = angular.build_suF2(j)
        if not np.array_equal(rep.j_minus, rep.j_plus.conj().T):
            return False, None, f"standard variant adjoint relation broken at j={j}"
    for j in _half_spins(5):
        rep = angular.build_tilde(j)
        adjoint = rep.j_plus.conj().T
        mag_dev = float(np.max(np.abs(np.abs(adjoint) - np.abs(rep.j_minus))))
        worst = max(worst, mag_dev)
        nz = np.abs(rep.j_minus) > 1e-9
        ratios = adjoint[nz] / rep.j_minus[nz]
        phase_dev = float(np.max(np.abs(np.abs(ratios) - 1.0))) if ratios.size else 0.0
        worst = max(worst, phase_dev)
    return worst <= ctx.tol, worst, "standard adjoint exact; tilde deviation confined to unit phases"


# ---------------------------------------------------------------------------
# known-deviation suites
# ---------------------------------------------------------------------------

_PRINTED_GOLDEN_PI = complex(4.73068, 0.0939706)


def _run_pi_extension_scale(ctx: SuiteContext):
    with mp.workdps(ctx.precision):
        value = core.fib_extended(mp.pi, ctx.precision).value
        scaled = value * mp.sqrt(5)
        dev = float(abs(scaled - mp.mpc(_PRINTED_GOLDEN_PI)))
    ok = dev <= ctx.tol
    notes = ("library returns the 1/sqrt(5)-normalized F_pi; the published example value "
             "4.73068+0.0939706i is the unnormalized sqrt(5)*F_pi (reproduced to ~2e-6 when "
             "evaluated with the truncated constants 1.618 and 3.14)")
    return ok, dev, notes


def _run_antiderivative_convention(ctx: SuiteContext):
    worst = mp.mpf(0)
    with mp.workdps(ctx.precision):
        for coeffs in ((Fraction(1),), (Fraction(0), Fraction(1)),
                       (Fraction(0), Fraction(0), Fraction(1))):
            g = UnivarPoly(coeffs=coeffs)
            G = (lambda gg: lambda t: calculus.jackson_antiderivative(gg, t, precision=ctx.precision))(g)
            for x in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(2)):
                res = abs(calculus.golden_derivative(G, x, precision=ctx.precision)
                          - g.evaluate(x))
                worst = max(worst, res)
    ok = float(worst) <= ctx.tol
    notes = ("the geometric-grid antiderivative fixes the ambiguous argument-shift notation by "
             "the round-trip contract: the Golden derivative of the antiderivative returns the "
             "integrand (checked on 1, x, x^2 at x in {0.5, 1, 2})")
    return ok, float(worst), notes


def _run_number_inversion_branch(ctx: SuiteContext):
    with mp.workdps(ctx.precision):
        worst = mp.mpf(0)
        for n in (3, 5, 7, 9):
            F = mp.mpf(fib_exact(n))
            minus_branch = mp.log(mp.sqrt(5) / 2 * F - mp.sqrt(5 * F ** 2 / 4 - 1)) / mp.log(mp.phi)
            worst = max(worst, abs(minus_branch + n))
            if oscillator.invert_number(fib_exact(n), "odd") != n:
                return False, None, f"plus-branch round trip failed at n={n}"
    ok = float(worst) <= ctx.tol
    notes = ("the published odd-index inversion uses a minus before the radical, which lands on "
             "-n (it selects phi^-n); the implementation takes the plus branch, validated by the "
             "exact round trip through the integer Fibonacci path")
    return ok, float(worst), notes


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES: tuple[Suite, ...] = (
    Suite("core.addition-law",
          "F(n+m) = F(n-1) F(m) + F(n) F(m+1)",
          "0 <= n, m <= 200", None, None, "invariant", _run_addition_law),
    Suite("core.subtraction-law",
          "F(n-m) = (-1/phi)^(-m) F(n) - phi^n (-1)^(-m) F(m)",
          "0 <= m <= n <= 100, exact in Z[phi]", None, None, "invariant", _run_subtraction_law),
    Suite("core.multiplication-law",
          "F(n*m) = F(n) * F^(n)(m)",
          "1 <= n, m <= 30, exact", None, None, "invariant", _run_multiplication_law),
    Suite("core.division-law",
          "F(m/n) = F(m) / F^(m/n)(n)",
          "(m, n) in {(4,2), (6,3), (6,2)}", 1e-10, 1e-12, "invariant", _run_division_law),
    Suite("core.lucas-combinations",
          "phi^(2k) + phi^(-2k) = F(2k) + 2 F(2k-1);  phi^(2k+1) - phi^(-(2k+1)) = F(2k+1) + 2 F(2k)",
          "1 <= k <= 50, exact in Z[phi]", None, None, "invariant", _run_lucas_combinations),
    Suite("core.real-addition",
          "F(x+y) = phi^x F(y) + (-1/phi)^y F(x) for real x, y",
          "20 seeded pairs in [-5, 5]", 1e-10, 1e-12, "invariant", _run_real_addition),
    Suite("core.real-recurrence",
          "F(x) = F(x-1) + F(x-2) for real x",
          "20 seeded arguments in [-5, 5]", 1e-10, 1e-12, "invariant", _run_real_recurrence),
    Suite("fibonomial.form-agreement",
          "product of Golden binomial factors equals the Fibonomial expansion",
          "0 <= n <= 20, exact", None, None, "invariant", _run_form_agreement),
    Suite("fibonomial.root-structure",
          "(x+y)_F^n vanishes at x/y = -phi^(n-1-2j), j = 0..n-1",
          "1 <= n <= 10, exact", None, None, "invariant", _run_root_structure),
    Suite("fibonomial.symmetry-integrality",
          "[n k]_F = [n n-k]_F is a positive integer",
          "0 <= k <= n <= 100", None, None, "invariant", _run_symmetry_integrality),
    Suite("fibonomial.factored-polynomials",
          "factored Golden polynomial forms (phi powers / Fibonacci coefficients) and the printed P_1..P_7 equal (x-a)_F^n / F_n!",
          "1 <= n <= 8, exact", None, None, "invariant", _run_factored_polynomials),
    Suite("fibonomial.noncomm-bridge",
          "normal-ordered (x+y)^n on y x = phi x y has coefficients [n k]_F (-1/phi)^(k(k-1)/2)",
          "0 <= n <= 10, exact", None, None, "invariant", _run_noncomm_bridge),
    Suite("calculus.leibnitz-rule-i",
          "D(fg)(x) = Df(x) g(phi x) + f(-x/phi) Dg(x)",
          "20 seeded polynomial pairs, degree <= 6", 1e-10, 1e-12, "invariant", _run_leibnitz_i),
    Suite("calculus.leibnitz-rule-ii",
          "D(fg)(x) = Df(x) g(-x/phi) + f(phi x) Dg(x), and the symmetric half-sum form",
          "20 seeded polynomial pairs, degree <= 6", 1e-10, 1e-12, "invariant", _run_leibnitz_ii),
    Suite("calculus.leibnitz-general-alpha",
          "the one-parameter interpolation of the product rule holds for every alpha",
          "5 seeded alpha in [-2, 2], 20 polynomial pairs", 1e-10, 1e-12, "invariant",
          _run_leibnitz_alpha),
    Suite("calculus.quotient-rules",
          "all three written quotient-rule forms agree with the direct derivative of f/g",
          "20 seeded pairs, denominator bounded away from zero", 1e-10, 1e-12, "invariant",
          _run_quotient_rules),
    Suite("calculus.summation-formula",
          "sum F(n)/n! = e^(1/2) sinh(sqrt(5)/2) / (sqrt(5)/2)",
          "40 series terms", 1e-12, 1e-14, "invariant", _run_summation_formula),
    Suite("calculus.exp-eigenrelations",
          "D e_F(kx) = k e_F(kx)  and  D E_F(kx) = k E_F(-kx)",
          "k in {1, 1/2, 2}, sampled x, series and difference-quotient routes",
          1e-8, 1e-10, "invariant", _run_exp_eigenrelations),
    Suite("calculus.binomial-derivative",
          "D_x (x+y)_F^n = F(n) (x+y)_F^(n-1);  (D_y)^(2k) (x+y)_F^(2k) = (-1)^k F(2k)!",
          "n <= 10, k <= 4, exact", None, None, "invariant", _run_binomial_derivative),
    Suite("calculus.taylor-basis",
          "D P_n = P_{n-1} for the Golden polynomials",
          "1 <= n <= 15, a in {1, 3/2}, exact", None, None, "invariant", _run_taylor_basis),
    Suite("oscillator.diagonal-identities",
          "F(n+1) - phi F(n) = (-1/phi)^n  and  F(n+1) + F(n)/phi = phi^n",
          "0 <= n <= 100, exact in Z[phi]", None, None, "invariant", _run_diagonal_identities),
    Suite("oscillator.fock-normalization",
          "repeated raising builds unit-norm states: |(b+)^n vacuum| = sqrt(F(n)!)",
          "n < dim = 12", 1e-12, 1e-13, "invariant", _run_fock_normalization,
          supports_fault=True),
    Suite("oscillator.number-distinct",
          "the number operator differs from b+b (diagonal gap >= 1 from n = 3 on)",
          "interior states, dim 12", None, None, "invariant", _run_number_distinct),
    Suite("oscillator.hamiltonian-diagonal",
          "H = (hw/2)(b+b + bb+) is diagonal with interior entries (hw/2) F(n+2)",
          "dim 12, relative", 1e-12, 1e-13, "invariant", _run_hamiltonian_diagonal),
    Suite("angular.docagne-identity",
          "F(j+m) F(j-m+1) - F(j-m) F(j+m+1) = (-1)^(j-m) F(2m)",
          "0 <= m <= j <= 40, exact integers", None, None, "invariant", _run_docagne),
    Suite("angular.casimir-forms",
          "both written Casimir forms coincide with eigenvalue (-1)^(-j) F(j) F(j+1)",
          "j <= 6 in half-integer steps", 1e-12, 5e-13, "invariant", _run_casimir_forms),
    Suite("angular.tilde-anticommutator",
          "{Jt+, Jt-} = diag(F(2m)), off-diagonal zero; both tilde Casimir forms agree",
          "j <= 5 in half-integer steps", 1e-10, 1e-12, "invariant", _run_tilde_anticommutator),
    Suite("angular.relabeling",
          "double-boson amplitudes under n1 = j+m, n2 = j-m equal the |j, m> matrix elements",
          "j <= 6 in half-integer steps, exact", None, None, "invariant", _run_relabeling),
    Suite("angular.hermiticity",
          "standard variant: (J+)^dagger = J- exactly; tilde variant deviates only by unit phases",
          "j <= 6 (standard), j <= 5 (tilde)", 1e-12, 1e-13, "invariant", _run_hermiticity),
    Suite("core.pi-extension-scale",
          "published Golden-pi example equals sqrt(5) * F(pi), not F(pi)",
          "single value", 5e-3, 5e-3, "known-deviation", _run_pi_extension_scale),
    Suite("calculus.antiderivative-convention",
          "argument-shift convention of the antiderivative fixed by D o integral = identity",
          "g in {1, x, x^2}, x in {0.5, 1, 2}", 1e-10, 1e-10, "known-deviation",
          _run_antiderivative_convention),
    Suite("oscillator.number-inversion-branch",
          "odd-index inversion takes the plus branch; the published minus branch returns -n",
          "odd n in {3, 5, 7, 9}", 1e-9, 1e-9, "known-deviation", _run_number_inversion_branch),
)


def suite_ids() -> list[str]:
    return [s.id for s in SUITES]


def matching_suites(only=None) -> list[Suite]:
    """The suites whose id starts with one of the prefixes in `only` (all when empty)."""
    return [s for s in SUITES if not only or s.id.startswith(tuple(only))]


def verify_all(profile: str = "default", seed: int = 0,
               only: list[str] | None = None,
               inject_fault: str | None = None,
               precision: int = DEFAULT_PRECISION,
               tol_override: float | None = None) -> VerificationReport:
    """Run every identity suite and assemble the report.

    `profile` selects default or strict tolerances (`tol_override` replaces
    both for tolerance-bearing suites); `only` filters by suite id prefix;
    `inject_fault` perturbs a fault-capable suite to prove the harness
    detects corruption.  Suites never abort the run: an exception becomes a
    "fail" entry.
    """
    if profile not in ("default", "strict"):
        raise DomainError("profile must be 'default' or 'strict'")
    selected = matching_suites(only)
    if not selected:
        raise DomainError(f"no verification suites match {only!r}")
    if inject_fault is not None:
        targets = [s for s in selected if s.id == inject_fault]
        if not targets:
            raise DomainError(f"unknown fault-injection target {inject_fault!r}")
        if not targets[0].supports_fault:
            raise DomainError(f"suite {inject_fault!r} does not support fault injection")

    entries: list[ReportEntry] = []
    diagnostics: list[str] = []
    for suite in selected:
        tol = suite.default_tol if profile == "default" else suite.strict_tol
        if tol is not None and tol_override is not None:
            tol = tol_override
        ctx = SuiteContext(tol=tol, rng=random.Random(seed),
                           fault=(suite.id == inject_fault), precision=precision)
        try:
            ok, residual, notes = suite.runner(ctx)
        except Exception as exc:  # capture, never abort the run
            ok, residual, notes = False, None, f"suite raised {type(exc).__name__}: {exc}"
        if suite.kind == "known-deviation":
            status = "known-deviation" if ok else "fail"
        else:
            status = "pass" if ok else "fail"
        entries.append(ReportEntry(
            id=suite.id, statement=suite.statement, range=suite.range_desc,
            tolerance=tol, max_residual=residual, status=status, notes=notes))
    entries.sort(key=lambda e: e.id)

    # informative residual of the underdetermined symmetric construction
    for j in (1, 2):
        rep = angular.verify_symmetric(j)
        diagnostics.append(str(rep))

    return VerificationReport(profile=profile, seed=seed,
                              entries=tuple(entries), diagnostics=tuple(diagnostics))
