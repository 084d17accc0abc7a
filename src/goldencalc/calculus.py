"""The Golden derivative and its calculus.

The Golden derivative is the two-point difference operator

    D_F f(x) = (f(phi*x) - f(-x/phi)) / (sqrt(5) * x),

which sends x^n to F_n x^{n-1}, so it generates Fibonacci numbers from
monomials.  On top of it sit the Leibnitz and quotient rules, a Taylor
formula in the basis P_n = x^n / F_n!, two entire Golden exponentials with
their trigonometric offspring, oscillator-type difference equations, and the
geometric-grid antiderivative inverting D_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

import mpmath
from mpmath import mp

from .core import (
    DEFAULT_DPS,
    GUARD_DPS,
    MIN_DPS,
    DomainError,
    _require,
    fib_exact,
)
from .binomials import MAX_FACTORIAL_INDEX, BivarPoly, UnivarPoly, _half_triangle_sign, _trim

MAX_TAYLOR_DEGREE = 100
MAX_EXP_TERMS = 500
STOP_RATIO = mp.mpf("1e-30")


# ---------------------------------------------------------------------------
# The derivative operator
# ---------------------------------------------------------------------------

def derive_poly(f: UnivarPoly) -> UnivarPoly:
    """Exact Golden derivative by the coefficient rule x^n -> F_n x^{n-1}."""
    if f.degree == 0:
        return UnivarPoly(coeffs=(0 * f.coeffs[0],), shift=f.shift)
    coeffs = [f.coeffs[k + 1] * fib_exact(k + 1) for k in range(f.degree)]
    return UnivarPoly(coeffs=_trim(coeffs), shift=f.shift)


def derive_bivar(p: BivarPoly, var: Literal["x", "y"] = "x") -> BivarPoly:
    """Partial Golden derivative of an exact bivariate polynomial."""
    out = {}
    for (i, j), c in p.coefficients.items():
        if var == "x" and i >= 1:
            e = (i - 1, j)
            term = c * fib_exact(i)
        elif var == "y" and j >= 1:
            e = (i, j - 1)
            term = c * fib_exact(j)
        else:
            continue
        out[e] = out[e] + term if e in out else term
    return BivarPoly(out)


def golden_derivative(f, x=None, precision: int = DEFAULT_DPS):
    """Golden derivative of a polynomial, series, or callable.

    Polynomial / series arguments derive exactly (coefficient rule / index
    shift); with a finite `x` supplied, the derived object is evaluated there.
    A bare callable needs x != 0 and uses the difference quotient directly.
    """
    if isinstance(f, UnivarPoly):
        d = derive_poly(f)
        if x is None:
            return d
        _require(mp.isfinite(x), "evaluation point must be finite")
        return d.evaluate(x)
    if isinstance(f, GoldenSeries):
        d = f.derived()
        return d if x is None else d.evaluate(x, precision=precision).value
    if callable(f):
        if x is None:
            raise DomainError("a bare callable needs an evaluation point x")
        with mp.workdps(precision + GUARD_DPS):
            xv = mpmath.mpmathify(x)
            _require(mp.isfinite(xv), "evaluation point must be finite")
            if xv == 0:
                raise DomainError(
                    "difference quotient is singular at x = 0; supply a polynomial or series form")
            return (f(mp.phi * xv) - f(-xv / mp.phi)) / (mp.sqrt(5) * xv)
    raise DomainError(f"unsupported function representation {type(f).__name__}")


def golden_taylor(f: UnivarPoly) -> list:
    """Coefficients (D_F^n f)(0) for n = 0..deg f.

    Reconstruction sum_n (D_F^n f)(0) x^n / F_n! returns f exactly.
    """
    if not isinstance(f, UnivarPoly):
        raise DomainError("Taylor expansion requires a polynomial")
    _require(f.degree <= MAX_TAYLOR_DEGREE, f"degree must not exceed {MAX_TAYLOR_DEGREE}")
    out = []
    cur = f
    for _ in range(f.degree + 1):
        out.append(cur.coeffs[0])
        cur = derive_poly(cur)
    return out


def taylor_reconstruct(values: Sequence) -> UnivarPoly:
    """Rebuild the polynomial sum_n values[n] * x^n / F_n! from golden_taylor output."""
    coeffs = []
    fact, fn, fn1 = 1, 0, 1  # F_n!, F_n, F_{n+1} at n = 0
    for n, v in enumerate(values):
        _require(n <= MAX_FACTORIAL_INDEX, f"factorial index must not exceed {MAX_FACTORIAL_INDEX}")
        if n:
            fact *= fn
        coeffs.append(Fraction(v) / fact if isinstance(v, (int, Fraction)) else v / fact)
        fn, fn1 = fn1, fn + fn1
    return UnivarPoly(coeffs=_trim(coeffs))


# ---------------------------------------------------------------------------
# Series representations and the Golden exponentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesValue:
    """A truncated series evaluation with its first-omitted-term bound."""

    value: mpmath.mpc
    terms_used: int
    tail_bound: mpmath.mpf

    def __complex__(self) -> complex:
        return complex(self.value)


@dataclass(frozen=True)
class GoldenSeries:
    """Series sum c_n x^n / F_n! given by a coefficient rule n -> c_n."""

    coefficient: Callable[[int], object]

    def derived(self) -> GoldenSeries:
        """Exact D_F: shifts the coefficient stream, D_F x^n/F_n! = x^{n-1}/F_{n-1}!."""
        c = self.coefficient
        return GoldenSeries(coefficient=lambda n: c(n + 1))

    def evaluate(self, x, n_terms: int = MAX_EXP_TERMS, precision: int = DEFAULT_DPS) -> SeriesValue:
        _require(1 <= n_terms <= MAX_EXP_TERMS, f"term count must be in 1..{MAX_EXP_TERMS}")
        _require(precision >= MIN_DPS, f"precision must be at least {MIN_DPS} digits")
        with mp.workdps(precision + GUARD_DPS):
            xv = mpmath.mpmathify(x)
            _require(mp.isfinite(xv), "series argument must be finite")
            total = mp.mpc(0)
            power = mp.mpc(1)
            fact = 1
            fa, fb = 0, 1  # running F_n, F_{n+1}
            used = 0
            tail = mp.mpf(0)
            prev_small = False
            for n in range(n_terms + 1):
                if n > 0:
                    power *= xv
                    fa, fb = fb, fa + fb
                    fact *= fa
                term = mpmath.mpmathify(self.coefficient(n)) * power / fact
                # two consecutive negligible terms end the sum (single zeros
                # occur inside the even/odd subseries and must not stop it)
                small = n > 0 and abs(term) < STOP_RATIO * abs(total)
                if small and prev_small:
                    tail = abs(term)
                    break
                total += term
                used += 1
                prev_small = small
            else:
                # bound by the next uncomputed term
                power *= xv
                fa2 = fb
                tail = abs(mpmath.mpmathify(self.coefficient(n_terms + 1))) * abs(power) / (fact * fa2)
            return SeriesValue(value=total, terms_used=used, tail_bound=tail)


def _exp_coefficient(kind: str) -> Callable[[int], int]:
    if kind == "small_e":
        return lambda n: 1
    if kind == "big_E":
        return _half_triangle_sign
    raise DomainError(f"unknown exponential kind {kind!r}")


ExpKind = Literal["small_e", "big_E"]


def golden_exp_series(kind: ExpKind = "small_e", k=1) -> GoldenSeries:
    """Series form of e_F^{kx} (kind small_e) or E_F^{kx} (kind big_E)."""
    sign = _exp_coefficient(kind)
    if k == 1:
        return GoldenSeries(coefficient=sign)
    return GoldenSeries(coefficient=lambda n: sign(n) * k ** n)


def golden_exp(x, kind: ExpKind = "small_e", n_terms: int = 120,
               precision: int = DEFAULT_DPS) -> SeriesValue:
    """e_F^x = sum x^n/F_n!  or  E_F^x = sum (-1)^{n(n-1)/2} x^n/F_n!.

    Both are entire; the big_E signs repeat + + - -.
    """
    return golden_exp_series(kind).evaluate(x, n_terms=n_terms, precision=precision)


TrigKind = Literal["cos_F", "sin_F", "Cosh_F", "Sinh_F"]


def golden_trig(x, kind: TrigKind, n_terms: int = 120,
                precision: int = DEFAULT_DPS) -> SeriesValue:
    """Golden trigonometric functions.

    cos_F and sin_F are the even/odd parts of e_F^{ix}; Cosh_F and Sinh_F are
    the half sum/difference of E_F^{±x}.  The alternating big_E signs make
    Cosh_F x = cos_F x and Sinh_F x = sin_F x.
    """
    if kind == "cos_F":
        series = GoldenSeries(lambda n: (-1) ** (n // 2) if n % 2 == 0 else 0)
        return series.evaluate(x, n_terms=n_terms, precision=precision)
    if kind == "sin_F":
        series = GoldenSeries(lambda n: (-1) ** ((n - 1) // 2) if n % 2 == 1 else 0)
        return series.evaluate(x, n_terms=n_terms, precision=precision)
    if kind in ("Cosh_F", "Sinh_F"):
        plus = golden_exp(x, "big_E", n_terms=n_terms, precision=precision)
        with mp.workdps(precision + GUARD_DPS):
            minus = golden_exp(-mpmath.mpmathify(x), "big_E", n_terms=n_terms, precision=precision)
            sign = 1 if kind == "Cosh_F" else -1
            return SeriesValue(value=(plus.value + sign * minus.value) / 2,
                               terms_used=max(plus.terms_used, minus.terms_used),
                               tail_bound=(plus.tail_bound + minus.tail_bound) / 2)
    raise DomainError(f"unknown trigonometric kind {kind!r}")


OscKind = Literal["hyperbolic", "elliptic"]


def f_oscillator_solution(k, kind: OscKind, A, B, t, n_terms: int = 120,
                          precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """General solution of the Golden oscillator difference equations.

    hyperbolic: A e_F^{kt} + B e_F^{-kt} solves (D_F^2 - k^2) f = 0;
    elliptic:   A E_F^{kt} + B E_F^{-kt} solves (D_F^2 + k^2) f = 0
    (using D_F E_F^{kx} = k E_F^{-kx}).
    """
    if kind == "hyperbolic":
        exp_kind: ExpKind = "small_e"
    elif kind == "elliptic":
        exp_kind = "big_E"
    else:
        raise DomainError(f"unknown oscillator kind {kind!r}")
    with mp.workdps(precision + GUARD_DPS):
        kv = mpmath.mpmathify(k)
        tv = mpmath.mpmathify(t)
        up = golden_exp(kv * tv, exp_kind, n_terms=n_terms, precision=precision).value
        down = golden_exp(-kv * tv, exp_kind, n_terms=n_terms, precision=precision).value
        return mpmath.mpmathify(A) * up + mpmath.mpmathify(B) * down


# ---------------------------------------------------------------------------
# Antiderivative and periodicity
# ---------------------------------------------------------------------------

def jackson_antiderivative(g, x, n_terms: int = 200, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """Geometric-grid antiderivative G with D_F G = g.

    G(x) = (1 - Q) x sum_{k>=0} Q^k g((x/phi) Q^k) with Q = -1/phi^2; the
    series converges geometrically (|Q| < 1).  The defining contract is the
    round trip: applying the Golden derivative to G returns g.
    """
    _require(1 <= n_terms <= MAX_EXP_TERMS, f"term count must be in 1..{MAX_EXP_TERMS}")
    _require(precision >= MIN_DPS, f"precision must be at least {MIN_DPS} digits")
    if isinstance(g, UnivarPoly):
        poly = g
        g = poly.evaluate
    with mp.workdps(precision + GUARD_DPS):
        xv = mpmath.mpmathify(x)
        _require(mp.isfinite(xv), "antiderivative argument must be finite")
        if xv == 0:
            raise DomainError("antiderivative representation needs x != 0")
        phi = +mp.phi
        Q = -1 / phi ** 2
        total = mp.mpc(0)
        q_pow = mp.mpc(1)
        for _ in range(n_terms + 1):
            term = q_pow * g(xv / phi * q_pow)
            total += term
            if abs(term) < STOP_RATIO * abs(total):
                break
            q_pow *= Q
        return (1 - Q) * xv * total


@dataclass(frozen=True)
class PeriodicCheck:
    """Outcome of the Golden-periodicity test D_F f = 0."""

    is_periodic: bool
    max_deviation: float
    worst_sample: float

    def __bool__(self) -> bool:
        return self.is_periodic


def is_golden_periodic(f, samples: Sequence[float], tol: float = 1e-10,
                       precision: int = DEFAULT_DPS) -> PeriodicCheck:
    """True iff f(phi*x) == f(-x/phi) within tol at every sample.

    Functions annihilated by D_F satisfy this dilation identity; the model
    example is sin(pi * ln|x| / ln phi).
    """
    _require(len(samples) > 0, "sample list must be nonempty")
    _require(all(s != 0 for s in samples), "samples must be nonzero")
    with mp.workdps(precision + GUARD_DPS):
        phi = +mp.phi
        worst = mp.mpf(0)
        worst_x = samples[0]
        ok = True
        for s in samples:
            xv = mpmath.mpmathify(s)
            up = f(phi * xv)
            dev = abs(up - f(-xv / phi)) / (1 + abs(up))
            if dev > worst:
                worst, worst_x = dev, s
            if dev > tol:
                ok = False
        return PeriodicCheck(is_periodic=ok, max_deviation=float(worst), worst_sample=float(worst_x))
