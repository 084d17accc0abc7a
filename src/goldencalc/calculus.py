"""The Golden derivative and its calculus.

The Golden derivative is the two-point difference operator

    D_F f(x) = (f(phi*x) - f(-x/phi)) / (sqrt(5) * x),

which sends x^n to F_n x^{n-1}, so it generates Fibonacci numbers from
monomials.  It acts exactly on polynomials (derive_poly) and series
(GoldenSeries.derived); golden_derivative evaluates it at a point, on a
polynomial or a callable.  On top of it sit the Leibnitz and quotient rules,
a Taylor formula in the basis P_n = x^n / F_n!, two entire Golden
exponentials with their trigonometric offspring, and the antiderivative
inverting D_F (exact on polynomials, a geometric-grid sum for callables).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, repeat
from math import isqrt
from typing import TYPE_CHECKING, Callable, Literal, Sequence

from .core import (
    DEFAULT_DPS,
    DomainError,
    _FIB_TABLE,
    _FIB_TABLE_INDEX as _T,
    _at_precision,
    _coefficients,
    _dyadic,
    _finite,
    _integer,
    _parts,
    _ratio_series,
    _require,
    fib_exact,
    fib_range,
)
from .binomials import MAX_FACTORIAL_INDEX, BivarPoly, UnivarPoly, _fib_factorials, _half_triangle_sign, _trim

if TYPE_CHECKING:
    import mpmath

MAX_EXP_TERMS = 500


# ---------------------------------------------------------------------------
# The derivative operator
# ---------------------------------------------------------------------------

def derive_poly(f: UnivarPoly) -> UnivarPoly:
    """Exact Golden derivative by the coefficient rule x^n -> F_n x^{n-1}."""
    coeffs = [c * fk for c, fk in zip(f.coeffs, fib_range(0, f.degree))]  # F_0 = 0: a constant derives to 0
    return UnivarPoly(coeffs=_trim(coeffs[1:] or coeffs), shift=f.shift)


def derive_bivar(p: BivarPoly, var: Literal["x", "y"] = "x") -> BivarPoly:
    """Partial Golden derivative: x^i y^j -> F_i x^(i-1) y^j (var "x") or F_j x^i y^(j-1) (var "y").

    No two monomials share an image, so no terms merge.  Any other var is a DomainError.
    """
    if var == "x":
        return BivarPoly({(i - 1, j): c * fib_exact(i) for (i, j), c in p.coefficients.items() if i})
    if var == "y":
        return BivarPoly({(i, j - 1): c * fib_exact(j) for (i, j), c in p.coefficients.items() if j})
    raise DomainError(f"unknown variable {var!r}")


def golden_derivative(f, x, precision: int = DEFAULT_DPS):
    """Golden derivative of a polynomial or a callable, evaluated at the finite point x.

    A polynomial derives exactly (derive_poly) and is then evaluated; a bare callable needs
    x != 0 and uses the difference quotient.  A series derives exactly by GoldenSeries.derived.
    """
    if not (isinstance(f, UnivarPoly) or callable(f)):
        raise DomainError(f"unsupported function representation {type(f).__name__}")
    with _at_precision(precision) as mp:
        xv = _finite(x, "evaluation point")
        if isinstance(f, UnivarPoly):
            return derive_poly(f).evaluate(xv)
        if xv == 0:
            raise DomainError("difference quotient is singular at x = 0; supply a polynomial form")
        return (f(mp.phi * xv) - f(-xv / mp.phi)) / (mp.sqrt(5) * xv)


def golden_taylor(f: UnivarPoly) -> list:
    """Coefficients (D_F^n f)(0) for n = 0..deg f, in closed form c_n F_n!.

    D_F^n x^k vanishes at 0 unless k = n, where it is F_n!, so (D_F^n f)(0) = c_n F_n!.
    Reconstruction sum_n (D_F^n f)(0) x^n / F_n! returns f exactly.
    """
    if not isinstance(f, UnivarPoly):
        raise DomainError("Taylor expansion requires a polynomial")
    return [c * fact for c, fact in
            zip(f.coeffs, _fib_factorials(_integer("degree", f.degree, 0, MAX_FACTORIAL_INDEX)))]


def taylor_reconstruct(values: Sequence[int | Fraction]) -> UnivarPoly:
    """Rebuild the polynomial sum_n values[n] * x^n / F_n! from golden_taylor output."""
    values = _coefficients("Taylor value", values)
    coeffs = [Fraction(v, fact) for v, fact in
              zip(values, _fib_factorials(_integer("degree", len(values) - 1, 0, MAX_FACTORIAL_INDEX)))]
    return UnivarPoly(coeffs=_trim(coeffs))


# ---------------------------------------------------------------------------
# Series representations and the Golden exponentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesValue:
    """A series sum and a proven bound on the terms it left out.

    `value` sums the first `terms_used` terms and `tail_bound` bounds the
    absolute sum of the rest.  A sum that stops before the cap of n_terms
    (terms_used <= n_terms) has tail_bound <= 10^-precision * max(|value|, 1).
    A capped one keeps a finite bound while some term up to index N = n_terms
    + MAX_EXP_TERMS + 2 can be proven (2|kx| <= F_N), and gets +inf beyond.
    """

    value: mpmath.mpc
    terms_used: int
    tail_bound: mpmath.mpf


@dataclass(frozen=True)
class GoldenSeries:
    """Series sum_n sign(n + shift) k^(n + shift) x^n / F_n!, with sign(n) in {-1, 0, 1}.

    Term n is t0 u_n, t0 = k^shift and u_n = (kx)^n / F_n!: `core._ratio_series` sums the u_n with M_n = kx
    and d_n = F_n, proven once F_(n+1) >= 2|kx|, until the rest is at most 10^-precision max(|value|, 1), and
    |t0| rounded up scales its tail bound.  wp is the working precision + 8 bits + -log2 |u_m| for the first m
    with a nonzero sign (sin_F at tiny x), capped where u_m falls below 10^-precision / (2|t0|).  The guard
    digits cover rounding: for |kx| <= 10^5 no term of e_F, E_F, cos_F or sin_F exceeds 10^6 max(|sum|, 1).
    kx, t0 and the product by t0 are raw libmp operations at the working precision, rounded to nearest.
    """

    sign: Callable[[int], int]
    k: object = 1
    shift: int = 0

    def derived(self) -> GoldenSeries:
        """Exact D_F: shifts the coefficient stream, D_F x^n/F_n! = x^{n-1}/F_{n-1}!."""
        return GoldenSeries(self.sign, self.k, self.shift + 1)

    def evaluate(self, x, n_terms: int = MAX_EXP_TERMS, precision: int = DEFAULT_DPS) -> SeriesValue:
        _integer("term count", n_terms, 1, MAX_EXP_TERMS)
        with _at_precision(precision) as mp:
            import mpmath.libmp as lib  # one module lookup: a from-import of a package costs more
            xv, prec = _parts(_finite(x, "series argument")), mp.prec
            kv = _parts(_finite(self.k, "series parameter k"))
            kx, t0 = lib.mpc_mul(kv, xv, prec, "n"), lib.mpc_pow_int(kv, self.shift, prec, "n")  # term n: t0 u_n
            abs_t0 = lib.mpc_abs(t0, prec, "n")
            if abs_t0 == lib.fzero:  # k = 0 and shift > 0: every term vanishes
                return SeriesValue(value=mp.mpc(0), terms_used=0, tail_bound=mp.zero)
            a, b, s = _dyadic(mp.make_mpc(kx))
            need = -(-isqrt(((a * a + b * b) << 2) - 1) - 1 >> s) if a or b else 0  # ceil(2|kx|)
            m = next((n for n in range(n_terms + 1) if self.sign(n + self.shift)), 0)
            mag = max(a.bit_length(), b.bit_length()) + (1 if a and b else 0) - s  # mpmath's mag of kx
            low = m * (mag - 2 - fib_exact(m).bit_length()) if m and (a or b) else 0
            deep = (10 ** precision).bit_length() + max(mp.mag(mp.make_mpc(t0)), m) + 4
            # u_n is proven once F_(n+1) >= need; past F_(n_terms + MAX_EXP_TERMS + 2) no bound is finite
            last = n_terms + MAX_EXP_TERMS + 2
            first = bisect_left(_FIB_TABLE, need, _T + 1, _T + last + 1) - _T - 1
            steps = zip(repeat(a), repeat(b), repeat(s), map(_FIB_TABLE.__getitem__, range(_T, _T + last)),
                        chain(repeat(False, first), repeat(True)), map(self.sign, count(self.shift)))
            wp, floor = prec + 8 + max(0, min(-low, deep)), lib.mpf_div(lib.fone, abs_t0, prec, "n")  # |value| = 1
            value, n, tail = _ratio_series(islice(steps, n_terms + 1) if first == last else steps,
                                           wp, 2 * 10 ** precision, prec, floor, n_terms)
            if t0 != lib.mpc_one:  # times 1 is exact
                value = lib.mpc_mul(value, t0, prec, "n")
                tail = lib.mpf_mul(lib.mpc_abs(t0, 30, "u"), tail, 30, "u")
            return SeriesValue(mp.make_mpc(value), n, mp.make_mpf(tail))


ExpKind = Literal["small_e", "big_E"]
_EXP_SIGNS = {"small_e": lambda n: 1, "big_E": _half_triangle_sign}


def golden_exp_series(kind: ExpKind = "small_e", k=1) -> GoldenSeries:
    """Series form of e_F^{kx} (kind small_e) or E_F^{kx} (kind big_E)."""
    _require(kind in _EXP_SIGNS, f"unknown exponential kind {kind!r}")
    return GoldenSeries(sign=_EXP_SIGNS[kind], k=k)


def golden_exp(x, kind: ExpKind = "small_e", n_terms: int = MAX_EXP_TERMS,
               precision: int = DEFAULT_DPS) -> SeriesValue:
    """e_F^x = sum x^n/F_n!  or  E_F^x = sum (-1)^{n(n-1)/2} x^n/F_n!.

    Both are entire; the big_E signs repeat + + - -.
    """
    return golden_exp_series(kind).evaluate(x, n_terms=n_terms, precision=precision)


TrigKind = Literal["cos_F", "sin_F", "Cosh_F", "Sinh_F"]
_EVEN_SIGN = lambda n: 0 if n % 2 else _half_triangle_sign(n)
_ODD_SIGN = lambda n: _half_triangle_sign(n) if n % 2 else 0
_TRIG_SIGNS = {"cos_F": _EVEN_SIGN, "Cosh_F": _EVEN_SIGN, "sin_F": _ODD_SIGN, "Sinh_F": _ODD_SIGN}


def golden_trig(x, kind: TrigKind, n_terms: int = MAX_EXP_TERMS,
                precision: int = DEFAULT_DPS) -> SeriesValue:
    """Golden trigonometric functions.

    cos_F and sin_F are the even/odd parts of e_F^{ix}; Cosh_F and Sinh_F are
    the half sum/difference of E_F^{±x}.  The big_E signs (-1)^{n(n-1)/2} are
    (-1)^{n/2} on even n and (-1)^{(n-1)/2} on odd n, so Cosh_F = cos_F and
    Sinh_F = sin_F term by term, and each pair is one series.
    """
    _require(kind in _TRIG_SIGNS, f"unknown trigonometric kind {kind!r}")
    return GoldenSeries(_TRIG_SIGNS[kind]).evaluate(x, n_terms=n_terms, precision=precision)


# ---------------------------------------------------------------------------
# Antiderivative
# ---------------------------------------------------------------------------

def jackson_antiderivative(g, x, *, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """Golden antiderivative G with D_F G = g, evaluated at x != 0.

    A polynomial integrates exactly by x^n -> x^(n+1)/F_(n+1).  A callable is
    summed on the geometric grid G(x) = (1 - Q) x sum_k Q^k g((x/phi) Q^k),
    Q = -1/phi^2, which gives the same rule on x^n since (1 - Q) phi^-n /
    (1 - Q^(n+1)) = 1/F_(n+1).  The grid sum stops at the first term after
    term 0 that is at most 10^-precision * max(|sum|, 1), an estimate rather
    than a proven bound; if MAX_EXP_TERMS terms run out first, it is a DomainError.
    Each term shrinks by |Q| ~ 0.38, so the 500 terms reach ~208 digits when g(0) != 0.
    """
    with _at_precision(precision) as mp:
        xv = _finite(x, "antiderivative argument")
        if xv == 0:
            raise DomainError("antiderivative representation needs x != 0")
        if isinstance(g, UnivarPoly):
            coeffs = [Fraction(c, f) for c, f in zip(g.coeffs, fib_range(1, g.degree + 1))]
            return mp.mpc(UnivarPoly(coeffs=(0, *coeffs)).evaluate(xv))
        phi = +mp.phi
        Q = -1 / phi ** 2
        eps = mp.mpf(10) ** -precision
        total, q_pow = mp.mpc(0), mp.mpc(1)
        for k in range(MAX_EXP_TERMS + 1):
            term = q_pow * g(xv / phi * q_pow)
            total += term
            if k and abs(term) <= eps * max(abs(total), 1):
                return (1 - Q) * xv * total
            q_pow *= Q
        raise DomainError(f"grid series did not reach {precision} digits in MAX_EXP_TERMS = {MAX_EXP_TERMS} terms")
