"""Fibonacci factorials, Fibonomials, Golden binomials and polynomials.

The Fibonomial coefficient [n k]_F = F_n! / (F_k! F_{n-k}!) plays the role of
the binomial coefficient for the Golden binomial

    (x + y)_F^n = (x + phi^{n-1} y)(x - phi^{n-3} y) ... (x + (-1)^{n-1} phi^{-n+1} y),

whose expansion carries signs (-1)^{k(k-1)/2}.  The same coefficients appear
in the normal-ordered binomial on the plane y x = phi x y, in the Golden
polynomials P_n(x) = (x - a)_F^n / F_n!, and in the finite products whose
large-n limit is the Jackson exponential with base -phi**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import inf, isqrt
from operator import mul
from typing import TYPE_CHECKING, Iterator, Literal

from .core import (
    DEFAULT_DPS,
    DomainError,
    QPhi,
    ZPhi,
    _at_precision,
    _dyadic,
    _finite,
    _integer,
    _rational,
    _require,
    fib_range,
    phi_power_exact,
)

if TYPE_CHECKING:
    import mpmath

MAX_FACTORIAL_INDEX = 10**3
MAX_FIBONOMIAL_INDEX = 300
MAX_BINOMIAL_DEGREE = 30
MAX_NONCOMM_DEGREE = 12
MAX_SERIES_TERMS = 200


def fib_factorial(n: int) -> int:
    """F_n! = F_1 * F_2 * ... * F_n, with F_0! = 1 (empty product)."""
    for out in _fib_factorials(_integer("factorial index", n, 0, MAX_FACTORIAL_INDEX)):
        pass  # keeps only the last product: F_1000! alone is ~43 kB
    return out


def _fib_factorials(n: int) -> Iterator[int]:
    """F_0!, F_1!, ..., F_n!, lazily, one multiply a step over one Fibonacci table."""
    return accumulate(fib_range(1, n) if n > 0 else (), mul, initial=1)


def fibonomial_row(n: int) -> tuple[int, ...]:
    """The whole row [n 0]_F, ..., [n n]_F of Fibonomial coefficients.

    Built by the multiplicative step [n k] = [n k-1] * F_{n-k+1} / F_k, each
    step an exact division.  The most recent row is kept, so a caller that
    walks one row a coefficient at a time pays for it once.
    """
    return _fibonomial_row(_integer("upper index", n, 0, MAX_FIBONOMIAL_INDEX))


@lru_cache(maxsize=1)  # one row at n = 300 holds ~0.4 MB
def _fibonomial_row(n: int) -> tuple[int, ...]:
    # The full row is computed, never mirrored, so [n k] = [n n-k] stays a check.
    fibs, row = fib_range(0, n), [1]
    for k in range(1, n + 1):
        c, r = divmod(row[-1] * fibs[n - k + 1], fibs[k])
        if r:  # cannot happen: Fibonomials are integers
            raise ArithmeticError(f"Fibonomial ({n},{k}) is not an integer")
        row.append(c)
    return tuple(row)


def fibonomial(n: int, k: int) -> int:
    """Fibonomial coefficient F_n! / (F_k! F_{n-k}!), always an integer.

    Read from the cached `fibonomial_row(n)`.  k outside [0, n] returns 0,
    matching the usual binomial-sum convention.
    """
    _integer("upper index", n, 0, MAX_FIBONOMIAL_INDEX)
    return _fibonomial_row(n)[k] if 0 <= _integer("lower index", k, -inf, inf) <= n else 0


def _half_triangle_sign(k: int) -> int:
    """(-1)**(k(k-1)/2): the sign pattern + + - - repeating."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


# ---------------------------------------------------------------------------
# Bivariate polynomials with exact coefficients
# ---------------------------------------------------------------------------

class BivarPoly:
    """Sparse polynomial sum c_{ij} x^i y^j with exact coefficients.

    Coefficients may be any exact ring elements supporting +, * and
    truth-testing (QPhi or ZPhi, int, Fraction); explicit zeros are dropped.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], object]) -> None:
        self._coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def one(cls) -> BivarPoly:
        return cls({(0, 0): ZPhi(1, 0)})

    @property
    def coefficients(self) -> dict[tuple[int, int], object]:
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return self._coeffs == other._coeffs if isinstance(other, BivarPoly) else NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"BivarPoly({self._coeffs!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self._coeffs, key=lambda e: (-e[0], e[1])):
            c = self._coeffs[(i, j)]
            mono = (f"x^{i}" if i > 1 else "x" if i == 1 else "") + \
                   (f"y^{j}" if j > 1 else "y" if j == 1 else "")
            parts.append(f"({c}){mono}" if mono else f"({c})")
        return " + ".join(parts)

    def __mul__(self, other: BivarPoly | object) -> BivarPoly:
        if isinstance(other, BivarPoly):
            out: dict[tuple[int, int], object] = {}
            for (i1, j1), c1 in self._coeffs.items():
                for (i2, j2), c2 in other._coeffs.items():
                    e = (i1 + i2, j1 + j2)
                    p = c1 * c2
                    out[e] = out[e] + p if e in out else p
            return BivarPoly(out)
        return BivarPoly({e: c * other for e, c in self._coeffs.items()})

    __rmul__ = __mul__

    def evaluate(self, x_val, y_val):
        """Sum of c x^i y^j at exact x and y, each power of x and of y computed once."""
        xs, ys = [1], [1]
        for i, j in self._coeffs:
            while len(xs) <= i:
                xs.append(xs[-1] * x_val)
            while len(ys) <= j:
                ys.append(ys[-1] * y_val)
        return sum((c * xs[i] * ys[j] for (i, j), c in self._coeffs.items()), 0)

    def monomials(self) -> Iterator[tuple[tuple[int, int], object]]:
        return iter(sorted(self._coeffs.items()))


def _linear_factor(y_coeff) -> BivarPoly:
    """x + (y_coeff) * y."""
    return BivarPoly({(1, 0): ZPhi(1, 0), (0, 1): y_coeff})


BinomialForm = Literal["product", "expansion"]


def golden_binomial(n: int, form: BinomialForm = "product") -> BivarPoly:
    """(x + y)_F^n over Z[phi], by factor product or Fibonomial expansion.

    product:   multiply the n factors (x + (-1)^j phi^{n-1-2j} y), j = 0..n-1.
    expansion: sum [n k]_F (-1)^{k(k-1)/2} x^{n-k} y^k.

    Both forms produce the identical polynomial; the expansion coefficients
    are plain integers (vanishing phi-component).
    """
    _integer("degree", n, 0, MAX_BINOMIAL_DEGREE)
    if form == "product":
        coeffs = [ZPhi(1, 0)]  # of x^(j-k) y^k after j factors
        for j in range(n):
            c = phi_power_exact(n - 1 - 2 * j)
            if j % 2:
                c = -c
            coeffs.append(c * coeffs[-1])
            for k in range(j, 0, -1):
                coeffs[k] = coeffs[k] + c * coeffs[k - 1]
        return BivarPoly({(n - k, k): c for k, c in enumerate(coeffs)})
    if form == "expansion":
        coeffs = {
            (n - k, k): ZPhi(_half_triangle_sign(k) * c, 0)
            for k, c in enumerate(fibonomial_row(n))
        }
        return BivarPoly(coeffs)
    raise DomainError(f"unknown binomial form {form!r}")


def golden_binomial_roots(n: int) -> list[ZPhi]:
    """The n zeros of (x+y)_F^n at x/y = -phi^{n-1-2j}, as exact ring elements."""
    _integer("degree", n, 0, MAX_BINOMIAL_DEGREE)
    return [-(phi_power_exact(n - 1 - 2 * j)) if j % 2 == 0 else phi_power_exact(n - 1 - 2 * j)
            for j in range(n)]


# ---------------------------------------------------------------------------
# Golden polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnivarPoly:
    """Dense univariate polynomial, ascending-degree exact coefficients.

    `shift` records the parameter a for polynomials born as (x - a)_F^n / F_n!.
    Empty `coeffs` (taylor_reconstruct([])) have no degree: reading it is a DomainError.
    """

    coeffs: tuple
    shift: Fraction | None = None

    @property
    def degree(self) -> int:
        _require(len(self.coeffs) > 0, "a polynomial needs at least one coefficient")
        return len(self.coeffs) - 1

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + (c.to_mpf() if isinstance(c, QPhi) else c)
        return total

    def __str__(self) -> str:
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mono = f"x^{k}" if k > 1 else ("x" if k == 1 else "")
            parts.append(f"({c}){mono}" if mono else f"({c})")
        return " + ".join(parts) if parts else "0"


def _trim(coeffs: list) -> tuple:
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def golden_polynomial(n: int, a: int | Fraction = 1) -> UnivarPoly:
    """P_n(x) = (x - a)_F^n / F_n!;  P_0 = 1.  Exact rational coefficients."""
    _integer("degree", n, 0, MAX_BINOMIAL_DEGREE)
    a = _rational("a", a)
    coeffs = [Fraction(0)] * (n + 1)
    num, den = 1, fib_factorial(n)  # (-a)^k / F_n! = num / den, one normalization a coefficient
    for k, c in enumerate(fibonomial_row(n)):
        coeffs[n - k] = Fraction(_half_triangle_sign(k) * c * num, den)
        num, den = -num * a.numerator, den * a.denominator
    return UnivarPoly(coeffs=_trim(coeffs), shift=a)


# ---------------------------------------------------------------------------
# Normal ordering on the plane y x = phi x y
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoncommWord:
    """Normal-ordered expansion sum c_k x^{n-k} y^k on the plane y x = phi x y."""

    n: int
    coeffs: tuple[ZPhi, ...]


def noncomm_expand(n: int) -> NoncommWord:
    """Expand (x+y)(x + qy)(x + q^2 y)...(x + q^{n-1} y) with q = -1/phi.

    Each right-multiplication is normal-ordered through y x = phi x y, all
    exactly in Z[phi] (powers of phi are units).  The resulting coefficients
    equal [n k]_F * (-1/phi)^{k(k-1)/2}.
    """
    _integer("degree", n, 0, MAX_NONCOMM_DEGREE)
    q = ZPhi.phi_conjugate()  # -1/phi = 1 - phi
    coeffs = [ZPhi(1, 0)]  # of x^(m-k) y^k after m factors
    for m in range(n):
        # (x^{m-k} y^k) * x = phi^k x^{m-k+1} y^k and (x^{m-k+1} y^{k-1}) * q^m y = q^m x^{m-k+1} y^k
        q_m = q ** m
        coeffs.append(coeffs[-1] * q_m)
        for k in range(m, 0, -1):
            coeffs[k] = coeffs[k] * phi_power_exact(k) + coeffs[k - 1] * q_m
    return NoncommWord(n=n, coeffs=tuple(coeffs))


def noncomm_expected_coefficient(n: int, k: int) -> ZPhi:
    """[n k]_F * (-1/phi)^{k(k-1)/2}, the closed form for noncomm_expand (0 for k outside 0..n)."""
    c = fibonomial(n, k)  # refuses a bad n or k before the power
    return ZPhi.phi_conjugate() ** (k * (k - 1) // 2) * c if c else ZPhi(0, 0)


# ---------------------------------------------------------------------------
# Jackson exponential and the remarkable limit
# ---------------------------------------------------------------------------

def golden_base(precision: int = DEFAULT_DPS) -> mpmath.mpf:
    """-phi**2, the Jackson base reached by the large-n Golden binomial limit."""
    with _at_precision(precision, guard=0) as mp:
        return -(mp.phi ** 2)


def _tolerance(sre: int, sim: int, re: int, im: int, scale: int, prec: int) -> int:
    """(eps max(|sum| - |term|, 1))^2, eps = 2^(1 - prec), for ints scaled by 2^scale; 1 is at least one unit."""
    return (max(isqrt(sre * sre + sim * sim) - isqrt(re * re + im * im), 1 << max(scale, 0)) >> prec - 1) ** 2


def _ge(a: int, b: int, n: int) -> bool:
    """a >= b 2^n for ints a and b, shifting only towards smaller ints, whatever the sign of n."""
    return a >> n >= b if n >= 0 else a >= -(-b >> -n)


def _scaled(pr: int, pi: int, shift: int, d: int, top: int) -> tuple[int, int, int]:
    """(floor(pr / (d 2^r)), floor(pi / (d 2^r)), drop) with r = shift + drop, each one floor.

    drop >= 0 is the fewest bits that keep the parts below 2^(top + 1), and a negative r
    shifts left, so a binary exponent in shift never grows the ints, however large it is.
    """
    bits = max(pr.bit_length(), pi.bit_length())
    r = max(shift, bits - d.bit_length() - top) if bits else shift
    if r < 0:
        return (pr << -r) // d, (pi << -r) // d, r - shift
    return (pr >> r) // d, (pi >> r) // d, r - shift


def jackson_exp(q, x, n_terms: int = 60, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """Jackson q-exponential: sum_{k=0}^{n_terms} x^k / [k]_q!.

    [k]_q = (q^k - 1)/(q - 1) = 1 + q + ... + q^{k-1} comes from its
    recurrence [k]_q = 1 + q [k-1]_q, [0]_q = 0, so q = 1 gives [k]_q = k
    exactly and the classical exponential.  Each term is the last one times
    x / [k]_q, in fixed point: [k]_q, the terms and the sum are int pairs (re, im), [k]_q
    scaled by 2^bs and the rest by 2^wp, both from wp = the working precision + 8 bits,
    with q and x split by `core._dyadic` (keep = 2 wp).  Each step truncates: [k]_q gains
    under two units, and a term is off by under one unit plus |x / [k]_q| times the error
    of the last.  Before the proven tail a term past 2^(2 wp) units lowers wp by the
    excess and shifts the sum down with it (`_scaled`), so the term keeps about 2 wp bits,
    and a [k]_q past 2^(2 wp) units lowers bs the same way: the ints stay bounded however
    large x or q is.  The error bound is on the complex sum as a whole: a part far below
    |sum| keeps its absolute digits only.  [k]_q below 2^-prec is zero at the working
    precision, a DomainError.
    The sum stops early at a proven tail: once |[k]_q| >= 2|x| and [j]_q cannot shrink
    (q real >= 1, or (|q| - 1) |[k]_q| >= 1, as |[j+1]_q| >= |q| |[j]_q| - 1), each later
    ratio |x / [j]_q| is at most 1/2, so the terms after k sum to at most |term_k|, and
    the first such k with |term_k| <= eps max(|sum|, 1) ends it.  Both need q real >= 1
    or |q| > 1, where no [j]_q vanishes, so the stop never skips the DomainError.

    Two known digit losses, with no retry at more working digits yet: near q = -1 the recurrence
    cancels (q = -1 - 1e-30, x = 0.5 is off by ~1.2e-16 relative at 34 digits with 200 terms), and at
    q = 1 + 1e-30, x = -37.5 the alternating terms (up to ~1e15, sum ~5e-17) leave a relative error
    of ~7e-20 at 34 digits and ~0.2 at 16.
    """
    _integer("term count", n_terms, 1, MAX_SERIES_TERMS)
    with _at_precision(precision) as mp:
        bw = mp.prec + 8  # grow is scaled by 2^bw, [k]_q by 2^bs, the terms and the sum by 2^wp
        (qa, qb, qs), (xa, xb, xs) = _dyadic(_finite(q, "base"), 2 * bw), _dyadic(_finite(x, "argument"), 2 * bw)
        bs, wp, top = bw, bw, 2 * bw  # an int past 2^top rescales
        one = unit = 1 << bw  # unit is 1 at [k]_q's scale
        # floor((|q| - 1) 2^bw), or 2^bw where it is at least that: a real q >= 1, whose
        # [k]_q >= 1 cannot shrink, and |q| >= 2^(2 bw), where qs < 0
        grow = one if qs < 0 or qb == 0 and qa >= 1 << qs else (isqrt(qa * qa + qb * qb << 2 * bw) >> qs) - one
        x4 = xa * xa + xb * xb << 2  # (2|x|)^2 2^(2 xs)
        re, im, sre, sim, br, bi, tol = one, 0, one, 0, one, 0, -1  # [1]_q = 1; tol is set at the proven tail
        for k in range(1, n_terms + 1):
            norm = br * br + bi * bi
            if norm < 1 << 16:  # |[k]_q| < 2^-prec; a rescaled [k]_q is far above 1
                raise DomainError(f"basic factorial [{k}]_q! vanishes for q = {q}")
            pr, pi = re * xa - im * xb, re * xb + im * xa
            pr, pi = pr * br + pi * bi, pi * br - pr * bi
            if tol < 0:  # the terms may still grow
                re, im, drop = _scaled(pr, pi, xs - bs, norm, top)
                sre, sim, wp = (sre >> drop) + re, (sim >> drop) + im, wp - drop
                if _ge(norm, x4, 2 * (bs - xs)) and _ge(grow * isqrt(norm), 1, bw + bs):
                    tol = _tolerance(sre, sim, re, im, wp, mp.prec)  # |sum| stays above |total| - |term|
            else:  # past the proven tail the terms only shrink, so no rescale
                e, d = (bs - xs, norm) if bs >= xs else (0, norm << xs - bs)
                re, im = (pr << e) // d, (pi << e) // d
                sre, sim = sre + re, sim + im
            if re * re + im * im <= tol:
                break
            if qs >= 0 and norm >> 2 * top == 0:  # [k+1]_q = 1 + q [k]_q, with |[k]_q| below 2^top units
                br, bi = unit + (qa * br - qb * bi >> qs), qa * bi + qb * br >> qs
            else:  # the same with a rescale, where 1 falls below one unit once bs < 0
                br, bi, drop = _scaled(qa * br - qb * bi, qa * bi + qb * br, qs, 1, top)
                bs -= drop
                unit = 1 << bs if bs >= 0 else 0
                br += unit
        return mp.mpc(mp.ldexp(sre, -wp), mp.ldexp(sim, -wp))


def remarkable_limit_lhs(y, n: int, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """(1 + y/phi^n)_F^n by its finite Fibonomial expansion sum_k s_k [n k]_F u^k, u = y/phi^n.

    As n grows this approaches the Jackson exponential e_{-phi^2}(y/sqrt(5)).
    Each term is the last one times t_(k+1) / t_k = (-1)^k u F_(n-k) / F_(k+1), in fixed point
    as in jackson_exp: times u's mantissa and F_(n-k), then u's binary exponent shifted out and
    F_(k+1) floor-divided, so a term is off by under one unit of 2^-wp plus the ratio times the
    error of the last, and until the proven tail a term past 2^(2 wp) units rescales wp and the sum.
    As there, the error bound is on the complex sum as a whole.  The sum stops early at a
    proven tail: |t_(k+1) / t_k| never increases with k, so once it is at most 1/2 the terms
    after t_k sum to at most |t_k|.  As in jackson_exp, the first such k fixes the tolerance
    eps max(|total| - |t_k|, 1), at most eps max(|sum|, 1), and the first term from there on
    that is within it ends the sum.
    """
    _integer("degree", n, 1, MAX_SERIES_TERMS)
    with _at_precision(precision) as mp:
        fibs, wp = fib_range(0, n), mp.prec + 8  # the terms and the sum are scaled by 2^wp
        ua, ub, us = _dyadic(_finite(y, "argument") / mp.power(mp.phi, n), 2 * wp)
        top, u4 = 2 * wp, ua * ua + ub * ub << 2  # an int past 2^top rescales; (2|u|)^2 2^(2 us)
        re, im, sre, sim, tol = 1 << wp, 0, 1 << wp, 0, -1  # tol is set at the proven tail
        for k in range(n):
            if tol < 0 and _ge(fibs[k + 1] ** 2, u4 * fibs[n - k] ** 2, -2 * us):
                tol = _tolerance(sre, sim, re, im, wp, mp.prec)  # |sum| stays above |total| - |term|
            if re * re + im * im <= tol:
                break
            f, g = -fibs[n - k] if k % 2 else fibs[n - k], fibs[k + 1]
            pr, pi = (re * ua - im * ub) * f, (re * ub + im * ua) * f
            if tol < 0:  # the terms may still grow
                re, im, drop = _scaled(pr, pi, us, g, top)
                sre, sim, wp = (sre >> drop) + re, (sim >> drop) + im, wp - drop
            else:  # past the proven tail |u| <= F_n / 2 < 2^(2 wp), so us >= 0, and the terms only shrink
                re, im = (pr >> us) // g, (pi >> us) // g
                sre, sim = sre + re, sim + im
        return mp.mpc(mp.ldexp(sre, -wp), mp.ldexp(sim, -wp))


def remarkable_limit(y, n: int, precision: int = DEFAULT_DPS) -> tuple[mpmath.mpc, mpmath.mpc, mpmath.mpf]:
    """(1 + y/phi^n)_F^n, the n-term e_{-phi^2}(y/sqrt(5)) and their distance.

    All three keep the guard digits, so the distance is not the rounding of either value.
    """
    with _at_precision(precision) as mp:
        finite = remarkable_limit_lhs(y, n, precision)
        jackson = jackson_exp(-(mp.phi ** 2), _finite(y, "argument") / mp.sqrt(5), n, precision)
        return finite, jackson, abs(finite - jackson)
