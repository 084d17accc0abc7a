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
from itertools import accumulate, count, cycle
from math import inf, isqrt
from operator import mul
from typing import TYPE_CHECKING, Iterator, Literal

from .core import (
    DEFAULT_DPS,
    DomainError,
    ZPhi,
    _at_precision,
    _coefficients,
    _dyadic,
    _finite,
    _halving,
    _integer,
    _ratio_series,
    _rational,
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

    Built to the middle by the multiplicative step [n k] = [n k-1] * F_{n-k+1} / F_k,
    each step an exact division, and mirrored.  The most recent row is kept, so a caller that
    walks one row a coefficient at a time pays for it once.
    """
    return _fibonomial_row(_integer("upper index", n, 0, MAX_FIBONOMIAL_INDEX))


@lru_cache(maxsize=1)  # one row at n = 300 holds ~0.4 MB
def _fibonomial_row(n: int) -> tuple[int, ...]:
    # Mirrored, [n k] = [n n-k]: verify's fibonomial.symmetry-integrality checks it by the Fibonacci-Pascal rule.
    fibs, row = fib_range(0, n), [1]
    for k in range(1, n // 2 + 1):
        c, r = divmod(row[-1] * fibs[n - k + 1], fibs[k])
        if r:  # cannot happen: Fibonomials are integers
            raise ArithmeticError(f"Fibonomial ({n},{k}) is not an integer")
        row.append(c)
    return (*row, *reversed(row[:n - n // 2]))


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
    truth-testing: ZPhi and int, or int and Fraction (a ZPhi takes no Fraction
    operand); explicit zeros are dropped.
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

    def __eq__(self, other: object) -> bool:
        return self._coeffs == other._coeffs if isinstance(other, BivarPoly) else NotImplemented

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
    are plain integers (vanishing phi-component).  Each (n, form) is built once
    per process and kept (at most 62 immutable polynomials, behind the argument
    gate); `_golden_binomial.cache_clear()` resets them for a cold timing.
    """
    _integer("degree", n, 0, MAX_BINOMIAL_DEGREE)
    if form not in ("product", "expansion"):
        raise DomainError(f"unknown binomial form {form!r}")
    return _golden_binomial(n, form)


@lru_cache(maxsize=None)  # bounded by the gate: 31 degrees in two forms
def _golden_binomial(n: int, form: BinomialForm) -> BivarPoly:
    if form == "expansion":
        return BivarPoly({(n - k, k): ZPhi(_half_triangle_sign(k) * c, 0)
                          for k, c in enumerate(_fibonomial_row(n))})
    coeffs = [ZPhi(1, 0)]  # of x^(j-k) y^k after j factors
    for j in range(n):
        c = phi_power_exact(n - 1 - 2 * j)
        if j % 2:
            c = -c
        coeffs.append(c * coeffs[-1])
        for k in range(j, 0, -1):
            coeffs[k] = coeffs[k] + c * coeffs[k - 1]
    return BivarPoly({(n - k, k): c for k, c in enumerate(coeffs)})


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
    """Dense univariate polynomial: at least one coefficient, ascending in degree, each an int or a Fraction.

    `coeffs` is stored as a tuple of the values given; anything else is a DomainError.
    `shift` records the parameter a of polynomials born as (x - a)_F^n / F_n!: None, or a rational as a Fraction.
    """

    coeffs: tuple
    shift: Fraction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _coefficients("coefficient", self.coeffs))
        if self.shift is not None:
            object.__setattr__(self, "shift", _rational("shift", self.shift))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
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
    equal [n k]_F * (-1/phi)^{k(k-1)/2}.  Each n is expanded once per process and
    kept (at most 13 frozen words, behind the argument gate);
    `_noncomm_expand.cache_clear()` resets them for a cold timing.
    """
    return _noncomm_expand(_integer("degree", n, 0, MAX_NONCOMM_DEGREE))


@lru_cache(maxsize=None)  # bounded by the gate: 13 degrees
def _noncomm_expand(n: int) -> NoncommWord:
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

def jackson_exp(q, x, n_terms: int = 60, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """Jackson q-exponential: sum_{k=0}^{n_terms} x^k / [k]_q!.

    [k]_q = (q^k - 1)/(q - 1) comes from its recurrence [k]_q = 1 + q [k-1]_q, [0]_q = 0, so q = 1 gives
    [k]_q = k exactly and the classical exponential.  `core._ratio_series` sums the terms with M_k =
    x conj([k]_q) and d_k = |[k]_q|^2; [k]_q is an int pair scaled by 2^bs, bs = the working precision + 8
    bits, from q and x split by `core._dyadic` (keep = 2 bs), truncated by under two units a step and
    rescaled past 2^(2 bs) units.  A [k]_q below 2^-prec is zero at that precision, a DomainError.  Term k
    is proven once |[k+1]_q| >= 2|x| and [j]_q cannot shrink (q real >= 1, or (|q| - 1) |[k+1]_q| >= 1,
    as |[j+1]_q| >= |q| |[j]_q| - 1), so no later [j]_q vanishes.  The error bound is on the complex sum.

    Two known digit losses, with no retry at more working digits yet: near q = -1 the recurrence
    cancels (q = -1 - 1e-30, x = 0.5 is off by ~1.2e-16 relative at 34 digits with 200 terms), and at
    q = 1 + 1e-30, x = -37.5 the alternating terms (up to ~1e15, sum ~5e-17) leave a relative error
    of ~7e-20 at 34 digits and ~0.2 at 16.
    """
    _integer("term count", n_terms, 1, MAX_SERIES_TERMS)
    with _at_precision(precision) as mp:
        bw = mp.prec + 8
        (qa, qb, qs), (xa, xb, xs) = _dyadic(_finite(q, "base"), 2 * bw), _dyadic(_finite(x, "argument"), 2 * bw)
        # floor((|q| - 1) 2^bw), or 2^bw for a real q >= 1 and for |q| >= 2^(2 bw) (qs < 0), squared if positive
        one = 1 << bw
        grow = one if qs < 0 or qb == 0 and qa >= 1 << qs else (isqrt(qa * qa + qb * qb << 2 * bw) >> qs) - one
        grow = grow * grow if grow > 0 else 0

        def steps():
            br, bi, bs, unit, a, b, s, d, proven = one, 0, bw, one, 0, 0, 0, 1, False  # [1]_q at scale 2^bs
            for k in range(n_terms + 1):  # step 0 reads no M or d
                if k and d < 1 << 16:  # |[k]_q| < 2^-prec; a rescaled [k]_q is far above 1
                    raise DomainError(f"basic factorial [{k}]_q! vanishes for q = {q}")
                norm = br * br + bi * bi  # the next step, x / [k+1]_q = x conj([k+1]_q) / |[k+1]_q|^2
                na, nb, ns = xa * br + xb * bi, xb * br - xa * bi, xs - bs
                proven = (proven or k == n_terms
                          or (grow * norm).bit_length() > 2 * (bw + bs) and _halving(na, nb, ns, norm))
                yield a, b, s, d, proven, 1
                a, b, s, d = na, nb, ns, norm
                pr, pi = qa * br - qb * bi, qa * bi + qb * br  # [k+2]_q = 1 + q [k+1]_q
                r = qs
                if qs < 0 or norm >> 4 * bw:  # keep [k+2]_q within about 2 bw bits
                    r = max(qs, 0, pr.bit_length() - 2 * bw, pi.bit_length() - 2 * bw)
                    bs -= r - qs
                    unit = 1 << bs if bs >= 0 else 0
                br, bi = (pr >> r) + unit, pi >> r

        return mp.make_mpc(_ratio_series(steps(), bw, 1 << mp.prec, mp.prec)[0])


def remarkable_limit_lhs(y, n: int, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """(1 + y/phi^n)_F^n by its finite Fibonomial expansion sum_k s_k [n k]_F u^k, u = y/phi^n.

    As n grows this approaches the Jackson exponential e_{-phi^2}(y/sqrt(5)).  `core._ratio_series` sums it
    with M_k = (-1)^(k-1) u F_(n-k+1), u split by `core._dyadic` (keep = 2 wp), and d_k = F_k; the ratios
    never grow, so term k is proven once the next is at most 1/2.  The error bound is on the complex sum.
    """
    _integer("degree", n, 1, MAX_SERIES_TERMS)
    with _at_precision(precision) as mp:
        fibs, wp = fib_range(0, n + 1), mp.prec + 8
        ua, ub, us = _dyadic(_finite(y, "argument") / mp.power(mp.phi, n), 2 * wp)
        first = next(k for k in range(n + 1) if _halving(ua * fibs[n - k], ub * fibs[n - k], us, fibs[k + 1]))
        steps = ((ua * f, ub * f, us, g, k >= first, 1)  # f = (-1)^(k-1) F_(n+1-k)
                 for k, f, g in zip(count(), map(mul, reversed(fibs), cycle((-1, 1))), fibs))
        return mp.make_mpc(_ratio_series(steps, wp, 1 << mp.prec, mp.prec)[0])


def remarkable_limit(y, n: int, precision: int = DEFAULT_DPS) -> tuple[mpmath.mpc, mpmath.mpc, mpmath.mpf]:
    """(1 + y/phi^n)_F^n, the n-term e_{-phi^2}(y/sqrt(5)) and their distance.

    All three keep the guard digits, so the distance is not the rounding of either value.
    """
    with _at_precision(precision) as mp:
        finite = remarkable_limit_lhs(y, n, precision)
        jackson = jackson_exp(-(mp.phi ** 2), _finite(y, "argument") / mp.sqrt(5), n, precision)
        return finite, jackson, abs(finite - jackson)
