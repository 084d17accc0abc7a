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
from math import inf
from operator import mul
from typing import TYPE_CHECKING, Iterator, Literal

from .core import (
    DEFAULT_DPS,
    DomainError,
    QPhi,
    ZPhi,
    _at_precision,
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
    return tuple(_fibonomial_steps(fib_range(0, n)))


def _fibonomial_steps(fibs: list[int]) -> Iterator[int]:
    """[n 0]_F, [n 1]_F, ..., [n n]_F from fibs = [F_0, ..., F_n], one exact division a step."""
    n, c = len(fibs) - 1, 1
    yield c
    for k in range(1, n + 1):
        c, r = divmod(c * fibs[n - k + 1], fibs[k])
        if r:  # cannot happen: Fibonomials are integers
            raise ArithmeticError(f"Fibonomial ({n},{k}) is not an integer")
        yield c


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


def jackson_exp(q, x, n_terms: int = 60, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """Jackson q-exponential: sum_{k=0}^{n_terms} x^k / [k]_q!.

    [k]_q = (q^k - 1)/(q - 1) = 1 + q + ... + q^{k-1} comes from its
    recurrence [k]_q = 1 + q [k-1]_q, [0]_q = 0, so q = 1 gives [k]_q = k
    exactly and the classical exponential.  Each term is the last one times
    x / [k]_q, and a real q and x are summed in real arithmetic.  The sum stops
    early at a proven tail: once |[k]_q| >= 2|x| and [j]_q cannot shrink (q real
    >= 1, or (|q| - 1) |[k]_q| >= 1, as |[j+1]_q| >= |q| |[j]_q| - 1), each later
    ratio |x / [j]_q| is at most 1/2, so the terms after k sum to at most
    |term_k|, and the first such k with |term_k| <= eps max(|sum|, 1) ends it.
    Both need q real >= 1 or |q| > 1, where no [j]_q vanishes, so the stop never
    skips the DomainError for a vanishing basic factorial.

    Two known digit losses, with no retry at more working digits yet: near q = -1 the recurrence
    cancels (q = -1 - 1e-30 is off by up to ~8e-15 relative at 34 digits), and at q = 1 + 1e-30,
    x = -37.5 the alternating terms (up to ~1e15, sum ~5e-17) leave an error of ~2e-30 at 34 digits.
    """
    _integer("term count", n_terms, 1, MAX_SERIES_TERMS)
    with _at_precision(precision) as mp:
        qv, xv = _finite(q, "base"), _finite(x, "argument")
        total, term, basic = mp.one, mp.one, mp.zero
        x2, monotone, tol = 2 * abs(xv), mp.im(qv) == 0 and mp.re(qv) >= 1, None
        for k in range(1, n_terms + 1):
            basic = 1 + qv * basic
            if basic == 0:
                raise DomainError(f"basic factorial [{k}]_q! vanishes for q = {q}")
            term = term * xv / basic
            total += term
            if tol is None and abs(basic) >= x2 and (monotone or (abs(qv) - 1) * abs(basic) >= 1):
                tol = mp.eps * max(abs(total) - abs(term), 1)  # |sum| stays above |total| - |term|
            if tol is not None and abs(term) <= tol:
                break
        return mp.mpc(total)


def remarkable_limit_lhs(y, n: int, precision: int = DEFAULT_DPS) -> mpmath.mpc:
    """(1 + y/phi^n)_F^n by its finite Fibonomial expansion sum_k s_k [n k]_F u^k, u = y/phi^n.

    As n grows this approaches the Jackson exponential e_{-phi^2}(y/sqrt(5)).
    The sum runs forward over the row, built a step at a time, and stops early at a
    proven tail: the ratio |t_(k+1) / t_k| = F_(n-k) |u| / F_(k+1) never increases with
    k (F_(n-k) falls as F_(k+1) grows), so once it is at most 1/2 the terms after t_k sum
    to at most |t_k|. As in jackson_exp, the first such k fixes the tolerance
    eps max(|total| - |t_k|, 1), at most eps max(|sum|, 1), and the first term from
    there on that is within it ends the sum.
    """
    _integer("degree", n, 1, MAX_SERIES_TERMS)
    with _at_precision(precision) as mp:
        u = _finite(y, "argument") / mp.power(mp.phi, n)
        fibs = fib_range(0, n)
        # From the ints 0 and 1, a real argument stays in mpf arithmetic.
        total, power, u2, tol = 0, 1, 2 * abs(u), None
        for k, c in enumerate(_fibonomial_steps(fibs)):
            term = _half_triangle_sign(k) * c * power
            total += term
            if tol is None and k < n and u2 * fibs[n - k] <= fibs[k + 1]:
                tol = mp.eps * max(abs(total) - abs(term), 1)  # |sum| stays above |total| - |term|
            if tol is not None and abs(term) <= tol:
                break
            power *= u
        return mp.mpc(total)


def remarkable_limit(y, n: int, precision: int = DEFAULT_DPS) -> tuple[mpmath.mpc, mpmath.mpc, mpmath.mpf]:
    """(1 + y/phi^n)_F^n, the n-term e_{-phi^2}(y/sqrt(5)) and their distance.

    All three keep the guard digits, so the distance is not the rounding of either value.
    """
    with _at_precision(precision) as mp:
        finite = remarkable_limit_lhs(y, n, precision)
        jackson = jackson_exp(-(mp.phi ** 2), _finite(y, "argument") / mp.sqrt(5), n, precision)
        return finite, jackson, abs(finite - jackson)
