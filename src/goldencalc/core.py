"""Exact and analytic Binet-Fibonacci arithmetic.

The Fibonacci numbers are the two-base quantum numbers with bases equal to
the roots of x**2 - x - 1:

    F_n = (phi**n - phi'**n) / (phi - phi'),   phi = (1+sqrt(5))/2,  phi' = -1/phi.

This module provides the exact integer side (Fibonacci numbers from a shared table of F_-1003 .. F_1003
and, beyond it, by doubling the pair (F_k, F_(k-1)) with two squarings a bit and one final multiply, and the
ring Z[phi], whose elements a + b*phi with int a and b are the library's one exact quadratic number) and the
analytic side: the complex extension F_z on mpmath's raw values, (-1)**z read as
exp(i*pi*z) on the principal branch; the fixed-point loop that sums every power series of the library from
its term ratios; and the golden-ratio convergents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from sys import maxsize
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

DEFAULT_DPS = 34
MIN_DPS = 16
GUARD_DPS = 10
MAX_FIB_INDEX = 10**6
MAX_RATIO_INDEX = 10**3
MAX_EXTENDED_ARG = 10**3  # an int: an mpf compares with it ~2.5x faster than with the float 1e3


class DomainError(ValueError):
    """An argument violates a documented precondition."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


class _at_precision:
    """`with _at_precision(p) as mp:` binds mpmath's context at p + `guard` digits, p an int >= MIN_DPS.

    Every analytic entry point enters its precision here, so that the bound and the guard
    digits are set in one place. mpmath loads here, after the checks: exact calls never load it.
    """

    def __init__(self, precision: int, guard: int = GUARD_DPS) -> None:
        _require(isinstance(precision, int) and not isinstance(precision, bool),
                 f"precision must be an integer number of digits, not {precision!r}")
        _require(precision >= MIN_DPS, f"precision must be at least {MIN_DPS} digits")
        import mpmath
        self.mp, self.dps = mpmath.mp, precision + guard

    def __enter__(self):  # as mpmath's workdps: set the digits, restore the bits at exit
        self.prec, self.mp.dps = self.mp.prec, self.dps
        return self.mp

    def __exit__(self, *exc) -> None:
        self.mp.prec = self.prec


def _integer(name: str, value: int, lo: int | float, hi: int | float) -> int:
    """`value`, an int but not a bool, in lo..hi: the gate of every index, size and count."""
    if type(value) is int and lo <= value <= hi:  # the valid case in one comparison
        return value
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, not {value!r}")
    _require(value >= lo, f"{name} must be at least {lo}")
    _require(value <= hi, f"{name} must not exceed {hi}")
    return value


def _rational(name: str, value) -> Fraction:
    """`value` as a Fraction (a float read as its str), refusing bools, NaN and infinities."""
    try:
        if not isinstance(value, bool):
            return Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        pass
    raise DomainError(f"{name} must be a finite rational, not {value!r}")


def _finite(value, what: str):
    """`value` as an mpmath number at the current precision; NaN and infinities are refused."""
    import mpmath
    v = mpmath.mpmathify(value)
    _require(mpmath.isfinite(v), f"{what} must be finite")
    return v


def _parts(z) -> tuple[tuple, tuple]:
    """mpmath's raw (re, im) values of an mpf or mpc z, im zero for an mpf."""
    return z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, (0, 0, 0, 0))


def _raw(man: int, exp: int = 0, prec: int = 0) -> tuple:
    """libmp's from_man_exp(man, exp, prec, "n"), exact at prec 0, counting bits by int.bit_length."""
    import mpmath.libmp as lib
    return lib.normalize(int(man < 0), abs(man), exp, man.bit_length(), prec or man.bit_length(), "n")


def _dyadic(z, keep: int | None = None) -> tuple[int, int, int]:
    """(a, b, s) with the finite mpf or mpc z = (a + ib) / 2^s exactly, s >= 0: no rounding.

    Given keep, a |z| of 2^keep or more keeps its exponent in s < 0 instead of in a and b,
    and a part more than keep bits below the other's leading bit is floored to units of
    2^-keep of it, under 2^(1 - keep) relative to |z|: a and b stay within keep + 1 bits.
    """
    (sa, a, ea, _), (sb, b, eb, _) = _parts(z)
    a, b, s = -a if sa else a, -b if sb else b, max(-ea, -eb, 0)
    if keep is not None:  # ta, tb: the parts' leading bits, of which only a nonzero part's counts
        ta, tb = ea + a.bit_length(), eb + b.bit_length()
        s = min(s, keep - (max(ta, tb) if a and b else ta if a else tb))
    return (a << ea + s if ea + s >= 0 else a >> -ea - s), (b << eb + s if eb + s >= 0 else b >> -eb - s), s


def _halving(a: int, b: int, s: int, d: int) -> bool:
    """|a + ib| / (2^s d) <= 1/2, exactly, shifting only towards smaller ints whatever the sign of s."""
    m, dd = a * a + b * b << 2, d * d
    return (-(-m >> 2 * s) <= dd) if s >= 0 else m <= dd >> -2 * s


def _ratio_series(steps, wp: int, den: int, floor: tuple = (0, 1, 0, 1), cap: int = maxsize):
    """sum_k w_k t_k, t_0 = 1 and t_k = t_(k-1) M_k / d_k, in fixed point: the one loop of every series.

    `steps` yields (a, b, s, d, proven, w) for k = 0, 1, ...: M_k = (a + ib) / 2^s, s of either sign, and the
    int d_k > 0 (neither read at k = 0), the weight w_k in {-1, 0, 1}, and `proven` once every ratio after
    step k is at most 1/2 in modulus, so the terms from t_k on sum to at most 2|t_k|.  The terms and the sum
    are int pairs scaled by 2^wp; t_k = floor(floor(t_(k-1) M_k / 2^s) / d_k) is off by under 3 units plus
    |M_k / d_k| times the error of t_(k-1).  Up to the first proven step, a step that would take a term past
    2^(wp0 + 4096) units, wp0 the starting wp, first lowers wp by the excess, so the ints stay bounded.  The
    first proven step fixes the tolerance max(|sum| - 2|t|, |floor| 2^wp) / den, `floor` an mpf's raw value,
    and the first term within it ends the sum unsummed.  Past index `cap` terms are skipped until one is proven.
    Returns (re, im, wp, n, mags, tail): the sum at scale 2^wp; the n terms read; mags ~ sum |t_k|, as |re| + |im|
    up to the first proven t_m and twice that of t_m; and the int tail in units of 2^-wp, None if the steps
    ran out unproven: 2|t_n|, the skipped terms and 3n (1 + |t| / 2^(wp0 - 1)) units of error in each, which
    bounds the unsummed moduli while |M_k / d_k| never grows with k, as no term before t_n is then below
    min(1, |t_n|).
    """
    re, im, sre, sim, mags, skipped, top, tol = 1 << wp, 0, 0, 0, 0, 0, wp + 4096, None
    for n, (a, b, s, d, proven, w) in enumerate(steps):
        if n:
            pr, pi = re * a - im * b, re * b + im * a
            if tol is None and (e := max(pr.bit_length(), pi.bit_length()) - s - d.bit_length() - top) > 0:
                s, wp, sre, sim = s + e, wp - e, sre >> e, sim >> e
                mags, skipped = (mags >> e) + 1, (skipped >> e) + 1
            re, im = ((pr >> s) // d, (pi >> s) // d) if s >= 0 else ((pr << -s) // d, (pi << -s) // d)
        if proven:
            if n > cap:
                break
            if tol is None:  # from here on the terms only shrink
                _, m, e, _ = floor
                mags += 2 * (abs(re) + abs(im))
                rest = isqrt(sre * sre + sim * sim) - 2 * isqrt(re * re + im * im)
                tol = (max(rest, min(m << e + wp if e + wp >= 0 else m >> -e - wp, den << top)) // den) ** 2
            if re * re + im * im <= tol:
                break
        elif n > cap:
            skipped += abs(re) + abs(im)
            continue
        else:
            mags += abs(re) + abs(im)
        sre, sim = sre + w * re, sim + w * im
    else:
        return sre, sim, wp, n + 1, mags, None
    bound = skipped + (2 * isqrt(re * re + im * im) + 2 if a or b or not n else 0)  # M_n = 0: the rest is 0
    return sre, sim, wp, n, mags, bound + 3 * n * (n + 2) * (1 + (bound >> top - 4097)) if bound else 0


# ---------------------------------------------------------------------------
# Exact integer Fibonacci values
# ---------------------------------------------------------------------------

def _fib_lucas(n: int) -> tuple[int, int]:
    """(F_n, L_n) for any signed n by doubling the pair (F_k, F_(k-1)), two squarings a bit.

    Walks the bits of |n| from the top by F_(2k+1) = 4F_k**2 - F_(k-1)**2 + 2(-1)**k, F_(2k-1) = F_k**2 + F_(k-1)**2
    and F_2k, their difference; a set bit keeps (F_(2k+1), F_2k), a clear one (F_2k, F_(2k-1)); L_n = F_n + 2F_(n-1).
    Negative indices use F_(-n) = (-1)**(n+1) F_n and L_(-n) = (-1)**n L_n.
    """
    m = abs(n)
    f, g, k_odd = 0, 1, False  # (F_0, F_-1)
    for bit in bin(m)[2:]:
        f2, g2 = f * f, g * g
        up, down = (f2 << 2) - g2 + (-2 if k_odd else 2), f2 + g2  # F_(2k+1), F_(2k-1)
        f, g, k_odd = (up, up - down, True) if bit == "1" else (up - down, down, False)
    lucas = f + (g << 1)
    if n < 0:
        return (f, -lucas) if m & 1 else (-f, lucas)
    return f, lucas


def _fib_walk(lo: int, hi: int) -> list[int]:
    """[F_lo, ..., F_hi] by the linear recurrence, started from one (F_lo, L_lo) walk."""
    a, lucas = _fib_lucas(lo)
    b = (a + lucas) >> 1  # F_(lo+1)
    out = [a]
    for _ in range(lo, hi):
        a, b = b, a + b
        out.append(a)
    return out


# F_-T .. F_T (~0.16 MB, shared, immutable) serves fib_range's slices and the small single indices of
# fib_exact and phi_power_exact. T covers the largest index a library range reads: spectrum's
# F_(MAX_SPECTRUM_INDEX+2) = F_1002.
_FIB_TABLE_INDEX = MAX_RATIO_INDEX + 3
_FIB_TABLE = tuple(_fib_walk(-_FIB_TABLE_INDEX, _FIB_TABLE_INDEX))


def fib_exact(n: int) -> int:
    """Exact F_n for any signed index: read from the shared table when |n| <= T, else by doubling.

    The squaring walk (_fib_lucas) stops at k = |n| // 2 with (F_k, L_k), and one multiply finishes it:
    F_2k = F_k L_k and F_(2k+1) = F_(k+1) L_k - (-1)**k.
    Negative indices use F_(-n) = (-1)**(n+1) * F_n.
    """
    _integer("n", n, -MAX_FIB_INDEX, MAX_FIB_INDEX)
    if -_FIB_TABLE_INDEX <= n <= _FIB_TABLE_INDEX:
        return _FIB_TABLE[n + _FIB_TABLE_INDEX]
    k = abs(n) >> 1
    f, lucas = _fib_lucas(k)
    if n & 1:
        return ((f + lucas) >> 1) * lucas + (1 if k & 1 else -1)
    return -f * lucas if n < 0 else f * lucas


def fib_range(lo: int, hi: int) -> list[int]:
    """[F_lo, ..., F_hi] as a fresh list, sliced from the shared table F_-T .. F_T when it holds them."""
    _integer("lo", lo, -MAX_FIB_INDEX, MAX_FIB_INDEX)
    _integer("hi", hi, lo, MAX_FIB_INDEX)
    if -_FIB_TABLE_INDEX <= lo and hi <= _FIB_TABLE_INDEX:
        return list(_FIB_TABLE[lo + _FIB_TABLE_INDEX:hi + _FIB_TABLE_INDEX + 1])
    return _fib_walk(lo, hi)


# ---------------------------------------------------------------------------
# The ring Z[phi]
# ---------------------------------------------------------------------------

_new = object.__new__  # looked up once: _ring skips __init__'s check


def _ring(a: int, b: int) -> ZPhi:
    """a + b*phi in the ring Z[phi]."""
    z = _new(ZPhi)
    z._a = a
    z._b = b
    return z


class ZPhi:
    """Element a + b*phi of the quadratic integer ring Z[phi], with int coordinates.

    Products reduce through phi**2 = phi + 1:

        (a1 + b1*phi)(a2 + b2*phi) = (a1*a2 + b1*b2) + (a1*b2 + a2*b1 + b1*b2)*phi.

    Sums and products with a ZPhi or an int, and differences of two ZPhi, are ZPhi; an element
    with b = 0 compares equal to the int a.  phi is a unit here (phi**-1 = phi - 1), so all
    integer powers of phi are exact ring elements, phi**n = F_{n-1} + F_n * phi (phi_power_exact).
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: int, b: int) -> None:
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError("ZPhi coefficients must be integers")
        self._a = a
        self._b = b

    @classmethod
    def phi(cls) -> ZPhi:
        return cls(0, 1)

    @classmethod
    def phi_conjugate(cls) -> ZPhi:
        """The second root phi' = 1 - phi = -1/phi."""
        return cls(1, -1)

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    def __str__(self) -> str:
        return f"{self._a}{self._b:+}φ"

    def __repr__(self) -> str:
        return f"ZPhi({self._a}, {self._b})"

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZPhi):
            return self._a == other._a and self._b == other._b
        if isinstance(other, int):
            return self._a == other and self._b == 0
        return NotImplemented

    def __neg__(self) -> ZPhi:
        return _ring(-self._a, -self._b)

    def __add__(self, other: int | ZPhi) -> ZPhi:
        if isinstance(other, ZPhi):
            return _ring(self._a + other._a, self._b + other._b)
        if isinstance(other, int):
            return _ring(self._a + other, self._b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: ZPhi) -> ZPhi:
        if isinstance(other, ZPhi):
            return _ring(self._a - other._a, self._b - other._b)
        return NotImplemented

    def __mul__(self, other: int | ZPhi) -> ZPhi:
        if isinstance(other, ZPhi):
            a1, b1, a2, b2 = self._a, self._b, other._a, other._b
            bb = b1 * b2
            return _ring(a1 * a2 + bb, a1 * b2 + a2 * b1 + bb)
        if isinstance(other, int):
            return _ring(self._a * other, self._b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> ZPhi:
        """self**n for an int n >= 0 by repeated squaring; phi_power_exact(n) gives phi**n at any n."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result, base = _ring(1, 0), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @property
    def norm(self) -> int:
        """Field norm a**2 + a*b - b**2 (multiplicative)."""
        return self._a * self._a + self._a * self._b - self._b * self._b

    def __float__(self) -> float:
        """The double nearest to a + b*phi = (2a + b + b*sqrt(5)) / 2."""
        a, b = self._a, self._b
        if not b:
            return float(a)
        # For b != 0 the value is irrational, so no double lies exactly halfway:
        # an isqrt bracket of b*sqrt(5)*2**s closes on one double as s grows.
        p, s = 2 * a + b, 64
        while True:
            r = isqrt(5 * b * b << 2 * s)  # floor(|b| sqrt(5) 2**s)
            lo = (p << s) + (r if b > 0 else -r - 1)
            scaled = 2 << s
            x = lo / scaled
            if x == (lo + 1) / scaled:
                return x
            s *= 2


def phi_power_exact(n: int) -> ZPhi:
    """phi**n as the exact ring element F_{n-1} + F_n * phi, any signed n: table reads, else one Lucas walk."""
    _integer("n", n, -MAX_FIB_INDEX, MAX_FIB_INDEX)
    if -_FIB_TABLE_INDEX < n <= _FIB_TABLE_INDEX:
        return _ring(_FIB_TABLE[n - 1 + _FIB_TABLE_INDEX], _FIB_TABLE[n + _FIB_TABLE_INDEX])
    f, lucas = _fib_lucas(n)
    return _ring((lucas - f) >> 1, f)  # F_(n-1) = (L_n - F_n)/2


# ---------------------------------------------------------------------------
# High-precision constants and the analytic extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenValue:
    """The analytic Fibonacci value F_z at a complex argument."""

    value: mpmath.mpc


@lru_cache(maxsize=4)  # keyed by the working precision in bits
def _binet_constants(wp: int) -> tuple[tuple, tuple, tuple]:
    """mpmath's raw values of ln phi, pi/2 and 2/sqrt(5), each rounded to `wp` bits."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_phi, mpf_pi, mpf_shift, mpf_sqrt
    return (mpf_log(mpf_phi(wp), wp, "n"), mpf_shift(mpf_pi(wp), -1),
            mpf_div(from_int(2), mpf_sqrt(from_int(5), wp), wp, "n"))


def fib_extended(z: complex | float | str, precision: int = DEFAULT_DPS) -> GoldenValue:
    """F_z = (phi**z - exp(i*pi*z) * phi**-z) / sqrt(5) for complex z = x + iy, on mpmath's raw values.

    phi**z is exp(z*log(phi)) on the principal branch and (-1)**z is exp(i*pi*z).  Every angle is pi x, pi x/2
    or v = y ln phi, joined by angle addition, so cos(pi x) and sin(pi x) are exact at half-integer x and F_n
    is real.  A = x ln phi + y pi/2 picks one of two rules.  Where |A| >= 1/2, Binet's two terms
    e^(x ln phi) e^(iv) and e^(-x ln phi - pi y) e^(i pi x) e^(-iv), whose sizes differ by e^(2A), are
    subtracted once in each part, so each part keeps its own digits.  Where |A| < 1/2, the sinh form
    (2/sqrt(5)) e^(-pi y/2) e^(i pi x/2) (sinh A cos B + i cosh A sin B), B = v - pi x/2, keeps F_z's relative
    digits near z = 0; near the zeros z_k = 2 pi i k / (2 ln phi - i pi), k != 0, it loses digits.
    """
    with _at_precision(precision) as mp:
        zc = _finite(mp.mpc(z), "Re z and Im z")
        import mpmath.libmp as lib  # one module lookup: a from-import of a package costs more
        (x, y), wp, bound, mul = zc._mpc_, mp.prec + 12, lib.from_int(MAX_EXTENDED_ARG), lib.mpf_mul
        _require(lib.mpf_le(lib.mpf_abs(x), bound) and lib.mpf_le(lib.mpf_abs(y), bound),
                 f"|Re z| and |Im z| must not exceed {MAX_EXTENDED_ARG:g}")
        ln_phi, half_pi, two_over_root5 = _binet_constants(wp)  # A carries 12 bits more than the value
        a = lib.mpf_add(mul(x, ln_phi), mul(y, half_pi), wp, "n")  # exact products, as every unrounded mul here
        cos_v, sin_v = lib.mpf_cos_sin(mul(y, ln_phi, wp, "n"), wp, "n")
        scale = mul(two_over_root5, lib.mpf_exp(lib.mpf_neg(mul(y, half_pi)), wp, "n"), wp, "n")
        if lib.mpf_lt(lib.mpf_abs(a), (0, 1, -1, 1)):
            cos_t, sin_t = lib.mpf_cos_sin_pi(lib.mpf_shift(x, -1), wp, "n")
            cos_b, sin_b = lib.mpc_mul((cos_v, sin_v), (cos_t, lib.mpf_neg(sin_t)), wp, "n")
            cosh_a, sinh_a = lib.mpf_cosh_sinh(a, wp, "n")
            value = lib.mpc_mul((mul(scale, cos_t), mul(scale, sin_t)), (mul(sinh_a, cos_b), mul(cosh_a, sin_b)),
                                mp.prec, "n")  # each part is rounded once
        else:  # F_z = (scale/2) (e^A e^(iv) - e^-A e^(i pi x) e^(-iv)), scale = 2 e^(-pi y/2) / sqrt(5)
            exp_a, half = lib.mpf_exp(a, wp, "n"), lib.mpf_shift(scale, -1)
            size1, size2 = mul(exp_a, half, wp, "n"), lib.mpf_div(half, exp_a, wp, "n")
            cos_x, sin_x = lib.mpf_cos_sin_pi(x, wp, "n")
            turn_re, turn_im = lib.mpc_mul((cos_x, sin_x), (cos_v, lib.mpf_neg(sin_v)), wp, "n")
            value = (lib.mpf_sub(mul(size1, cos_v), mul(size2, turn_re), mp.prec, "n"),
                     lib.mpf_sub(mul(size1, sin_v), mul(size2, turn_im), mp.prec, "n"))
        return GoldenValue(mp.make_mpc(value))


def _fib_quotients(name: str, value: int, least: int, precision: int,
                   step: int = 1, sign: int = 1) -> list[mpmath.mpf]:
    """sign F_(k+step)/F_k from one table for value - least + 2 consecutive k from 1.

    `value` is the caller's argument `name`, an int in [least, MAX_RATIO_INDEX].
    """
    count = _integer(name, value, least, MAX_RATIO_INDEX) - least + 2
    with _at_precision(precision, guard=0) as mp:
        fibs = fib_range(1, count + step)
        return [mp.fdiv(sign * fibs[i + step], fibs[i]) for i in range(count)]  # rounded once


def ratio_sequence(n_max: int, precision: int = DEFAULT_DPS) -> list[mpmath.mpf]:
    """Convergents r_n = F_{n+1}/F_n for n = 1..n_max; r_n -> phi."""
    return _fib_quotients("n_max", n_max, 2, precision)
