"""Reference values computed without calling goldencalc.

Every check in the benchmark compares a library result with a value built
here from first principles: Fibonacci numbers by addition or by 2x2 matrix
powers modulo a prime, Fibonomials by the multiplicative step, series by
direct re-summation at precision + 30 digits, and F_z by Binet's formula.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from mpmath import mp

EXTRA_DPS = 30
# Two primes below 2**61, used to check huge F_n without recomputing them.
PRIMES = (2305843009213693951, 2305843009213693921)
LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
LOG2_SQRT5 = math.log2(math.sqrt(5))


def fib_list(n: int) -> list[int]:
    """[F_0, ..., F_n] by repeated addition."""
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return out[: n + 1]


def fib(n: int) -> int:
    """F_n for a signed index, by addition; F_{-n} = (-1)^(n+1) F_n."""
    a, b = 0, 1
    for _ in range(abs(n)):
        a, b = b, a + b
    return -a if n < 0 and n % 2 == 0 else a


def fib_mod(n: int, p: int) -> int:
    """F_n mod p for n >= 0 from [[1,1],[1,0]]^n by square-and-multiply."""
    r00, r01, r11 = 1, 0, 1  # identity; the matrices stay symmetric
    m00, m01, m11 = 1, 1, 0
    while n:
        if n & 1:
            r00, r01, r11 = ((r00 * m00 + r01 * m01) % p, (r00 * m01 + r01 * m11) % p,
                             (r01 * m01 + r11 * m11) % p)
        m00, m01, m11 = ((m00 * m00 + m01 * m01) % p, (m00 * m01 + m01 * m11) % p,
                         (m01 * m01 + m11 * m11) % p)
        n >>= 1
    return r01


def fib_bits_plausible(n: int, bits: int) -> bool:
    """F_n ~ phi^n / sqrt(5), so its bit length is known to within one bit."""
    expect = n * LOG2_PHI - LOG2_SQRT5
    return abs(bits - expect) <= 1.5


def fibonomial_row(n: int) -> list[int]:
    """[n 0]_F .. [n n]_F by [n k] = [n k-1] F_{n-k+1} / F_k, exact division."""
    fibs = fib_list(n + 1)
    row = [1]
    for k in range(1, n + 1):
        q, r = divmod(row[-1] * fibs[n - k + 1], fibs[k])
        if r:
            raise ArithmeticError(f"reference Fibonomial ({n},{k}) is not an integer")
        row.append(q)
    return row


def pascal_holds(n: int, row_n: list[int], row_prev: list[int], k: int) -> bool:
    """Fibonacci Pascal rule [n k] = F_{k+1}[n-1 k] + F_{n-k-1}[n-1 k-1], 0 < k < n."""
    return row_n[k] == fib(k + 1) * row_prev[k] + fib(n - k - 1) * row_prev[k - 1]


def half_triangle_sign(k: int) -> int:
    """(-1)^(k(k-1)/2)."""
    return -1 if (k * (k - 1) // 2) % 2 else 1


def phi_conj_power(e: int) -> tuple[int, int]:
    """(1 - phi)^e = F_{e+1} - F_e phi as the pair (F_{e+1}, -F_e), e >= 0."""
    return fib(e + 1), -fib(e)


# ---------------------------------------------------------------------------
# Analytic references at precision + EXTRA_DPS
# ---------------------------------------------------------------------------

def mpf_of(x):
    """Exact mpf/mpc of a float, complex, int or Fraction at the current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, complex):
        return mp.mpc(x)
    return mp.mpf(x)


def series_sum(coefficient, x, dps: int):
    """sum_n coefficient(n) x^n / F_n!, summed until three terms in a row are negligible."""
    with mp.workdps(dps + EXTRA_DPS):
        xv = mpf_of(x)
        eps = mp.mpf(10) ** (-(dps + EXTRA_DPS + 5))
        total = mp.mpf(0)
        power = mp.mpf(1)
        fact = 1
        a, b = 0, 1
        quiet = 0
        for n in range(4000):
            if n:
                power *= xv
                a, b = b, a + b
                fact *= a
            term = coefficient(n) * power / fact
            total += term
            quiet = quiet + 1 if n > 2 and abs(term) <= eps * max(abs(total), 1) else 0
            if quiet == 3:
                return total
        raise ArithmeticError("reference series did not converge in 4000 terms")


def exp_coefficient(kind: str, k: int = 1):
    """Coefficient rule of e_F^{kx} (small_e) or E_F^{kx} (big_E)."""
    if kind == "small_e":
        return lambda n: k ** n
    return lambda n: half_triangle_sign(n) * k ** n


def trig_coefficient(kind: str):
    """cos_F/Cosh_F keep the even terms of E_F, sin_F/Sinh_F the odd ones."""
    parity = 0 if kind in ("cos_F", "Cosh_F") else 1
    return lambda n: half_triangle_sign(n) if n % 2 == parity else 0


def binet(z, dps: int):
    """F_z = (phi^z - exp(i pi z) phi^-z) / sqrt(5) on the principal branch."""
    with mp.workdps(dps + EXTRA_DPS):
        zv = mp.mpc(mpf_of(z))
        log_phi = mp.log((1 + mp.sqrt(5)) / 2)
        return (mp.exp(zv * log_phi) - mp.exp(1j * mp.pi * zv - zv * log_phi)) / mp.sqrt(5)


def antiderivative(coeffs: list[int], x: float, dps: int):
    """Closed form of the geometric-grid series (1-Q) x sum_j Q^j g(x Q^j / phi).

    For g = sum_k a_k x^k the inner sum is sum_k a_k (x/phi)^k / (1 - Q^(k+1)),
    with Q = -1/phi^2.
    """
    with mp.workdps(dps + EXTRA_DPS):
        phi = (1 + mp.sqrt(5)) / 2
        q = -1 / phi ** 2
        xv = mp.mpf(x)
        inner = mp.fsum(a * (xv / phi) ** k / (1 - q ** (k + 1)) for k, a in enumerate(coeffs))
        return (1 - q) * xv * inner


def jackson_partial_sum(q, x: float, n_terms: int, dps: int):
    """sum_{k=0}^{n_terms} x^k / [k]_q! with [k]_q = 1 + q + ... + q^(k-1)."""
    with mp.workdps(dps + EXTRA_DPS):
        qv = mp.mpf(q)
        xv = mp.mpf(x)
        total = mp.mpf(1)
        fact = mp.mpf(1)
        basic = mp.mpf(0)
        q_pow = mp.mpf(1)
        for k in range(1, n_terms + 1):
            basic += q_pow
            q_pow *= qv
            fact *= basic
            total += xv ** k / fact
        return total


def limit_sum(y: float, n: int, dps: int):
    """(1 + y/phi^n)_F^n = sum_k (-1)^(k(k-1)/2) [n k]_F (y/phi^n)^k."""
    row = fibonomial_row(n)
    with mp.workdps(dps + EXTRA_DPS):
        scale = mp.mpf(y) / ((1 + mp.sqrt(5)) / 2) ** n
        return mp.fsum(half_triangle_sign(k) * c * scale ** k for k, c in enumerate(row))


def golden_base(dps: int):
    """-phi^2 rounded to dps digits, the Jackson base the paper's limit reaches."""
    with mp.workdps(dps):
        return -((3 + mp.sqrt(5)) / 2)


def digits_error(got, ref, dps: int):
    """|got - ref| / max(|ref|, 1), evaluated at the reference precision."""
    with mp.workdps(dps + EXTRA_DPS):
        return abs(mp.mpc(got) - ref) / max(abs(ref), 1)


def meets_digits(err, dps: int) -> bool:
    return err <= mp.mpf(10) ** (-dps)


# ---------------------------------------------------------------------------
# Float-matrix references for the operator layers
# ---------------------------------------------------------------------------

def analytic_fib(m: Fraction) -> complex:
    """F_m as a complex double: exact for integer m, Binet otherwise."""
    if m.denominator == 1:
        return float(fib(int(m)))
    return complex(binet(m, 20))


def principal_minus_one_power(e: Fraction) -> complex:
    """(-1)^e = exp(i pi e); exact quarter-turns when 2e is an integer."""
    if (2 * e).denominator == 1:
        return (1, 1j, -1, -1j)[int(2 * e) % 4]
    return cmath.exp(1j * math.pi * float(e))


def spin_scale(j: Fraction) -> float:
    """Largest matrix-entry magnitude at spin j: F_a F_b <= F_{a+b} <= F_{2j+1}."""
    return float(max(1, fib(int(2 * j) + 1)))


def symmetric_number(n: int) -> complex:
    """[n] for bases (i phi, i/phi): i^(n-1) (phi^n - phi^-n) = i^(n-1) (sqrt5 F_n or L_n)."""
    real = fib(n) * math.sqrt(5) if n % 2 == 0 else fib(n - 1) + fib(n + 1)
    return (1, 1j, -1, -1j)[(n - 1) % 4] * real
