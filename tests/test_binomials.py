"""Fibonomials, Golden binomials/polynomials, normal ordering, Jackson limit."""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc

from goldencalc.binomials import (
    MAX_BINOMIAL_DEGREE,
    BivarPoly,
    UnivarPoly,
    _linear_factor,
    fib_factorial,
    fibonomial,
    fibonomial_row,
    golden_binomial,
    golden_binomial_roots,
    golden_polynomial,
    jackson_exp,
    noncomm_expand,
    remarkable_limit_lhs,
)
from goldencalc.core import DEFAULT_DPS, DomainError, ZPhi, fib_range, phi_power_exact


def golden_base(precision: int = DEFAULT_DPS):
    """-phi**2 to `precision` digits, the Jackson base of the large-n Golden binomial limit."""
    with mp.workdps(precision):
        return -(mp.phi ** 2)


def brute_poly_mul(p: dict, q: dict) -> dict:
    """Independent dict-convolution oracle for bivariate products."""
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, ZPhi(0, 0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


class TestFibFactorial:
    def test_direct_product_oracle(self):
        # 1*1*2*3*5 and 240*13
        assert fib_factorial(5) == 1 * 1 * 2 * 3 * 5 == 30
        assert fib_factorial(7) == 3120
        assert fib_factorial(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            fib_factorial(-1)


class TestFibonomial:
    def test_exact_division_oracle(self):
        assert fibonomial(5, 2) == 30 // (1 * 2) == 15
        assert fibonomial(6, 3) == 240 // (2 * 2) == 60

    def test_edge_conventions(self):
        assert fibonomial(9, 0) == 1
        assert fibonomial(9, 9) == 1
        assert fibonomial(5, 6) == 0
        assert fibonomial(5, -1) == 0

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_symmetry_and_integrality(self, n, k):
        left = fibonomial(n, k)
        assert left == fibonomial(n, n - k) if 0 <= k <= n else left == 0
        if 0 <= k <= n:
            assert left >= 1

    def test_guard(self):
        with pytest.raises(DomainError):
            fibonomial(301, 1)

    @pytest.mark.parametrize("call, args", [
        (fibonomial, (5, 2.0)),
        (fibonomial, (5, Fraction(3, 2))),
        (fibonomial, (301, 1)),
        (fibonomial, (-1, 0)),
        (fibonomial, ("5", 2)),
        (fibonomial, (5, 7.5)),
        (fibonomial, (5, "2")),
        (fibonomial_row, (301,)),
        (fibonomial_row, (2.0,)),
    ])
    def test_refusals(self, call, args):
        with pytest.raises(DomainError):
            call(*args)

    @pytest.mark.parametrize("k", [-7, -1, 8, 50])
    def test_outside_row_is_zero_with_row_cached(self, k):
        fibonomial_row(7)
        assert fibonomial(7, k) == 0


class TestFibonomialRow:
    def test_conformance_sweep(self):
        """Every row in the domain against the Fibonacci Pascal rule.

        [n k] = F_{k+1}[n-1 k] + F_{n-k-1}[n-1 k-1] is a recurrence independent
        of the multiplicative step that builds the rows.
        """
        fibs = fib_range(0, 301)
        prev = None
        for n in range(0, 301):
            row = fibonomial_row(n)
            assert isinstance(row, tuple) and len(row) == n + 1
            assert all(c > 0 for c in row) and row[0] == 1
            assert row == row[::-1], n
            if prev is not None:
                for k in range(1, n):
                    assert row[k] == fibs[k + 1] * prev[k] + fibs[n - k - 1] * prev[k - 1], (n, k)
            prev = row

    @pytest.mark.parametrize("n", [*range(0, 31), 150, 299, 300])
    def test_factorial_quotient(self, n):
        fact = [fib_factorial(k) for k in range(n + 1)]
        assert list(fibonomial_row(n)) == [fact[n] // (fact[k] * fact[n - k]) for k in range(n + 1)]

    def test_walking_a_row_builds_it_once(self):
        from goldencalc.binomials import _fibonomial_row

        fibonomial_row(40)
        misses = _fibonomial_row.cache_info().misses
        assert [fibonomial(40, k) for k in range(41)] == list(fibonomial_row(40))
        assert _fibonomial_row.cache_info().misses == misses


class TestGoldenBinomial:
    def test_degree_two_by_hand(self):
        # (x + phi y)(x - y/phi) expanded with phi - 1/phi = 1
        expected = BivarPoly({(2, 0): ZPhi(1, 0), (1, 1): ZPhi(1, 0), (0, 2): ZPhi(-1, 0)})
        assert golden_binomial(2, "product") == expected
        assert golden_binomial(2, "expansion") == expected

    def test_degree_one_and_three(self):
        assert golden_binomial(1) == BivarPoly({(1, 0): ZPhi(1, 0), (0, 1): ZPhi(1, 0)})
        expected3 = BivarPoly({(3, 0): ZPhi(1, 0), (2, 1): ZPhi(2, 0),
                               (1, 2): ZPhi(-2, 0), (0, 3): ZPhi(-1, 0)})
        assert golden_binomial(3, "product") == expected3

    def test_product_oracle(self):
        # rebuild the n = 4 product with an independent dict convolution
        factors = []
        for j in range(4):
            c = phi_power_exact(3 - 2 * j)
            if j % 2:
                c = -c
            factors.append({(1, 0): ZPhi(1, 0), (0, 1): c})
        acc = {(0, 0): ZPhi(1, 0)}
        for f in factors:
            acc = brute_poly_mul(acc, f)
        assert golden_binomial(4, "product") == BivarPoly(acc)

    def test_product_is_the_factor_product(self):
        # Reference: the sparse BivarPoly product of the n linear factors, factor by factor.
        for n in range(MAX_BINOMIAL_DEGREE + 1):
            poly = BivarPoly.one()
            for j in range(n):
                poly = poly * _linear_factor(phi_power_exact(n - 1 - 2 * j) * (-1 if j % 2 else 1))
            assert str(golden_binomial(n, "product")) == str(poly), n

    @given(st.integers(0, 20))
    def test_forms_agree(self, n):
        assert golden_binomial(n, "product") == golden_binomial(n, "expansion")

    @given(st.integers(0, 20))
    def test_integer_coefficients(self, n):
        for _, c in golden_binomial(n, "expansion").monomials():
            assert c.b == 0

    def test_roots_annihilate(self):
        one = ZPhi(1, 0)
        for n in range(1, 11):
            poly = golden_binomial(n, "product")
            for root in golden_binomial_roots(n):
                assert not poly.evaluate(root, one)

    def test_guard(self):
        with pytest.raises(DomainError):
            golden_binomial(31)


class TestDirectFormulas:
    """golden_polynomial and BivarPoly.evaluate against their direct formulas, term by term."""

    @pytest.mark.parametrize("a", [0, 1, Fraction(3, 2), Fraction(-7, 3)])
    def test_golden_polynomial(self, a):
        # coefficient of x^(n-k): (-1)^(k(k-1)/2) [n k]_F (-a)^k / F_n!, each factor a Fraction
        for n in range(31):
            coeffs = [Fraction(0)] * (n + 1)
            for k, c in enumerate(fibonomial_row(n)):
                coeffs[n - k] = Fraction((-1) ** (k * (k - 1) // 2) * c) * (-Fraction(a)) ** k / fib_factorial(n)
            while len(coeffs) > 1 and not coeffs[-1]:
                coeffs.pop()
            p = golden_polynomial(n, a)
            assert (p.coeffs, p.shift) == (tuple(coeffs), a), (n, a)
            assert all(type(c) is Fraction for c in p.coeffs)

    def test_bivar_evaluate(self):
        def direct(poly, x, y):  # every term's powers by repeated products
            total = 0
            for (i, j), c in poly.coefficients.items():
                for _ in range(i):
                    c = c * x
                for _ in range(j):
                    c = c * y
                total = total + c
            return total

        rng = random.Random(0)
        for n in range(21):
            poly = golden_binomial(n)
            points = [(root, ZPhi(1, 0)) for root in golden_binomial_roots(n)] + [
                (ZPhi(rng.randint(-9, 9), rng.randint(-9, 9)), ZPhi(rng.randint(-9, 9), rng.randint(-9, 9)))
                for _ in range(5)]
            for x, y in points:
                value = poly.evaluate(x, y)
                assert value == direct(poly, x, y), (n, x, y)
                assert isinstance(value, ZPhi)
        assert BivarPoly({}).evaluate(ZPhi(2, 1), 3) == 0


class TestGoldenPolynomial:
    def test_degree_two_printed(self):
        p = golden_polynomial(2, 1)
        assert p.coeffs == (Fraction(-1), Fraction(-1), Fraction(1))
        assert str(UnivarPoly(coeffs=(1, -2, 3))) == "(3)x^2 + (-2)x + (1)"

    def test_degree_zero(self):
        assert golden_polynomial(0).coeffs == (Fraction(1),)

    def test_degree_three_printed_factored_form(self):
        # (1/2)(x+1)(x^2 - 3x + 1) for a = 1
        p = golden_polynomial(3, 1)
        expected = [Fraction(1, 2) * c for c in (1, -2, -2, 1)][::-1]
        assert list(p.coeffs) == expected

    def test_general_parameter(self):
        p = golden_polynomial(2, Fraction(3, 2))
        # x^2 - (3/2) x - 9/4
        assert p.coeffs == (Fraction(-9, 4), Fraction(-3, 2), Fraction(1))
        assert p.shift == Fraction(3, 2)


class TestNoncommutative:
    def test_hand_ordered_degree_two(self):
        # (x + y)(x + qy) with yx = phi xy, q = -1/phi: xy coefficient phi + q = 1
        word = noncomm_expand(2)
        assert word.coeffs[0] == ZPhi(1, 0)
        assert word.coeffs[1] == ZPhi(1, 0)
        assert word.coeffs[2] == ZPhi.phi_conjugate()  # -1/phi

    def test_trivial_degrees(self):
        assert noncomm_expand(0).coeffs == (ZPhi(1, 0),)
        assert noncomm_expand(1).coeffs == (ZPhi(1, 0), ZPhi(1, 0))

    @given(st.integers(0, 10))
    def test_closed_form(self, n):
        word = noncomm_expand(n)
        q = ZPhi.phi_conjugate()
        for k in range(n + 1):
            assert word.coeffs[k] == q ** (k * (k - 1) // 2) * fibonomial(n, k)

    def test_guard(self):
        with pytest.raises(DomainError):
            noncomm_expand(13)


class TestJacksonExp:
    def test_series_head(self):
        assert abs(jackson_exp(golden_base(), 0, 10) - 1) == 0

    def test_golden_base_value(self):
        # 30-term direct summation oracle
        with mp.workdps(40):
            q = golden_base(40)
            total = mp.mpf(1)
            fact = mp.mpf(1)
            for k in range(1, 31):
                fact *= (q ** k - 1) / (q - 1)
                total += 1 / fact
            assert abs(total - mp.mpf("1.2735")) < 1e-4
        value = jackson_exp(golden_base(), 1, 30)
        assert abs(value - total) < 1e-25

    def test_classical_limit(self):
        value = jackson_exp(1, 1, 60)
        assert abs(value - mp.e) < 1e-15

    def test_vanishing_factorial_reported(self):
        # q = -1 gives [2]_q = 0
        with pytest.raises(DomainError):
            jackson_exp(-1, 1, 10)


def jackson_closed_form(q, x, n_terms: int, precision: int, digits: int | None = None):
    """sum_k x^k / [k]_q! with [k]_q = (q^k - 1)/(q - 1) (k at q = 1), at 2p + 20 digits unless given."""
    with mp.workdps(digits or 2 * precision + 20):
        q, x = mp.mpmathify(q), mp.mpmathify(x)
        total = fact = mp.mpf(1)
        for k in range(1, n_terms + 1):
            fact *= k if q == 1 else (q ** k - 1) / (q - 1)
            total += x ** k / fact
        return total


class TestJacksonExpConformance:
    """The requested digits at every precision, for real and complex bases and arguments."""

    BASES = ["golden", 2, 1, 0, 0.5, -0.5, 1 + 1j]
    ARGS = [-5, -1.25, 0.3, 4.75, 2.5 - 1.5j, -4 + 3j]

    @pytest.mark.parametrize("q", BASES, ids=[str(q) for q in BASES])
    @pytest.mark.parametrize("precision", [16, 34, 60, 100])
    def test_digits(self, precision, q):
        qv = golden_base(precision) if q == "golden" else q
        for x in self.ARGS:
            for n_terms in (1, 2, 60, 200):
                value = jackson_exp(qv, x, n_terms, precision)
                assert isinstance(value, mpc)
                ref = jackson_closed_form(qv, x, n_terms, precision)
                with mp.workdps(2 * precision + 20):
                    err = abs(value - ref)
                    assert err <= mp.mpf(10) ** -precision * max(abs(ref), 1), (x, n_terms, err)

    # bases where the sum stops at a proven tail: [k]_q grows without bound and never vanishes
    TAIL_BASES = {"1+1e-30": lambda: 1 + mp.mpf("1e-30"), "1.5": lambda: mp.mpf(1.5),
                  "-phi^2": lambda: -(3 + mp.sqrt(5)) / 2}

    @pytest.mark.parametrize("q", sorted(TAIL_BASES))
    @pytest.mark.parametrize("precision", [16, 34, 60, 100])
    def test_stop_at_proven_tail(self, precision, q):
        with mp.workdps(2 * precision + 20):
            qv = self.TAIL_BASES[q]()
        # the last five rescale their terms; at -phi^2 the last three also reach the stop after that
        for x in self.ARGS + [0, 20, -20, 1e300, -3e200 + 1e300j, 1e40 / 5 ** 0.5, -1e40, -1e60]:
            value = jackson_exp(qv, x, 200, precision)
            ref = jackson_closed_form(qv, x, 200, precision)
            with mp.workdps(2 * precision + 20):
                err = abs(value - ref)
                assert err <= mp.mpf(10) ** -precision * max(abs(ref), 1), (x, err)

    def test_huge_exponents_stay_out_of_the_ints(self):
        # |q| or |x| near 2^(3.3e7), and parts 2^(3.3e7) apart: the sums cost what they cost at 1e40
        with mp.workdps(60):
            big = mp.mpf("1e10000000")
            cases = [(big, 5), (2, big), (-big, mp.mpc(1, big)), (mp.mpc(1 / big, big), mp.mpc(big, -1 / big))]
        for q, x in cases:
            start = time.perf_counter()
            value = jackson_exp(q, x, 60)
            assert time.perf_counter() - start < 0.5, (q, x)
            ref = jackson_closed_form(q, x, 60, DEFAULT_DPS)
            with mp.workdps(2 * DEFAULT_DPS + 20):
                assert abs(value - ref) <= mp.mpf(10) ** -DEFAULT_DPS * max(abs(ref), 1), (q, x)

    def test_base_rounding_to_minus_one_refused(self):
        # -1 - 1e-30 is -1 at 16 + 10 working digits, where [2]_q = 1 + q vanishes
        with mp.workdps(60):
            q = -1 - mp.mpf("1e-30")
        with pytest.raises(DomainError, match=re.escape("basic factorial [2]_q! vanishes")):
            jackson_exp(q, 1, 200, 16)

    @pytest.mark.parametrize("q, k", [(-1, 2), (1j, 4)], ids=["-1", "1j"])
    @pytest.mark.parametrize("x", [1, -2.5, 0.5j, 0])
    def test_vanishing_basic_number(self, q, k, x):
        assert isinstance(jackson_exp(q, x, k - 1), mpc)
        message = f"basic factorial [{k}]_q! vanishes for q = {q}"
        for n_terms in (k, k + 1, 200):
            with pytest.raises(DomainError, match=re.escape(message)):
                jackson_exp(q, x, n_terms)


class TestRemarkableLimit:
    def test_zero_argument(self):
        for n in (1, 5, 50):
            assert abs(remarkable_limit_lhs(0, n) - 1) == 0

    def test_against_jackson_exponential(self):
        lhs = remarkable_limit_lhs(0.5, 60)
        rhs = jackson_exp(golden_base(), mp.mpf("0.5") / mp.sqrt(5), 60)
        assert abs(lhs - rhs) < 1e-6

    def test_sqrt5_special_case(self):
        lhs = remarkable_limit_lhs(mp.sqrt(5), 80)
        rhs = jackson_exp(golden_base(), 1, 80)
        assert abs(lhs - rhs) < 1e-6

    @pytest.mark.parametrize("y", [1, -3, 2.25, 0.5 + 2j])
    @pytest.mark.parametrize("n", [1, 40, 200])
    def test_matches_term_sum(self, y, n):
        # Reference: the expansion sum_k s_k [n k]_F (y/phi^n)^k, term by term at 80 digits.
        with mp.workdps(80):
            scale = mp.mpmathify(y) / mp.phi ** n
            ref = mp.fsum((-1 if k * (k - 1) // 2 % 2 else 1) * c * scale ** k
                          for k, c in enumerate(fibonomial_row(n)))
        lhs = remarkable_limit_lhs(y, n)
        assert isinstance(lhs, mp.mpc)
        assert abs(lhs - ref) <= mp.mpf(10) ** -40 * max(1, abs(ref))

    @pytest.mark.parametrize("dps", [16, 34, 60, 100])
    def test_early_stop_keeps_the_digits(self, dps):
        # Reference: the full finite sum over k = 0..n at 2p + 60 digits.
        misses = []
        for n in (1, 2, 3, 7, 30, 100, 199, 200):
            row = fibonomial_row(n)
            for y in (0, 1e-30, -1e-30, 0.5, -0.5, 5, -5, 50, -50, 500, -500, 3 + 4j, -40j, 1e300, -2e300j,
                      1e40, -1e60):  # at the larger n the last four rescale, and 1e40 and -1e60 then reach the stop
                got = remarkable_limit_lhs(y, n, dps)
                with mp.workdps(2 * dps + 60):
                    u = mp.mpmathify(y) / mp.phi ** n
                    ref = mp.fsum((-1 if k * (k - 1) // 2 % 2 else 1) * c * u ** k for k, c in enumerate(row))
                    err = abs(got - ref) / max(abs(ref), 1)
                    if err > mp.mpf(10) ** -dps:
                        misses.append((n, y, mp.nstr(err, 3)))
        assert not misses, f"at {dps} digits: {misses}"

    def test_huge_exponents_stay_out_of_the_ints(self):
        # |y| near 2^(3.3e7), alone or beside a part 2^(3.3e7) smaller: as fast as at y = 1e40
        with mp.workdps(60):
            big = mp.mpf("1e10000000")
        row = fibonomial_row(200)
        for y in (big, -big, mp.mpc("1e-30", -big)):
            start = time.perf_counter()
            got = remarkable_limit_lhs(y, 200)
            assert time.perf_counter() - start < 0.5, y
            with mp.workdps(2 * DEFAULT_DPS + 60):
                u = y / mp.phi ** 200
                ref = mp.fsum((-1 if k * (k - 1) // 2 % 2 else 1) * c * u ** k for k, c in enumerate(row))
                assert abs(got - ref) <= mp.mpf(10) ** -DEFAULT_DPS * abs(ref), y

    def test_guard(self):
        with pytest.raises(DomainError):
            remarkable_limit_lhs(1.0, 201)


# ---------------------------------------------------------------------------
# The fixed-point sums against exact rational oracles, with no mpmath arithmetic
# ---------------------------------------------------------------------------

ORACLE_BITS = 500  # the oracles floor their values to units of 2^-500, far below 10^-100


class Gauss:
    """(a + ib) / d with ints a, b and a nonzero int d, never reduced: exact, with no gcd of huge ints."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1) -> None:
        self.a, self.b, self.d = a, b, d

    @classmethod
    def of(cls, z: tuple[Fraction, Fraction]) -> Gauss:
        re_, im = z
        return cls(re_.numerator * im.denominator, im.numerator * re_.denominator,
                   re_.denominator * im.denominator)

    def __add__(self, o: Gauss) -> Gauss:
        if self.d == o.d:  # the oracles' sums share a denominator: keep it, or it squares a step
            return Gauss(self.a + o.a, self.b + o.b, self.d)
        return Gauss(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    def __mul__(self, o: Gauss) -> Gauss:
        return Gauss(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    def __truediv__(self, o: Gauss) -> Gauss:
        if o.b == 0 and o.d & o.d - 1 == 0:  # a dyadic divisor: shift, much cheaper than a multiply
            return Gauss(self.a << o.d.bit_length() - 1, self.b << o.d.bit_length() - 1, self.d * o.a)
        if o.b == 0:
            return Gauss(self.a * o.d, self.b * o.d, self.d * o.a)
        return self * Gauss(o.a * o.d, -o.b * o.d, o.a * o.a + o.b * o.b)

    def scaled(self) -> tuple[int, int]:
        """(floor(re 2^ORACLE_BITS), floor(im 2^ORACLE_BITS))."""
        return (self.a << ORACLE_BITS) // self.d, (self.b << ORACLE_BITS) // self.d


@lru_cache(maxsize=None)
def jackson_oracle(q: tuple, x: tuple, n_terms: int) -> tuple[int, int]:
    """sum_{k<=n} x^k / [k]_q!, [k]_q = 1 + q [k-1]_q, by Horner's rule 1 + x/[1] (1 + x/[2] (1 + ...))."""
    q, x, one = Gauss.of(q), Gauss.of(x), Gauss(1)
    basic = [Gauss(0)]
    for _ in range(n_terms):
        basic.append(one + q * basic[-1])
    h = one
    for k in range(n_terms, 0, -1):
        h = one + x * h / basic[k]
    return h.scaled()


def _times_sqrt5(num: int, den: int) -> int:
    """num sqrt(5) / den, scaled by 2^ORACLE_BITS, within two units."""
    root = isqrt(5 * num * num << 2 * ORACLE_BITS)
    return (root if num >= 0 else -root) // den


@lru_cache(maxsize=None)
def limit_oracle(y: tuple, n: int) -> tuple[int, int]:
    """sum_k (-1)^(k(k-1)/2) [n k]_F y^k phi^(-nk) in Q(i)(phi), as A + B phi by Horner's rule in u = y phi^-n."""
    fib = [0, 1]
    while len(fib) <= n + 1:
        fib.append(fib[-1] + fib[-2])
    fact = [1]
    for f in fib[1:n + 1]:
        fact.append(fact[-1] * f)
    coeff = [Gauss((-1 if k * (k - 1) // 2 % 2 else 1) * fact[n] // (fact[k] * fact[n - k]))
             for k in range(n + 1)]
    y = Gauss.of(y)
    p, r = Gauss((-1) ** n * fib[n + 1]), Gauss(-(-1) ** n * fib[n])  # phi^-n = p + r phi
    a, b = coeff[n], Gauss(0)
    for k in range(n - 1, -1, -1):
        a, b = a * y, b * y
        a, b = a * p + b * r + coeff[k], a * r + b * p + b * r  # (a + b phi)(p + r phi), phi^2 = phi + 1
    (ar, ai), (br, bi) = a.scaled(), (b / Gauss(2)).scaled()  # a + b/2 + (b/2) sqrt(5)
    return ar + br + _times_sqrt5(b.a, 2 * b.d), ai + bi + _times_sqrt5(b.b, 2 * b.d)


def _exact_input(z: tuple[Fraction, Fraction]):
    """The dyadic z as an mpf or mpc, unrounded: the library reads it as given."""
    with mp.workprec(256):
        return mp.mpmathify(z[0]) if z[1] == 0 else mp.mpc(mp.mpmathify(z[0]), mp.mpmathify(z[1]))


def _scaled(v) -> int:
    """floor(v 2^ORACLE_BITS) for an mpf v."""
    man, exp = v.man_exp  # mpmath 1.3's man_exp drops the sign
    man = -man if v < 0 else man
    return man << ORACLE_BITS + exp if ORACLE_BITS + exp >= 0 else man >> -(ORACLE_BITS + exp)


def _within_digits(got, exact: tuple[int, int], precision: int) -> bool:
    """|got - exact| <= 10^-precision max(|exact|, 1), allowing the floors' few units of 2^-ORACLE_BITS."""
    dr, di = _scaled(got.real) - exact[0], _scaled(got.imag) - exact[1]
    scale = max(isqrt(exact[0] ** 2 + exact[1] ** 2), 1 << ORACLE_BITS)
    return (isqrt(dr * dr + di * di) + 4) * 10 ** precision <= scale


def _dyadic_id(z: tuple[Fraction, Fraction]) -> str:
    return str(z[0]) if z[1] == 0 else f"{z[0]}{'+' if z[1] > 0 else '-'}{abs(z[1])}i"


F = Fraction
ORACLE_BASES = [(F(2), F(0)), (F(3, 2), F(0)), (F(-5, 2), F(0)), (F(1, 2), F(0)), (F(-1, 2), F(0)),
                (1 + F(1, 2 ** 60), F(0)), (F(1), F(1))]
ORACLE_ARGS = [(F(-5), F(0)), (F(19, 4), F(0)), (F(5, 2), F(-3, 2)), (F(-4), F(3))]
ORACLE_TERMS = (1, 2, 60, 200)


class TestFixedPointOracles:
    """jackson_exp and remarkable_limit_lhs at dyadic inputs against exact Q(i) and Q(i)(phi) sums."""

    @pytest.mark.parametrize("q", ORACLE_BASES, ids=["2", "3/2", "-5/2", "1/2", "-1/2", "1+2^-60", "1+i"])
    @pytest.mark.parametrize("precision", [16, 34, 60, 100])
    def test_jackson_exp(self, precision, q):
        misses = [(_dyadic_id(x), n) for x in ORACLE_ARGS for n in ORACLE_TERMS
                  if not _within_digits(jackson_exp(_exact_input(q), _exact_input(x), n, precision),
                                        jackson_oracle(q, x, n), precision)]
        assert not misses

    # the last two have an imaginary part far below |sum|: the digits hold for the sum as a whole
    LIMIT_ARGS = [(F(5, 2), F(0)), (F(-19, 4), F(0)), (F(40), F(0)), (F(3), F(4)), (F(-1, 2), F(-5, 4)),
                  (F(0), F(-1, 2 ** 66)), (F(-3), F(1, 2 ** 200))]

    @pytest.mark.parametrize("y", LIMIT_ARGS, ids=[_dyadic_id(y) for y in LIMIT_ARGS])
    @pytest.mark.parametrize("precision", [16, 34, 60, 100])
    def test_remarkable_limit_lhs(self, precision, y):
        misses = [n for n in ORACLE_TERMS
                  if not _within_digits(remarkable_limit_lhs(_exact_input(y), n, precision),
                                        limit_oracle(y, n), precision)]
        assert not misses


class TestKnownDigitLosses:
    """The two documented losses of jackson_exp stay below ten times the error the fixed-point sum gives."""

    # (q, x, n_terms): {precision: bound on the error relative to the sum}; at 16 digits -1 - 1e-30
    # rounds to -1 and is refused (test_base_rounding_to_minus_one_refused)
    BOUNDS = {("-1-1e-30", "0.5", 60): {34: 3.7e-16, 60: 8.8e-43, 100: 9.5e-83},
              ("-1-1e-30", "0.5", 200): {34: 1.3e-15, 60: 1.1e-42, 100: 1.3e-82},
              ("1+1e-30", "-37.5", 200): {16: 2.3, 34: 7e-19, 60: 1.2e-44, 100: 4.1e-84}}

    @pytest.mark.parametrize("case", sorted(BOUNDS), ids=lambda c: "q={}_x={}_n={}".format(*c))
    def test_relative_error_bounded(self, case):
        q_text, x_text, n_terms = case
        for precision, bound in self.BOUNDS[case].items():
            digits = 3 * precision + 40
            with mp.workdps(digits):
                sign = -1 if q_text.startswith("-") else 1
                q, x = sign * (1 + mp.mpf("1e-30")), mp.mpf(x_text)
            value = jackson_exp(q, x, n_terms, precision)
            ref = jackson_closed_form(q, x, n_terms, precision, digits)
            with mp.workdps(digits):
                err = abs(value - ref) / abs(ref)
                assert err <= bound, (precision, mp.nstr(err, 3))
