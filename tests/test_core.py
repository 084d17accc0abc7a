"""Exact Fibonacci arithmetic, the Z[phi] ring, and the analytic extension."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from goldencalc import core
from goldencalc.angular import casimir_ratio
from goldencalc.core import _FIB_TABLE_INDEX as T
from goldencalc.core import _TOOM_BITS as C
from goldencalc.core import (
    MAX_FIB_INDEX,
    DomainError,
    GoldenValue,
    ZPhi,
    _fib_lucas,
    _mul,
    _ratio_series,
    fib_exact,
    fib_extended,
    fib_range,
    phi_power_exact,
    ratio_sequence,
)


def fib_linear(n: int) -> int:
    """Independent oracle: the defining recurrence, term by term."""
    if n >= 0:
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a
    f = fib_linear(-n)
    return f if (-n) % 2 == 1 else -f


class TestFibExact:
    def test_known_values(self):
        assert fib_exact(7) == 13
        assert fib_exact(0) == 0
        assert [fib_exact(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]

    def test_negative_index(self):
        # (-1)^{n+1} F_n with F_3 = 2
        assert fib_exact(-3) == 2
        assert fib_exact(-4) == -3

    @given(st.integers(min_value=-300, max_value=300))
    def test_matches_linear_oracle(self, n):
        assert fib_exact(n) == fib_linear(n)

    def test_guard(self):
        with pytest.raises(DomainError):
            fib_exact(10**6 + 1)

    def test_fib_range(self):
        assert fib_range(-3, 3) == [2, -1, 1, 0, 1, 1, 2]


class TestZPhi:
    def test_multiplication_reduction(self):
        # (1+phi)(2+3phi) = 2 + 3phi + 2phi + 3phi^2 = 5 + 8phi
        assert ZPhi(1, 1) * ZPhi(2, 3) == ZPhi(5, 8)

    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
           st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
           st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    def test_ring_axioms(self, t1, t2, t3):
        x, y, z = ZPhi(*t1), ZPhi(*t2), ZPhi(*t3)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(st.integers(-200, 200))
    def test_phi_power_is_fibonacci_pair(self, n):
        power = ZPhi.phi() ** n if n >= 0 else (-ZPhi.phi_conjugate()) ** -n  # 1/phi = -phi'
        assert power == ZPhi(fib_exact(n - 1), fib_exact(n))
        assert phi_power_exact(n) == power

    def test_phi_power_examples(self):
        assert phi_power_exact(4) == ZPhi(2, 3)
        assert phi_power_exact(0) == ZPhi(1, 0)
        assert phi_power_exact(1) == ZPhi(0, 1)

    def test_unit_inverse(self):
        # phi (phi - 1) = phi**2 - phi = 1, and phi_power_exact(-1) gives that inverse
        assert ZPhi.phi() * ZPhi(-1, 1) == ZPhi(1, 0)
        assert phi_power_exact(-1) == ZPhi(-1, 1)

    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_norm_multiplicative(self, a, b):
        x = ZPhi(a, b)
        y = ZPhi(b - 1, a + 2)
        assert (x * y).norm == x.norm * y.norm

    def test_conjugate_is_second_root(self):
        # phi' = 1 - phi satisfies x^2 = x + 1 as well
        pc = ZPhi.phi_conjugate()
        assert pc * pc == pc + 1

    @pytest.mark.parametrize("operation", [
        lambda x: x / 2, lambda x: 1 / x, lambda x: x / ZPhi(1, 1), lambda x: x ** -1,
        lambda x: x + Fraction(1, 2), lambda x: Fraction(1, 2) + x, lambda x: x - Fraction(1, 2),
        lambda x: Fraction(1, 2) - x, lambda x: x * Fraction(1, 2), lambda x: Fraction(1, 2) * x,
        lambda x: x * 0.5, lambda x: x ** 0.5,
    ], ids=["div-int", "rdiv-int", "div-ring", "negative-power", "add-fraction", "radd-fraction",
            "sub-fraction", "rsub-fraction", "mul-fraction", "rmul-fraction", "mul-float", "float-power"])
    def test_field_operations_are_refused(self, operation):
        with pytest.raises(TypeError):
            operation(ZPhi(2, 1))

    def test_field_members_are_gone(self):
        for name in ("inverse", "conj", "to_mpf"):
            assert not hasattr(ZPhi(2, 1), name), name


ints = st.integers(-10**6, 10**6)


def _pair(x) -> tuple[int, int]:
    """The coordinates (a, b) of a ZPhi, or (x, 0) of an int."""
    return (x.a, x.b) if isinstance(x, ZPhi) else (x, 0)


class TestOneField:
    """ZPhi's operators against arithmetic on coordinate pairs, with phi**2 = phi + 1."""

    @given(ints, ints, st.one_of(st.builds(ZPhi, ints, ints), ints))
    def test_ring_operands_stay_in_ring(self, a, b, other):
        x, (c, d) = ZPhi(a, b), _pair(other)
        product = (a * c + b * d, a * d + b * c + b * d)
        cases = [(x + other, (a + c, b + d)), (other + x, (a + c, b + d)),
                 (x * other, product), (other * x, product)]
        if isinstance(other, ZPhi):  # a difference takes two ring elements
            cases += [(x - other, (a - c, b - d)), (other - x, (c - a, d - b))]
        for result, expected in cases:
            assert type(result) is ZPhi
            assert _pair(result) == expected

    @given(ints, ints, st.booleans())
    def test_bool_operands_act_as_ints(self, a, b, t):
        x = ZPhi(a, b)
        for result, expected in ((x + t, x + int(t)), (t + x, int(t) + x),
                                 (x * t, x * int(t)), (t * x, int(t) * x)):
            assert type(result) is ZPhi
            assert result == expected

    @given(ints, ints, st.integers(0, 7))
    def test_unary_operations_keep_the_type(self, a, b, n):
        x = ZPhi(a, b)
        repeated = ZPhi(1, 0)
        for _ in range(n):
            repeated = repeated * x
        for result, expected in ((-x, ZPhi(-a, -b)), (x ** n, repeated)):
            assert type(result) is ZPhi
            assert result == expected

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", range(-4, 5))
    def test_powers_of_units(self, sign, k):
        unit = phi_power_exact(k) * sign
        for n in range(0, 6):
            result = unit ** n
            assert type(result) is ZPhi
            assert result == phi_power_exact(k * n) * (sign if n % 2 else 1)

    @given(ints, ints)
    def test_equal_values_compare_equal(self, a, b):
        forms = [ZPhi(a, b), ZPhi(a, 0) + ZPhi(0, b), ZPhi.phi() * b + a]
        if b == 0:
            forms.append(a)
        for x in forms:
            for y in forms:
                assert x == y

    def test_coordinates_read_only(self):
        x = ZPhi(1, 2)
        with pytest.raises(AttributeError):
            x.a = 5
        with pytest.raises(AttributeError):
            x.b = 5

    def test_ring_constructor_takes_integers_only(self):
        with pytest.raises(TypeError):
            ZPhi(Fraction(1, 2), 0)


class TestFibExtended:
    def test_integer_argument(self):
        gv = fib_extended(5)
        assert isinstance(gv, GoldenValue)
        assert abs(gv.value - 5) < 1e-12

    def test_half_argument_frozen(self):
        # direct high-precision evaluation of the defining formula
        gv = fib_extended(0.5)
        assert abs(gv.value.real - 0.56886) < 1e-5
        assert abs(gv.value.imag - (-0.35158)) < 1e-5

    def test_half_argument_against_independent_formula(self):
        with mp.workdps(40):
            phi = (1 + mp.sqrt(5)) / 2
            z = mp.mpf("0.5")
            oracle = (mp.power(phi, z) - mp.expjpi(z) / mp.power(phi, z)) / mp.sqrt(5)
        assert abs(fib_extended(0.5, 34).value - oracle) < 1e-30

    def test_golden_pi_scale(self):
        # the published example value carries an extra sqrt(5)
        gv = fib_extended(mp.pi)
        scaled = gv.value * mp.sqrt(5)
        assert abs(scaled - mp.mpc("4.73068", "0.0939706")) < 5e-3
        assert abs(gv.value - mp.mpc("4.73068", "0.0939706")) > 2

    @pytest.mark.parametrize("dps", [34, 60, 100])
    def test_relative_digits_near_zero(self, dps):
        # The Binet difference cancels as z -> 0; here it is the reference, at 3p digits.
        misses = []
        for e in range(41):
            t = mp.mpf(10) ** -e
            for z in (mp.mpc(t), mp.mpc(-t), mp.mpc(0, t), mp.mpc(0, -t)):
                got = fib_extended(z, dps).value
                with mp.workdps(3 * dps):
                    ref = (mp.power(mp.phi, z) - mp.expjpi(z) * mp.power(mp.phi, -z)) / mp.sqrt(5)
                    err = abs(got - ref) / abs(ref)
                    if err > mp.mpf(10) ** -dps:
                        misses.append((mp.nstr(z, 3), mp.nstr(err, 3)))
        assert not misses, f"at {dps} digits: {misses}"

    def test_guards(self):
        with pytest.raises(DomainError):
            fib_extended(2000.0)
        with pytest.raises(DomainError):
            fib_extended(1.0, precision=8)

    @pytest.mark.parametrize("z", [mp.nan, mp.mpc(1, mp.nan), mp.mpc(mp.inf, 0)],
                             ids=["nan", "nan-imaginary", "inf"])
    def test_non_finite_argument_named(self, z):
        with pytest.raises(DomainError, match="must be finite"):
            fib_extended(z)

    def test_out_of_range_message(self):
        with pytest.raises(DomainError, match=r"must not exceed 1000"):
            fib_extended(mp.mpc(1, -2000))

    @pytest.mark.parametrize("dps", [16, 20, 34, 35, 60, 100])
    def test_real_arguments_at_requested_digits(self, dps):
        # F_z against the two-base closed form at 2p + 20 digits, at real orders r and products r n
        orders, indices = (-1, 1, 2, 3, 0.5, 1.5, 0.3), (-1.5, -0.5, 0.5, 1, 2.5, 3)
        misses = []
        for z in sorted({r * n for r in orders for n in indices} | set(orders)):
            got = fib_extended(z, dps).value
            with mp.workdps(2 * dps + 20):
                zz = mp.mpf(z)
                ref = (mp.power(mp.phi, zz) - mp.expjpi(zz) * mp.power(mp.phi, -zz)) / mp.sqrt(5)
                err = abs(got - ref) / max(abs(ref), 1)
                if err > mp.mpf(10) ** -dps:
                    misses.append((z, mp.nstr(err, 3)))
        assert not misses, f"at {dps} digits: {misses}"

    @pytest.mark.parametrize("dps", [16, 34, 60, 100])
    def test_whole_domain_conformance(self, dps):
        # Seeded real points over [-1000, 1000] (integers, half-integers, |x| from 1e-1 to 1e-60) and
        # complex points in the box at least 1e-3 from every zero z_k = 2 pi i k / (2 ln phi - i pi), k != 0.
        rng = random.Random(dps)
        w = 2 * cmath.log((1 + 5 ** 0.5) / 2) - 1j * cmath.pi
        zeros = [2j * cmath.pi * k / w for k in range(-600, 601) if k]
        reals = [rng.uniform(-1000, 1000) for _ in range(30)] + [rng.randint(-1000, 1000) for _ in range(10)]
        reals += [rng.randint(-2000, 2000) / 2 for _ in range(10)] + [-1000, 1000, -999.5, 999.5]
        reals += [rng.choice((-1, 1)) * 10.0 ** -rng.uniform(1, 60) for _ in range(20)]
        box = []
        while len(box) < 30:
            z = complex(rng.uniform(-1000, 1000), rng.uniform(-1000, 1000) * rng.choice((1, 1e-3, 1e-30)))
            if min(abs(z - zk) for zk in zeros) >= 1e-3:
                box.append(z)
        misses = []
        for z in reals + box:
            got = fib_extended(z, dps).value
            zz = mp.mpmathify(z)
            # the Binet difference cancels about -log10|z| digits near z = 0
            with mp.workdps(3 * dps + 20 + max(0, -int(mp.log10(abs(zz))))):
                ref = (mp.power(mp.phi, zz) - mp.expjpi(zz) * mp.power(mp.phi, -zz)) / mp.sqrt(5)
                err = abs(got - ref) / abs(ref)
            if err > mp.mpf(10) ** -dps or (z == int(z.real) and got.imag != 0):
                misses.append((z, mp.nstr(err, 3), mp.nstr(got.imag, 3)))
        assert not misses, f"at {dps} digits: {misses}"

    @pytest.mark.parametrize("dps", [34, 60, 100])
    def test_each_part_has_its_own_digits_at_real_z(self, dps):
        # At real x far from 0 one part of F_x is ~phi^(-2|x|) times the other; each must keep its own
        # relative digits: seeded x in +-[100, 1000], half-integers among them, against 3p + 40 digits.
        rng = random.Random(dps)
        xs = [s * rng.uniform(100, 1000) for s in (1, -1) for _ in range(15)]
        xs += [s * rng.randint(200, 2000) / 2 for s in (1, -1) for _ in range(15)] + [999.5, -999.5, 100.5, -100.5]
        misses = []
        for x in xs:
            got = fib_extended(x, dps).value
            with mp.workdps(3 * dps + 40):
                ref = (mp.power(mp.phi, x) - mp.expjpi(x) * mp.power(mp.phi, -x)) / mp.sqrt(5)
                for part, want in ((got.real, ref.real), (got.imag, ref.imag)):
                    if want == 0 and part != 0 or want != 0 and abs(part - want) > mp.mpf(10) ** -dps * abs(want):
                        misses.append((x, mp.nstr(part, 5), mp.nstr(want, 5)))
        assert not misses, f"at {dps} digits: {misses}"

    @pytest.mark.parametrize("dps", [34, 60, 100])
    def test_each_part_has_its_own_digits_near_the_real_axis(self, dps):
        # As at real z, now with 1e-30 <= |y| <= 1e-3: the part fed by y is far below |F_z| at large |x|.
        # Seeded z = +-x + iy, x in [100, 1000] (half-integers among them), |y| log-uniform.
        rng = random.Random(dps)
        xs = [rng.uniform(100, 1000) for _ in range(15)] + [rng.randint(200, 2000) / 2 for _ in range(15)]
        zs = [mp.mpc(s * x, rng.choice((1, -1)) * 10 ** rng.uniform(-30, -3)) for x in xs for s in (1, -1)]
        zs += [mp.mpc("100.5", "1e-30"), mp.mpc("500.25", "-1e-20")]
        misses = []
        for z in zs:
            got = fib_extended(z, dps).value
            with mp.workdps(3 * dps + 40):
                ref = (mp.power(mp.phi, z) - mp.expjpi(z) * mp.power(mp.phi, -z)) / mp.sqrt(5)
                for part, want in ((got.real, ref.real), (got.imag, ref.imag)):
                    if want == 0 and part != 0 or want != 0 and abs(part - want) > mp.mpf(10) ** -dps * abs(want):
                        misses.append((mp.nstr(z, 8), mp.nstr(part, 5), mp.nstr(want, 5)))
        assert not misses, f"at {dps} digits: {misses}"


class TestRatioSequence:
    def test_first_values(self):
        seq = ratio_sequence(3)
        assert [float(r) for r in seq] == [1.0, 2.0, 1.5]

    def test_converges_to_phi(self):
        seq = ratio_sequence(30)
        with mp.workdps(34):
            phi = +mp.phi
        assert abs(seq[0] - 1) == 0
        assert abs(seq[-1] - phi) < mp.mpf("1e-12")

    def test_alternating_envelope(self):
        seq = ratio_sequence(20)
        with mp.workdps(34):
            phi = +mp.phi
        errors = [abs(r - phi) for r in seq]
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        signs = [1 if r > phi else -1 for r in seq]
        assert all(signs[i] != signs[i + 1] for i in range(len(signs) - 1))

    def test_minimum_length(self):
        with pytest.raises(DomainError):
            ratio_sequence(1)

    @pytest.mark.parametrize("precision", [16, 34, 60, 100])
    def test_each_quotient_rounded_once(self, precision):
        """Every value is its Fibonacci quotient correctly rounded, for both sequences."""
        fibs = fib_range(0, 1003)
        with mp.workdps(precision):
            prec = mp.prec
        # (values, index of the first denominator, numerator offset, sign)
        for values, lo, step, sign in ((ratio_sequence(1000, precision), 1, 1, 1),
                                       (casimir_ratio(1000, precision), 1, 2, -1)):
            for k, value in enumerate(values, start=lo):
                rounded = mpmath.libmp.from_rational(sign * fibs[k + step], fibs[k], prec, "n")
                assert value._mpf_ == rounded, (lo, step, k)


class TestDomainBounds:
    @pytest.mark.parametrize("call", [
        lambda: fib_range(0, 10**6 + 1),
        lambda: ratio_sequence(10**3 + 1),
        lambda: casimir_ratio(10**3 + 1),
        lambda: ratio_sequence(10**7),
        lambda: casimir_ratio(10**7),
        lambda: ratio_sequence(3, precision=2),
        lambda: casimir_ratio(4, precision=2),
    ], ids=["fib_range-hi", "ratio_sequence-n", "casimir_ratio-j",
            "ratio_sequence-huge", "casimir_ratio-huge", "ratio_sequence-dps",
            "casimir_ratio-dps"])
    def test_out_of_range_refused(self, call):
        with pytest.raises(DomainError):
            call()

    def test_upper_bounds_accepted(self):
        assert len(fib_range(10**6 - 5, 10**6)) == 6
        assert len(ratio_sequence(10**3)) == 10**3
        assert len(casimir_ratio(10**3)) == 10**3 - 1


class TestRealArgumentLaws:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
    def test_addition_law(self, x, y):
        with mp.workdps(44):
            phi = (1 + mp.sqrt(5)) / 2
            fx = fib_extended(x).value
            fy = fib_extended(y).value
            fxy = fib_extended(x + y).value
            rhs = mp.power(phi, x) * fy + mp.expjpi(y) * mp.power(phi, -y) * fx
            assert abs(fxy - rhs) < mp.mpf("1e-10")

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-5, 5, allow_nan=False))
    def test_recurrence(self, x):
        fx = fib_extended(x).value
        fx1 = fib_extended(x - 1).value
        fx2 = fib_extended(x - 2).value
        assert abs(fx - fx1 - fx2) < 1e-10


def fib_pair_recursive(n: int) -> tuple[int, int]:
    """Reference: (F_n, F_(n+1)) for n >= 0 by the classic recursive fast doubling."""
    if n == 0:
        return 0, 1
    a, b = fib_pair_recursive(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def fib_doubling_reference(n: int) -> int:
    f = fib_pair_recursive(abs(n))[0]
    return -f if n < 0 and n % 2 == 0 else f


# 20 log-spaced magnitudes from 1 to 10**6, each with both signs.
LOG_SPACED = sorted({round(10 ** (6 * i / 19)) for i in range(20)} | {MAX_FIB_INDEX})
SIGNED_LOG_SPACED = [s * n for n in LOG_SPACED for s in (1, -1)]
# Bit patterns of the walk for j = 10..19: all ones (2^j - 1), one set bit (2^j) and 2^j + 1, both signs; and 999_999.
BIT_PATTERNS = [s * n for j in range(10, 20) for n in (2**j - 1, 2**j, 2**j + 1) for s in (1, -1)] + [999_999]
# K: the first index with F_K of C bits, where core._mul's Toom-3 starts (F_k ~ phi^k / sqrt 5). The walk to n
# squares F_(n//2) last and F_(n//4) before; fib_exact(n) multiplies F_(n//2) by L_(n//2) after the walk to n//2.
# So n // 2 or n // 4 = K - 1, K crosses the cutoff at either step, both signs, odd and even n.
TOOM_K = math.ceil((C - 1 + math.log2(math.sqrt(5))) / math.log2((1 + math.sqrt(5)) / 2))
TOOM_CROSSING = [s * (m * k + r) for k in (TOOM_K - 1, TOOM_K) for m in (2, 4) for r in (0, 1) for s in (1, -1)]


class TestLucasDoubling:
    """fib_exact, phi_power_exact and fib_range over the whole index domain."""

    def test_every_index_near_zero(self):
        # The recurrence run up from (F_0, F_1) and down from (F_0, F_-1).
        forward = [0, 1]
        while len(forward) <= 5000:
            forward.append(forward[-1] + forward[-2])
        backward = [0, 1]  # backward[n] = F_(-n), since F_(k-1) = F_(k+1) - F_k
        while len(backward) <= 5000:
            backward.append(backward[-2] - backward[-1])
        for n in range(0, 5001):
            assert fib_exact(n) == forward[n], n
            assert fib_exact(-n) == backward[n], -n

    @pytest.mark.parametrize("n", SIGNED_LOG_SPACED + BIT_PATTERNS + TOOM_CROSSING)
    def test_matches_recursive_doubling(self, n):
        assert fib_exact(n) == fib_doubling_reference(n)
        # the walk's own pair (F_n, L_n), with L_n = F_(n-1) + F_(n+1)
        assert _fib_lucas(n) == (fib_doubling_reference(n), fib_doubling_reference(n - 1) + fib_doubling_reference(n + 1))

    def test_phi_power_is_ring_power(self):
        phi, inverse = ZPhi.phi(), -ZPhi.phi_conjugate()  # 1/phi = -phi'
        for n in range(-T - 5, T + 6):  # both sides of the table's edges
            assert phi_power_exact(n) == (phi ** n if n >= 0 else inverse ** -n), n

    @pytest.mark.parametrize("lo", range(-50, 51))
    def test_fib_range_start(self, lo):
        assert fib_range(lo, lo) == [fib_linear(lo)]
        assert fib_range(lo, lo + 12) == [fib_linear(k) for k in range(lo, lo + 13)]

    def test_range_and_powers_reach_the_bound(self):
        top = fib_exact(MAX_FIB_INDEX)
        bottom, next_up = fib_exact(-MAX_FIB_INDEX), fib_exact(1 - MAX_FIB_INDEX)
        assert fib_range(MAX_FIB_INDEX, MAX_FIB_INDEX) == [top]
        assert fib_range(-MAX_FIB_INDEX, 1 - MAX_FIB_INDEX) == [bottom, next_up]
        # phi^-N = F_(-N-1) + F_(-N) phi, and F_(-N-1) = F_(1-N) - F_(-N).
        assert phi_power_exact(-MAX_FIB_INDEX) == ZPhi(next_up - bottom, bottom)

    @pytest.mark.parametrize("call", [
        lambda: fib_exact(MAX_FIB_INDEX + 1),
        lambda: fib_exact(-MAX_FIB_INDEX - 1),
        lambda: phi_power_exact(MAX_FIB_INDEX + 1),
        lambda: phi_power_exact(-MAX_FIB_INDEX - 1),
        lambda: fib_range(MAX_FIB_INDEX, MAX_FIB_INDEX + 1),
        lambda: fib_range(-MAX_FIB_INDEX - 1, 0),
        lambda: fib_exact(2.0),
        lambda: phi_power_exact(2.5),
        lambda: fib_range(0.5, 3),
    ], ids=["fib-above", "fib-below", "power-above", "power-below", "range-above",
            "range-below", "fib-float", "power-float", "range-float"])
    def test_outside_refused(self, call):
        with pytest.raises(DomainError):
            call()


def random_bits(rng: random.Random, bits: int) -> int:
    """A random non-negative int of exactly `bits` bits."""
    return (1 << bits - 1) | rng.getrandbits(bits - 1) if bits else 0


class TestToomProduct:
    """core._mul against the plain product, from below the cutoff C to three levels of Toom-3."""

    SIZES = [0, 1, C - 1, C, C + 1, 3 * C, 9 * C, 27 * C]

    @pytest.mark.parametrize("bits", SIZES)
    def test_every_sign_and_zero(self, bits):
        rng = random.Random(bits)
        a, b = random_bits(rng, bits), random_bits(rng, bits)
        for x, y in [(sa * a, sb * b) for sa in (1, -1) for sb in (1, -1)] + [(a, 0), (0, -b)]:
            product = _mul(x, y)
            assert type(product) is int and product == x * y, (bits, x < 0, y < 0)

    @pytest.mark.parametrize("short", [C, C + 1, 2 * C])
    def test_one_operand_far_shorter(self, short):
        # the short operand's upper limbs are zero, or all of it sits in the lowest limb
        rng = random.Random(short)
        a, b = random_bits(rng, 27 * C), random_bits(rng, short)
        for x, y in ((a, b), (-b, a), (a, 1 << short - 1), (-(1 << 9 * C), b)):
            product = _mul(x, y)
            assert type(product) is int and product == x * y

    @pytest.mark.parametrize("bits", SIZES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_square_stays_a_square_at_every_level(self, bits, sign, monkeypatch):
        calls = []

        def spy(a, b):
            calls.append(a is b)
            return _mul(a, b)

        monkeypatch.setattr(core, "_mul", spy)
        x = sign * random_bits(random.Random(bits), bits)
        assert core._mul(x, x) == x * x
        assert all(calls) and (len(calls) > 1) == (bits >= C)

    def test_crossing_indices_straddle_the_cutoff(self):
        assert fib_linear(TOOM_K - 1).bit_length() < C <= fib_linear(TOOM_K).bit_length()


class TestRatioSeries:
    """core._ratio_series' return: the rounded sum, the terms summed and the tail bound."""

    @pytest.mark.parametrize("length", [4, 10])
    def test_stream_run_out_unproven(self, length):
        # t_k = 2^-k, never proven: with cap 3 the terms past t_3 are skipped, and no tail is bounded
        steps = [(1, 0, 0, 2, False, 1)] * length
        value, terms, tail = _ratio_series(iter(steps), 60, 1, 113, cap=3)
        assert mp.make_mpc(value) == mp.mpf(15) / 8
        assert terms == 4 and mp.make_mpf(tail) == mp.inf


def nearest_double(x: ZPhi, dps: int = 80) -> float:
    """Reference: the double nearest to a + b*phi, from an mpmath value at `dps` digits."""
    with mp.workdps(dps):
        value = mp.mpf(x.a) + mp.mpf(x.b) * mp.phi
        return mpmath.libmp.to_float(value._mpf_, rnd=mpmath.libmp.round_nearest)


def _coordinate(rng: random.Random) -> int:
    """A random int of up to 30 digits, its size drawn first."""
    bound = 10 ** rng.randint(0, 30)
    return rng.randint(-bound, bound)


class TestFloatConversion:
    """float(ZPhi) is the double nearest to a + b*phi."""

    @pytest.mark.parametrize("n", range(-60, 61))
    def test_symmetric_gaps(self, n):
        # phi^n - phi^(-n); the sum a + b*phi rounded twice missed n = ±14, ±20, ±30, ±38.
        x = phi_power_exact(n) - phi_power_exact(-n)
        assert float(x) == nearest_double(x)

    def test_random_field_elements(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            x = ZPhi(_coordinate(rng), _coordinate(rng))
            assert float(x) == nearest_double(x, dps=120), x

    @pytest.mark.parametrize("n", [40, 200, 1000])
    def test_cancelling_coordinates(self, n):
        # phi^-n has coordinates near phi^n / sqrt(5) and a value near phi^-n.
        x = phi_power_exact(-n)
        assert float(x) == nearest_double(x, dps=n // 2 + 80)

    def test_rational_elements(self):
        rng = random.Random(20261020)
        for a in (0, -7, 1, *(_coordinate(rng) for _ in range(500))):
            x = ZPhi(a, 0)
            assert float(x) == float(a) == nearest_double(x), a


class TestNonIntegerArguments:
    """A non-integer index or count is refused with DomainError, not a bare TypeError."""

    @pytest.mark.parametrize("call", [
        lambda: fib_range(0, 2.5),
        lambda: ratio_sequence(2.5),
        lambda: casimir_ratio(3.5),
    ], ids=["fib_range-hi", "ratio_sequence", "casimir_ratio"])
    def test_refused(self, call):
        with pytest.raises(DomainError, match="integer"):
            call()
