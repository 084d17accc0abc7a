"""Ladder matrices, deformed algebra, spectrum, inversion, boson map."""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from math import isfinite, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from goldencalc import oscillator
from goldencalc.binomials import fib_factorial
from goldencalc.core import MAX_FIB_INDEX, DomainError, fib_exact
from goldencalc.oscillator import (
    MAX_SPECTRUM_INDEX,
    LadderSet,
    WeightedShift,
    build_ladder,
    diagonal_identities_exact,
    hamiltonian,
    invert_number,
    spectrum,
    verify_oscillator_algebra,
)


class TestBuildLadder:
    def test_subdiagonal_entries(self):
        lad = build_ladder(3)
        assert np.allclose(np.diag(lad.b_dag, -1), [1.0, 1.0])  # sqrt(F_1), sqrt(F_2)

    def test_vacuum_annihilated(self):
        for dim in (2, 5, 30):
            assert np.all(build_ladder(dim).b[:, 0] == 0)

    def test_lowering_diagonal_is_fibonacci(self):
        lad = build_ladder(8)
        diag = np.diag(lad.b_dag @ lad.b).real
        assert np.allclose(diag, [fib_exact(n) for n in range(8)])

    def test_raising_diagonal_interior(self):
        # bb+ = F_{n+1} on interior states; [F_1, F_2] = [1, 1] at the bottom
        lad = build_ladder(3)
        diag = np.diag(lad.b @ lad.b_dag).real
        assert diag[0] == 1.0 and diag[1] == 1.0
        lad2 = build_ladder(2)
        assert np.diag(lad2.b @ lad2.b_dag).real[0] == 1.0

    def test_adjoint_pair(self):
        lad = build_ladder(6)
        assert np.array_equal(lad.b_dag, lad.b.conj().T)

    def test_immutable(self):
        lad = build_ladder(4)
        with pytest.raises(ValueError):
            lad.b[0, 0] = 1.0

    def test_guards(self):
        with pytest.raises(DomainError):
            build_ladder(1)
        with pytest.raises(DomainError):
            build_ladder(201)


class TestAlgebraVerification:
    def test_dim_12_within_tolerance(self):
        report = verify_oscillator_algebra(12)
        assert report.passed
        assert max(report.residuals.values()) < 1e-12

    def test_minimal_dimension(self):
        assert verify_oscillator_algebra(3).passed

    def test_corrupted_entry_detected(self, monkeypatch):
        def bad_ladder(dim):
            shift = build_ladder(dim).shift
            sq = list(shift.sq)
            sq[1] += 1  # F_2 + 1
            return LadderSet(WeightedShift(tuple(sq), shift.turns))

        monkeypatch.setattr(oscillator, "build_ladder", bad_ladder)
        report = verify_oscillator_algebra(10)
        assert not report.passed
        # the weight of the step 1 -> 2 enters b b+ at state 1 and b+b at state 2
        assert [f.split(":")[0] for f in report.failures] == [
            f"{name} at state {n}" for name in ("deformed_commutator_minus", "deformed_commutator_plus",
                                                "fibonacci_recurrence") for n in (1, 2)]
        assert max(report.residuals.values()) == pytest.approx(1.6180339887498949)  # phi at state 2

    def test_exact_diagonal_identities(self):
        assert diagonal_identities_exact(100)

    def test_diagonal_identities_bound(self):
        assert diagonal_identities_exact(0)
        with pytest.raises(DomainError):
            diagonal_identities_exact(MAX_FIB_INDEX)


class TestSpectrum:
    def test_printed_levels(self):
        table = spectrum(3, 1)
        assert [e for _, e in table.levels] == [
            Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)]

    def test_ground_state_scale(self):
        table = spectrum(0, Fraction(3, 7))
        assert table.levels[0][1] == Fraction(3, 14)

    def test_level_ten(self):
        assert spectrum(10, 1).levels[10][1] == Fraction(fib_exact(12), 2) == 72

    def test_gap_recurrence(self):
        table = spectrum(20, 1)
        for n in range(20):
            gap = table.levels[n + 1][1] - table.levels[n][1]
            assert gap == Fraction(fib_exact(n + 1), 2)

    @given(st.integers(0, 60))
    def test_level_closed_form(self, n):
        table = spectrum(n, 2)
        assert table.levels[n][1] == fib_exact(n + 2)

    def test_ratios_exact(self):
        assert spectrum(3, 1).ratios == (Fraction(2), Fraction(3, 2), Fraction(5, 3))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 1000])
    @pytest.mark.parametrize("arg, hw", [(1, Fraction(1)), (Fraction(7, 3), Fraction(7, 3)),
                                         (Fraction(1, 10), Fraction(1, 10)), (Fraction(5, 2), Fraction(5, 2))],
                             ids=["1", "7/3", "0.1", "5/2"])
    def test_exact_at_bound(self, n_max, arg, hw):
        table = spectrum(n_max, arg)
        assert table.hbar_omega == hw
        assert len(table.levels) == n_max + 1 and len(table.ratios) == n_max
        for n in range(n_max + 1):
            assert table.levels[n] == (n, hw * fib_exact(n + 2) / 2)
        for n in range(n_max):
            assert table.ratios[n] == Fraction(fib_exact(n + 3), fib_exact(n + 2))


class TestSpectrumArguments:
    """A hbar_omega that is not a positive int or Fraction is refused with DomainError."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "1/0",
                                       complex(1, 0), mp.inf, mp.nan, Decimal("Infinity"),
                                       None, "abc"],
                             ids=["nan", "inf", "-inf", "1/0", "complex", "mp.inf", "mp.nan",
                                  "Decimal-inf", "None", "text"])
    def test_refused(self, value):
        with pytest.raises(DomainError, match="^hbar_omega must be an int or a Fraction, not "):
            spectrum(3, value)

    @pytest.mark.parametrize("value", [0, -1, Fraction(-1, 2), Fraction(-3, 2), Fraction(0)],
                             ids=["0", "-1", "-0.5", "-3/2", "value5"])
    def test_not_positive(self, value):
        with pytest.raises(DomainError, match="hbar_omega must be positive"):
            spectrum(3, value)


SEED_RATIOS = (Fraction(2),)  # r_0 = F_3 / F_2, the table a fresh interpreter holds


@pytest.fixture(scope="module")
def reference_fibs():
    return [fib_exact(k) for k in range(MAX_SPECTRUM_INDEX + 3)]


def _assert_reference(table, n_max, hw, fibs):
    assert table.hbar_omega == hw
    assert table.levels == tuple((n, hw * fibs[n + 2] / 2) for n in range(n_max + 1))
    assert table.ratios == tuple(Fraction(fibs[n + 3], fibs[n + 2]) for n in range(n_max))


class TestSharedRatioTable:
    """spectrum slices one per-process ratio table; its contents never depend on call order."""

    SIZES = [0, 1, 2, 3, 17, 500, 999, 1000]
    HBAR_OMEGAS = [(1, Fraction(1)), (Fraction(6, 4), Fraction(3, 2)), (Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(7, 3), Fraction(7, 3)), (20, Fraction(20))]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("arg, hw", HBAR_OMEGAS, ids=["1", "6/4", "0.5", "7/3", "20"])
    def test_any_call_order(self, monkeypatch, reference_fibs, order, arg, hw):
        monkeypatch.setattr(oscillator, "_RATIOS", SEED_RATIOS)
        sizes = {"ascending": sorted(self.SIZES), "descending": sorted(self.SIZES, reverse=True),
                 "shuffled": random.Random(f"{order}{hw}").sample(self.SIZES, len(self.SIZES))}[order]
        for n_max in sizes:
            _assert_reference(spectrum(n_max, arg), n_max, hw, reference_fibs)
            assert len(oscillator._RATIOS) <= MAX_SPECTRUM_INDEX
        with pytest.raises(DomainError, match="n_max must not exceed"):
            spectrum(MAX_SPECTRUM_INDEX + 1)
        assert len(oscillator._RATIOS) == MAX_SPECTRUM_INDEX

    def test_refusal_does_not_grow_the_table(self, monkeypatch):
        monkeypatch.setattr(oscillator, "_RATIOS", SEED_RATIOS)
        for n_max, hw in [(MAX_SPECTRUM_INDEX + 1, 1), (500, 0), (500, "x"), (-1, 1)]:
            with pytest.raises(DomainError):
                spectrum(n_max, hw)
        assert oscillator._RATIOS == SEED_RATIOS

    def test_concurrent_growth(self, monkeypatch, reference_fibs):
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the growth loop too
        try:
            for _ in range(5):
                monkeypatch.setattr(oscillator, "_RATIOS", SEED_RATIOS)
                start = threading.Barrier(4)

                def call(n_max):
                    start.wait(timeout=60)
                    return n_max, spectrum(n_max, Fraction(7, 3))

                with ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(pool.map(call, [1000, 500, 1000, 500], timeout=120))
                for n_max, table in results:
                    _assert_reference(table, n_max, Fraction(7, 3), reference_fibs)
                assert len(oscillator._RATIOS) in (500, MAX_SPECTRUM_INDEX)
        finally:
            sys.setswitchinterval(old_interval)


class TestEnergyRatios:
    """The level ratios E_(n+1)/E_n = F_(n+3)/F_(n+2) of `spectrum`, exact, converge to phi."""

    def test_first_values(self):
        seq = spectrum(2).ratios
        assert seq == (2, Fraction(3, 2))  # F_3 / F_2, F_4 / F_3

    def test_converges_to_phi(self):
        seq = spectrum(31).ratios
        with mp.workdps(34):
            assert abs(mp.mpf(seq[30].numerator) / seq[30].denominator - mp.phi) < mp.mpf("1e-12")

    def test_envelope_decreases(self):
        with mp.workdps(34):
            errs = [abs(mp.mpf(r.numerator) / r.denominator - mp.phi) for r in spectrum(26).ratios]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


class TestInvertNumber:
    def test_examples(self):
        assert invert_number(55, "even") == 10
        assert invert_number(13, "odd") == 7

    def test_degenerate_unit(self):
        assert invert_number(1, "odd") == 1
        assert invert_number(1, "even") == 2

    @given(st.integers(3, 60))
    def test_round_trip(self, n):
        parity = "even" if n % 2 == 0 else "odd"
        assert invert_number(fib_exact(n), parity) == n

    def test_large_value(self):
        assert invert_number(fib_exact(301), "odd") == 301

    @pytest.mark.parametrize("n", [30000, 30001])
    def test_past_int_to_str_limit(self, n):
        # F_30000 has 6270 digits, past the interpreter's default 4300-digit str() limit.
        assert invert_number(fib_exact(n), "odd" if n % 2 else "even") == n

    def test_rejects_non_fibonacci(self):
        with pytest.raises(DomainError):
            invert_number(4, "even")

    def test_rejects_wrong_parity(self):
        with pytest.raises(DomainError):
            invert_number(13, "even")  # 13 = F_7, odd index

    def test_rejects_bad_parity_label(self):
        with pytest.raises(DomainError):
            invert_number(13, "both")


# log-spaced indices from 10^3.25 to 10^6, each with its odd or even neighbour below
_LOG_SPACED = [n - d for n in sorted({round(10 ** (k / 4)) for k in range(13, 25)}) for d in (0, 1)]


class TestInvertNumberWholeDomain:
    """The plus branch at DEFAULT_DPS + GUARD_DPS digits, over the whole index domain."""

    def test_every_small_index(self):
        f, f_next = 1, 1  # F_1, F_2
        for n in range(1, 3001):
            assert invert_number(f, "odd" if n % 2 else "even") == n
            f, f_next = f_next, f + f_next

    @pytest.mark.parametrize("n", _LOG_SPACED)
    def test_log_spaced_index(self, n):
        assert invert_number(fib_exact(n), "odd" if n % 2 else "even") == n

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_neighbours_of_largest_refused(self, delta):
        with pytest.raises(DomainError, match="not a Fibonacci number"):
            invert_number(fib_exact(MAX_FIB_INDEX) + delta, "even")

    def test_index_past_bound_refused(self):
        past = fib_exact(MAX_FIB_INDEX) + fib_exact(MAX_FIB_INDEX - 1)  # F_(MAX_FIB_INDEX + 1)
        with pytest.raises(DomainError, match="not a Fibonacci number with odd index"):
            invert_number(past, "odd")


class TestFockSpace:
    def test_normalization(self):
        dim = 12
        lad = build_ladder(dim)
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = 1.0
        for n in range(1, dim):
            vec = lad.b_dag @ vec
            norm = np.linalg.norm(vec) / sqrt(fib_factorial(n))
            assert abs(norm - 1.0) < 1e-12

    def test_number_operator_not_lowering_product(self):
        lad = build_ladder(12)
        diag = np.diag(lad.b_dag @ lad.b).real
        gaps = [abs(diag[n] - n) for n in range(3, 11)]
        assert max(gaps) >= 1.0

    def test_hamiltonian_matches_spectrum(self):
        lad = build_ladder(12)
        h = hamiltonian(lad)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        table = spectrum(10, 1)
        for n, energy in table.levels:
            assert abs(h[n, n].real - float(energy)) < 1e-12 * float(energy)


def _hamiltonian_diagonal(dim: int) -> np.ndarray:
    """diag(F_2, ..., F_dim, F_(dim-1)): b+b + bb+ on a ladder truncated at dim."""
    return np.diag(np.array([fib_exact(n + 2) for n in range(dim - 1)] + [fib_exact(dim - 1)],
                            dtype=np.complex128))


class TestHamiltonianArguments:
    """hamiltonian is half the exact diagonal in complex128, in units of hbar*omega.

    A scale is the caller's: float(hw) * hamiltonian(ladder) has the bytes of
    float(hw) / 2 times the diagonal wherever that scale is a normal double and
    no entry overflows.
    """

    @pytest.mark.parametrize("dim", [4, 200])
    def test_smallest_normal_scale_kept(self, dim):
        h = 2 * sys.float_info.min * hamiltonian(build_ladder(dim))
        assert h.tobytes() == (sys.float_info.min * _hamiltonian_diagonal(dim)).tobytes()
        assert np.all(np.abs(np.diag(h)) >= sys.float_info.min)  # every entry stays normal

    @pytest.mark.parametrize("value, scale", [(1, 0.5), ("6/4", 0.75), (Fraction(1, 3), 1 / 6),
                                              (Fraction(7, 3), 7 / 6)],
                             ids=["1", "6/4", "1/3", "7/3"])
    def test_rationals_scale_in_float(self, value, scale):
        h = float(Fraction(value)) * hamiltonian(build_ladder(12))
        assert h.dtype == np.complex128
        assert h.tobytes() == (scale * _hamiltonian_diagonal(12)).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 50, 200])
    @pytest.mark.parametrize("value", [1.0, 1, Fraction(7, 3), 2.5, 1e-300, 1e300, "1/3"],
                             ids=["1.0", "1", "7/3", "2.5", "1e-300", "1e300", "'1/3'"])
    def test_same_array_as_scaling_the_dense_matrix(self, dim, value):
        # the scale times half the exact diagonal, against half the scale times the dense complex128 matrix
        hw = float(Fraction(str(value)) if isinstance(value, float) else Fraction(value))
        base, dense = hamiltonian(build_ladder(dim)), _hamiltonian_diagonal(dim)
        assert (base.dtype, base.shape, base.flags.writeable) == (dense.dtype, dense.shape, dense.flags.writeable)
        with np.errstate(over="ignore"):
            h, dense = hw * base, hw / 2 * dense
        if not isfinite(hw / 2 * fib_exact(dim)):
            assert not np.all(np.isfinite(h))  # past the float range the product overflows
            return
        assert h.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("dim", [2, 12, 200])
    def test_float_sweep_bit_identical(self, dim):
        """Every finite positive float x with x / 2 a normal double scales as x / 2 times the diagonal."""
        rng = random.Random(dim)
        base = _hamiltonian_diagonal(dim)
        top = float(fib_exact(dim))  # the largest entry
        tiny, huge = 5e-324, sys.float_info.max
        floats = [tiny, 2 * tiny, 1e-310, 0.1, 1 / 3, 2 / 3, 1.0, 2.0, 1e16 + 2, 1e250, huge]
        floats += [float.fromhex(f"0x1.{rng.getrandbits(52):013x}p{rng.randint(-1074, 1023)}")
                   for _ in range(1000)]
        h = hamiltonian(build_ladder(dim))
        for x in floats:
            if x / 2 >= sys.float_info.min and isfinite(x / 2 * top):
                assert (x * h).tobytes() == (x / 2 * base).tobytes(), x


class TestWholeDomain:
    """Conformance over every truncation the library accepts."""

    def test_algebra_exact_at_every_dimension(self):
        for dim in range(3, 201):
            report = verify_oscillator_algebra(dim)
            assert report.passed, (dim, report.failures)
            assert all(r == 0.0 for r in report.residuals.values()), (dim, report.residuals)

    def test_hamiltonian_exact_at_largest_dimension(self):
        dim = 200
        h = hamiltonian(build_ladder(dim))
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        for n in range(dim - 1):
            assert h[n, n] == fib_exact(n + 2) / 2
