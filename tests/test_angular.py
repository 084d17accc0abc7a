"""Deformed angular momentum: ladder actions, Casimirs, tilde and symmetric variants."""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from goldencalc import angular
from goldencalc.angular import (
    build_suF2,
    build_symmetric,
    build_tilde,
    casimir_ratio,
    casimir_suF2,
    double_boson_action,
    verify_commutators,
    verify_symmetric,
    verify_tilde,
)
from goldencalc.core import DomainError, fib_exact
from goldencalc.oscillator import WeightedShift


class TestBuildSuF2:
    def test_j1_raising(self):
        rep = build_suF2(1)
        # J+|1,0> = sqrt(F_1 F_2)|1,1> = |1,1>
        assert rep.j_plus[2, 1] == 1.0
        assert rep.j_plus[1, 0] == 1.0  # sqrt(F_2 F_1)

    def test_top_state_annihilated(self):
        for j in (1, 2, Fraction(5, 2)):
            rep = build_suF2(j)
            assert np.max(np.abs(rep.j_plus[:, -1])) == 0.0

    def test_smallest_representation(self):
        rep = build_suF2(Fraction(1, 2))
        assert rep.j_plus[1, 0] == 1.0  # sqrt(F_1 F_1)

    def test_jz_diagonal(self):
        rep = build_suF2(2)
        assert np.allclose(np.diag(rep.j_z).real, [-2, -1, 0, 1, 2])

    def test_adjoint(self):
        rep = build_suF2(3)
        assert np.array_equal(rep.j_minus, rep.j_plus.conj().T)

    def test_invalid_spin(self):
        with pytest.raises(DomainError):
            build_suF2(Fraction(1, 3))
        with pytest.raises(DomainError):
            build_suF2(26)


class TestCasimir:
    def test_integer_eigenvalues(self):
        assert casimir_suF2(1).eigenvalue == pytest.approx(-1)   # (-1)^{-1} F_1 F_2
        assert casimir_suF2(2).eigenvalue == pytest.approx(2)    # F_2 F_3
        assert casimir_suF2(3).eigenvalue == pytest.approx(-6)   # -F_3 F_4

    def test_forms_agree_and_constant(self):
        for twice_j in range(1, 13):
            res = casimir_suF2(Fraction(twice_j, 2))
            assert res.form_difference < 1e-12
            assert res.eigenvalue_deviation < 1e-12

    def test_ratio_sequence(self):
        seq = casimir_ratio(4)
        assert [float(r) for r in seq] == [-2.0, -3.0, -2.5]

    def test_ratio_converges(self):
        seq = casimir_ratio(30)
        with mp.workdps(34):
            phi = (1 + mp.sqrt(5)) / 2
            assert abs(seq[-1] + phi ** 2) < mp.mpf("1e-10")

    def test_guard(self):
        with pytest.raises(DomainError):
            casimir_ratio(2)


class TestCommutators:
    def test_exact_identity_example(self):
        # F_3 F_2 - F_1 F_4 = -1 = (-1)^1 F_2 at (j=2, m=1)
        assert fib_exact(3) * fib_exact(2) - fib_exact(1) * fib_exact(4) == -1

    def test_zero_weight(self):
        rep = verify_commutators(2)
        assert rep.passed  # includes m = 0 entry, which is F_0 = 0

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_exact_identity_everywhere(self, j, m_raw):
        m = min(j, m_raw)
        lhs = fib_exact(j + m) * fib_exact(j - m + 1) - fib_exact(j - m) * fib_exact(j + m + 1)
        sign = -1 if (j - m) % 2 else 1
        assert lhs == sign * fib_exact(2 * m)

    def test_matrix_residuals(self):
        for j in (1, 2, 5, Fraction(7, 2)):
            rep = verify_commutators(j)
            assert rep.passed
            assert rep.max_ladder_residual < 1e-12


class TestDoubleBoson:
    def test_raise_matches_jm_picture(self):
        amp, state = double_boson_action(1, 1, "plus")
        assert amp == 1.0 and state == (2, 0)

    def test_annihilation_cases(self):
        amp, state = double_boson_action(0, 3, "minus")
        assert amp == 0.0 and state == (0, 3)
        amp, _ = double_boson_action(4, 0, "plus")
        assert amp == 0.0

    def test_z_eigenvalue(self):
        amp, state = double_boson_action(3, 1, "z")
        assert amp == Fraction(1) and state == (3, 1)
        assert double_boson_action(2, 1, "z")[0] == Fraction(1, 2)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_relabeling(self, n1, n2):
        if n1 + n2 == 0:
            return
        j = Fraction(n1 + n2, 2)
        m = Fraction(n1 - n2, 2)
        rep = build_suF2(j)
        k = int(m + j)
        amp, _ = double_boson_action(n1, n2, "plus")
        if n2 > 0:
            assert amp == rep.j_plus[k + 1, k].real
        amp, _ = double_boson_action(n1, n2, "minus")
        if n1 > 0:
            assert amp == rep.j_minus[k - 1, k].real

    def test_negative_occupation_rejected(self):
        with pytest.raises(DomainError):
            double_boson_action(-1, 0, "plus")

    def test_total_occupation_bounded_by_largest_spin(self):
        assert double_boson_action(25, 25, "plus")[1] == (26, 24)
        for n1, n2, which in [(800, 800, "plus"), (26, 25, "minus"), (0, 51, "z")]:
            with pytest.raises(DomainError, match="must not exceed 50"):
                double_boson_action(n1, n2, which)


class TestSymmetricVariant:
    def test_basic_numbers(self):
        # the squared weights are [j-m][j+m+1]: [1][1] = 1 at j = 1/2, and
        # [2][1] = i (phi^2 - phi^-2) = i sqrt(5) at j = 1
        assert build_symmetric(Fraction(1, 2)).shift.sq == (1,)
        assert build_symmetric(1).shift.sq == pytest.approx((1j * sqrt(5),) * 2)

    def test_basic_number_range(self):
        # odd n: [n] = i^(n-1) L_n, an exact integer; the top spin reaches [2 MAX_J] = [50]
        assert build_symmetric(Fraction(49, 2)).shift.sq[0] == 17393796001  # [49][1] = L_49
        top = build_symmetric(25).shift.sq[0]  # [50][1] = i (phi^50 - phi^-50) = i sqrt(5) F_50
        assert top == pytest.approx(1j * sqrt(5) * fib_exact(50), rel=1e-15)
        with pytest.raises(DomainError, match="2j must not exceed 50"):
            build_symmetric(Fraction(51, 2))

    def test_commutator_residual_reported(self):
        rep = verify_symmetric(1)
        # the natural construction misses the target by the unit phase i^{2j-1}
        assert rep.residual > 1.0
        assert rep.residual == pytest.approx(abs(1j - 1) * sqrt(5), rel=1e-9)

    def test_both_written_targets_are_one_number(self):
        # the phase form [2m]_{i phi, i/phi} i^{1-2m} of the target, from the complex bases themselves
        phi = (1 + sqrt(5)) / 2
        basic = lambda t: ((1j * phi) ** t - (1j / phi) ** t) / (1j * phi - 1j / phi)
        for j in (Fraction(1, 2), 1, Fraction(7, 2), 25):
            rep = build_symmetric(j)
            comm = np.diag(rep.j_plus @ rep.j_minus - rep.j_minus @ rep.j_plus)
            ms = [k - j for k in range(len(comm))]
            phase_form = max(abs(c - basic(int(2 * m)) * 1j ** int(1 - 2 * m)) for c, m in zip(comm, ms))
            assert verify_symmetric(j).residual == pytest.approx(phase_form, rel=1e-9)

    def test_z_commutators_still_hold(self):
        rep = build_symmetric(2)
        assert np.max(np.abs(rep.j_z @ rep.j_plus - rep.j_plus @ rep.j_z - rep.j_plus)) < 1e-12

    def test_phase_structure_of_commutator(self):
        # [J+, J-] equals the real target times i^{2j-1}
        for j in (1, 2, 3):
            rep = build_symmetric(j)
            comm = rep.j_plus @ rep.j_minus - rep.j_minus @ rep.j_plus
            ms = [m - j for m in range(2 * j + 1)]
            phi = (1 + sqrt(5)) / 2
            target = np.diag([(phi ** (2 * m) - phi ** (-2 * m)) for m in ms])
            phase = 1j ** (2 * j - 1)
            assert np.max(np.abs(comm - phase * target)) < 1e-10


class TestTildeVariant:
    def test_anticommutator_zero_weight(self):
        rep = build_tilde(1)
        anti = rep.j_plus @ rep.j_minus + rep.j_minus @ rep.j_plus
        k0 = 1  # m = 0 index
        assert abs(anti[k0, k0]) < 1e-12  # F_0 = 0

    def test_anticommutator_diagonal(self):
        rep = build_tilde(2)
        anti = rep.j_plus @ rep.j_minus + rep.j_minus @ rep.j_plus
        # m = 1 entry is F_2 = 1
        assert abs(anti[3, 3] - 1.0) < 1e-12
        off = anti - np.diag(np.diag(anti))
        assert np.max(np.abs(off)) < 1e-12

    def test_full_reports(self):
        for twice_j in range(1, 11):
            rep = verify_tilde(Fraction(twice_j, 2))
            assert rep.passed, rep.failures

    def test_casimir_eigenvalue_closed_form(self):
        # both written forms agree with the eigenvalue; the second printed closed form holds
        j = 2
        rep = verify_tilde(j)
        assert rep.casimir_form_difference == rep.casimir_eigenvalue_deviation == 0
        diagonal = np.diag(build_tilde(j).casimir)
        for k, m in enumerate(range(-j, j + 1)):
            sign_j = -1 if j % 2 else 1
            sign_m = -1 if m % 2 else 1
            second_form = (sign_j * fib_exact(j - m + 1) * fib_exact(j + m)
                           - sign_m * fib_exact(m) * fib_exact(m - 1))
            assert abs(diagonal[k] - second_form) < 1e-12
        # constant on the representation: (-1)^j F_j F_{j+1}
        assert np.allclose(np.real(diagonal), fib_exact(2) * fib_exact(3))

    def test_casimir_values_exact(self):
        # the exact value at integer j, and one rounding per part at half-integer j
        assert np.diag(build_tilde(2).casimir).tolist() == [fib_exact(2) * fib_exact(3)] * 5
        # m = 1/2: (-1)^(1/2) F_(1/2) F_(3/2) + (-1)^(3/2) F_1 F_3 = i (L_2 - i) / 5 - 2i
        assert build_tilde(Fraction(3, 2)).casimir[2, 2] == complex(0.2, -1.4)

    def test_hermiticity_broken_by_phases_only(self):
        rep = build_tilde(3)
        adjoint = rep.j_plus.conj().T
        assert not np.allclose(adjoint, rep.j_minus)
        assert np.allclose(np.abs(adjoint), np.abs(rep.j_minus))


BUILDERS = (build_suF2, build_symmetric, build_tilde)


class TestDispatch:
    def test_variants(self):
        assert [build(1).variant for build in BUILDERS] == ["standard_F", "symmetric_iphi", "tilde_F"]

    def test_z_commutator_invariant_all_variants(self):
        for build in BUILDERS:
            rep = build(Fraction(3, 2))
            res = np.max(np.abs(rep.j_z @ rep.j_plus - rep.j_plus @ rep.j_z - rep.j_plus))
            assert res < 1e-12


def _binet(x: Fraction) -> mp.mpc:
    """F_x = (phi^x - e^{i pi x} phi^(-x)) / sqrt(5), the principal branch."""
    xv = mp.mpf(x.numerator) / x.denominator
    phi = (1 + mp.sqrt(5)) / 2
    return (mp.power(phi, xv) - mp.expjpi(xv) * mp.power(phi, -xv)) / mp.sqrt(5)


SPINS = [Fraction(t, 2) for t in range(51)]


class TestWholeDomain:
    """Conformance for every spin the library accepts, 0 <= j <= 25 in half steps."""

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_reports_pass_at_default_tolerance(self, j):
        assert verify_commutators(j).passed
        assert verify_tilde(j).passed

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_tilde_casimir_forms_are_the_eigenvalue(self, j):
        # verify_tilde compares both written forms with the closed eigenvalue exactly;
        # the stored form matches (-1)^m F_m F_{m+1} + (-1)^j F_{j-m} F_{j+m+1} from Binet
        rep = verify_tilde(j)
        assert rep.casimir_form_difference == rep.casimir_eigenvalue_deviation == 0
        diagonal = np.diag(build_tilde(j).casimir)
        ms = [m - j for m in range(int(2 * j) + 1)]
        assert len(diagonal) == len(ms)
        with mp.workdps(30):
            for value, m in zip(diagonal, ms):
                closed = (mp.expjpi(m.numerator / mp.mpf(m.denominator)) * _binet(m) * _binet(m + 1)
                          + mp.expjpi(j.numerator / mp.mpf(j.denominator)) * _binet(j - m) * _binet(j + m + 1))
                assert abs(value - complex(closed)) <= 1e-15 * max(abs(closed), 1)

    @pytest.mark.parametrize("check", [verify_commutators, verify_tilde], ids=lambda f: f.__name__)
    def test_corrupted_weight_names_its_states(self, monkeypatch, check):
        ladder = angular._ladder

        def corrupted(n, fib, tilde):
            shift = ladder(n, fib, tilde)
            sq = list(shift.sq)
            sq[2] += 1  # the step from m = -1/2 to m = 1/2 at j = 5/2
            return WeightedShift(tuple(sq), shift.turns)

        monkeypatch.setattr(angular, "_ladder", corrupted)
        report = check(Fraction(5, 2))
        assert not report.passed
        named = {f.split(" at ")[1].split(":")[0] for f in report.failures}
        assert named == {"(j=5/2, m=-1/2)", "(j=5/2, m=1/2)"}

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_casimir_forms_exact(self, j):
        result, tilde = casimir_suF2(j), verify_tilde(j)
        assert result.form_difference == result.eigenvalue_deviation == 0.0
        assert tilde.casimir_form_difference == tilde.casimir_eigenvalue_deviation == 0.0
        with mp.workdps(50):
            ref = mp.expjpi(-mp.mpf(j.numerator) / j.denominator) * _binet(j) * _binet(j + 1)
            ref = mp.chop(ref, mp.mpf(10) ** -40)
        assert result.eigenvalue == complex(ref)

    def test_neighbour_product_closed_form(self):
        """5 F_m F_(m+1) = L_(2m+1) - i^(2m) against Binet, every 2m the Casimir forms read."""
        for twice_m in range(-52, 53):
            m = Fraction(twice_m, 2)
            closed = fib_exact(twice_m) + fib_exact(twice_m + 2) - 1j ** (twice_m % 4)
            with mp.workdps(50):
                binet = 5 * _binet(m) * _binet(m + 1)
                assert abs(binet - closed) <= mp.mpf(10) ** -40 * max(abs(binet), 1)

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_lattice_index(self, j):
        """Weights, tilde turns and j_z state by state: the weights alone are a palindrome."""
        fibs = [0, 1]
        while len(fibs) < 2 * j + 2:
            fibs.append(fibs[-1] + fibs[-2])  # F_0 .. F_(2j+1)
        ms = [k - j for k in range(int(2 * j) + 1)]
        weights = tuple(fibs[int(j - m)] * fibs[int(j + m + 1)] for m in ms[:-1])
        assert build_suF2(j).shift.sq == weights
        tilde = build_tilde(j).shift
        assert tilde.sq == weights
        assert tilde.turns == tuple((1 - int(j - m)) % 4 for m in ms[:-1])
        for build in BUILDERS:
            j_z = build(j).j_z
            assert np.array_equal(j_z, np.diag([complex(m) for m in ms]))

    @pytest.mark.parametrize("j", SPINS, ids=str)
    def test_casimir_eigenvalue(self, j):
        result = casimir_suF2(j)
        if j.denominator == 1:
            jj = int(j)
            expected = (-1) ** jj * fib_exact(jj) * fib_exact(jj + 1)
        else:
            with mp.workdps(34):
                expected = complex(mp.expjpi(-mp.mpf(j.numerator) / 2) * _binet(j) * _binet(j + 1))
        assert abs(result.eigenvalue - expected) <= 1e-12 * fib_exact(int(2 * j) + 1)
