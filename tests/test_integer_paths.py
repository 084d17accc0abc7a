"""The shared Fibonacci table and the integer-coordinate deformed identities agree
with the paths they replaced.

Each reference below is the earlier way to compute the same quantity, kept
inline: the Lucas walk followed by the linear recurrence for every Fibonacci
range, running products of ZPhi objects for the right-hand sides of the
oscillator's deformed relations, and ZPhi arithmetic for the verifier's
subtraction law and scaled polynomial samples.  Values, types, reports and
failure messages must match.
"""

from __future__ import annotations

import random
import re

import pytest

from goldencalc import core, oscillator
from goldencalc.angular import MAX_J, build_suF2, casimir_ratio
from goldencalc.binomials import MAX_FACTORIAL_INDEX, UnivarPoly, fib_factorial
from goldencalc.calculus import (
    derive_poly,
    golden_derivative,
    golden_taylor,
    jackson_antiderivative,
    taylor_reconstruct,
)
from goldencalc.cli import EXIT_DOMAIN, run_command
from goldencalc.core import _FIB_TABLE_INDEX as T
from goldencalc.core import (
    MAX_FIB_INDEX,
    MAX_RATIO_INDEX,
    DomainError,
    ZPhi,
    _fib_lucas,
    fib_exact,
    fib_range,
    phi_power_exact,
    ratio_sequence,
)
from goldencalc.oscillator import (
    MAX_LADDER_DIM,
    MAX_SPECTRUM_INDEX,
    LadderSet,
    WeightedShift,
    _deformed_differences,
    diagonal_identities_exact,
    spectrum,
    verify_oscillator_algebra,
)
from goldencalc.verify import SUITES, SuiteContext, _scaled


# ---------------------------------------------------------------------------
# References: the paths the table and the integer coordinates replaced
# ---------------------------------------------------------------------------

def _range_by_walk(lo: int, hi: int) -> list[int]:
    a, lucas = _fib_lucas(lo)
    b = (a + lucas) >> 1
    out = [a]
    for _ in range(lo, hi):
        a, b = b, a + b
        out.append(a)
    return out


def _differences_by_ring(bdb, bbd):
    phi, neg_inv_phi = ZPhi.phi(), ZPhi.phi_conjugate()
    minus_rhs = plus_rhs = ZPhi(1, 0)
    for x, y in zip(bdb, bbd):
        yield ZPhi(y, -x) - minus_rhs, ZPhi(y - x, x) - plus_rhs
        minus_rhs = minus_rhs * neg_inv_phi
        plus_rhs = plus_rhs * phi


def _subtraction_law_by_ring(fibs):
    """The cases of core.subtraction-law from fibs = F_-1 .. F_100, as phi^m F(n) - phi^n F(m) in Z[phi]."""
    powers = [ZPhi(fibs[m], fibs[m + 1]) for m in range(0, 101)]
    for n in range(0, 101):
        for m in range(0, n + 1):
            yield (("(n={}, m={})", n, m),
                   powers[m] * fibs[n + 1] - powers[n] * fibs[m + 1] != (-1) ** m * fibs[n - m + 1])


def _scaled_by_ring(h, step, q):
    total, q_power = 0, 1
    for c in reversed(h.coeffs):
        total, q_power = total * step + c * q_power, q_power * q
    return total


def _same_differences(got, expected):
    """Same length, same truthiness everywhere, the same ZPhi wherever nonzero, the int 0 elsewhere."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for gv, ev in zip(g, e):
            assert bool(gv) == bool(ev)
            if ev:
                assert type(gv) is ZPhi and (gv.a, gv.b) == (ev.a, ev.b)
            else:
                assert type(gv) is int and gv == 0


# ---------------------------------------------------------------------------
# The shared Fibonacci table
# ---------------------------------------------------------------------------

class TestFibTable:
    def test_library_ranges_at_their_bounds_are_sliced_from_the_table(self, monkeypatch):
        def no_walk(lo, hi):
            raise AssertionError(f"walked F_{lo} .. F_{hi}")
        monkeypatch.setattr(core, "_fib_walk", no_walk)
        assert T == MAX_RATIO_INDEX + 3
        casimir_ratio(MAX_RATIO_INDEX, 16)
        ratio_sequence(MAX_RATIO_INDEX, 16)
        spectrum(MAX_SPECTRUM_INDEX)
        fib_factorial(MAX_FACTORIAL_INDEX)
        assert diagonal_identities_exact(MAX_SPECTRUM_INDEX)
        assert verify_oscillator_algebra(MAX_LADDER_DIM).passed
        assert build_suF2(MAX_J).j_plus.shape == (2 * MAX_J + 1, 2 * MAX_J + 1)
        with pytest.raises(AssertionError, match="walked"):
            fib_range(0, T + 1)

    def test_every_range_near_the_edges_and_zero(self):
        ends = sorted({*range(-T - 3, -T + 4), *range(-3, 4), *range(T - 3, T + 4)})
        for lo in ends:
            for hi in ends:
                if lo <= hi:
                    assert fib_range(lo, hi) == _range_by_walk(lo, hi), (lo, hi)

    def test_seeded_ranges_across_the_table(self):
        rng = random.Random("fib-table")
        for _ in range(300):
            lo, hi = sorted(rng.randint(-T, T) for _ in range(2))
            assert fib_range(lo, hi) == _range_by_walk(lo, hi), (lo, hi)

    @pytest.mark.parametrize("lo, hi", [
        (T - 5, T + 1), (0, T + 40), (-T, T + 1), (-T - 1, T), (-T - 1, -T - 1),  # straddling an edge
        (T + 1, T + 1), (T + 1, T + 60), (2 * T, 2 * T + 9), (-3 * T, -2 * T),  # wholly past it
        (MAX_FIB_INDEX - 3, MAX_FIB_INDEX), (-MAX_FIB_INDEX, -MAX_FIB_INDEX + 2),
    ])
    def test_ranges_past_the_table_walk(self, lo, hi):
        assert fib_range(lo, hi) == _range_by_walk(lo, hi)

    def test_single_indices_in_the_table_are_read_not_walked(self, monkeypatch):
        fibs = _range_by_walk(-T - 51, T + 50)  # F_n is fibs[n + T + 51]

        def no_walk(n):
            raise AssertionError(f"walked to F_{n}")
        with monkeypatch.context() as m:
            m.setattr(core, "_fib_lucas", no_walk)
            for n in range(-T, T + 1):
                assert fib_exact(n) == fibs[n + T + 51], n
            for n in range(1 - T, T + 1):  # phi^-T needs F_(-T-1), which lies past the table
                power = phi_power_exact(n)
                assert type(power) is ZPhi and (power.a, power.b) == (fibs[n + T + 50], fibs[n + T + 51]), n
            for call in (lambda: fib_exact(T + 1), lambda: fib_exact(-T - 1), lambda: phi_power_exact(-T)):
                with pytest.raises(AssertionError, match="walked"):
                    call()
        for n in range(-T - 50, T + 51):
            power = phi_power_exact(n)
            assert fib_exact(n) == fibs[n + T + 51], n
            assert type(power) is ZPhi and (power.a, power.b) == (fibs[n + T + 50], fibs[n + T + 51]), n

    def test_result_is_a_fresh_list(self):
        first = fib_range(0, 5)
        assert type(first) is list
        first[0] = 99
        first.append(-1)
        second = fib_range(0, 5)
        assert second == [0, 1, 1, 2, 3, 5] and second is not first
        inside = fib_range(-T, T)
        inside.clear()
        assert len(fib_range(-T, T)) == 2 * T + 1


# ---------------------------------------------------------------------------
# The deformed identities on integer coordinates
# ---------------------------------------------------------------------------

def _perturbed(values: list, rng: random.Random) -> list:
    out = list(values)
    k = rng.randrange(len(out))
    out[k] += rng.choice([-1, 1, 2, -7, 10**6, -fib_exact(300)])
    return out


class TestDeformedDifferences:
    def test_true_diagonals_up_to_the_spectrum_bound(self):
        fibs = [fib_exact(k) for k in range(MAX_SPECTRUM_INDEX + 2)]
        for n in (0, 1, 2, 3, 10, 99, MAX_SPECTRUM_INDEX):
            got = list(_deformed_differences(fibs[:n + 1], fibs[1:n + 2]))
            _same_differences(got, list(_differences_by_ring(fibs[:n + 1], fibs[1:n + 2])))
            assert not any(any(pair) for pair in got)

    def test_seeded_one_entry_perturbations(self):
        rng = random.Random("deformed-perturbations")
        for _ in range(300):
            n = rng.randint(1, 120)
            bdb = [fib_exact(k) for k in range(n)]
            bbd = [fib_exact(k + 1) for k in range(n)]
            if rng.random() < 0.5:
                bdb = _perturbed(bdb, rng)
            else:
                bbd = _perturbed(bbd, rng)
            got = list(_deformed_differences(bdb, bbd))
            _same_differences(got, list(_differences_by_ring(bdb, bbd)))
            assert any(any(pair) for pair in got)

    @pytest.mark.parametrize("index", [None, -1, 0, 5, 50, 100])
    def test_subtraction_law_cases_match_the_ring_form(self, index, monkeypatch):
        """The same labels and verdicts in the same order, on the true table and with F_index off by one."""
        import goldencalc.verify as verify
        fibs = fib_range(-1, 100)
        if index is not None:
            fibs[index + 1] += 1
        monkeypatch.setattr(verify, "fib_range", lambda lo, hi: list(fibs))
        suite = next(s for s in SUITES if s.id == "core.subtraction-law")
        got = list(suite.cases(SuiteContext(tol=None, rng=random.Random(0))))
        assert got == list(_subtraction_law_by_ring(fibs))
        assert any(failed for _, failed in got) is (index is not None)

    @pytest.mark.parametrize("seed", range(10))
    def test_scaled_matches_the_ring_horner(self, seed):
        rng = random.Random(seed)
        for degree in range(0, 13):  # degree 0 included
            h = UnivarPoly(coeffs=(*(rng.randint(-5, 5) for _ in range(degree)), rng.choice([-3, -1, 1, 2])))
            p, q = rng.uniform(-2, 2).as_integer_ratio()
            for step in (p, p * ZPhi.phi(), p * ZPhi.phi_conjugate(), ZPhi(rng.randint(-9, 9), rng.randint(-9, 9))):
                got, expected = _scaled(h, step, q), _scaled_by_ring(h, step, q)
                assert type(got) is type(expected) and got == expected, (h, step, q)

    def test_diagonal_identities_pass_over_the_whole_domain(self):
        assert all(diagonal_identities_exact(n) is True for n in range(MAX_SPECTRUM_INDEX + 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonal_identities_fail_with_the_reference_message(self, seed, monkeypatch):
        rng = random.Random(f"diagonal-failure-{seed}")
        n_max = rng.choice([0, 1, 5, 40, 300])
        bad = _perturbed(fib_range(0, n_max + 1), rng)
        monkeypatch.setattr(oscillator, "fib_range", lambda lo, hi: list(bad))
        with pytest.raises(ArithmeticError) as got:
            diagonal_identities_exact(n_max)
        monkeypatch.setattr(oscillator, "_deformed_differences", _differences_by_ring)
        with pytest.raises(ArithmeticError) as expected:
            diagonal_identities_exact(n_max)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("dim", [3, 19, MAX_LADDER_DIM])
    def test_perturbed_ladder_reports_match_the_reference(self, dim, monkeypatch):
        rng = random.Random(f"ladder-{dim}")
        for _ in range(8):
            sq = tuple(_perturbed(fib_range(1, dim - 1), rng))
            ladder = LadderSet(WeightedShift(sq, (0,) * len(sq)))
            monkeypatch.setattr(oscillator, "build_ladder", lambda d: ladder)
            got = verify_oscillator_algebra(dim)
            with monkeypatch.context() as m:
                m.setattr(oscillator, "_deformed_differences", _differences_by_ring)
                expected = verify_oscillator_algebra(dim)
            assert got.residuals == expected.residuals
            assert got.failures == expected.failures and got.failures


# ---------------------------------------------------------------------------
# The refusals named in one place
# ---------------------------------------------------------------------------

class TestEmptyPolynomial:
    @pytest.mark.parametrize("call", [
        derive_poly, golden_taylor, lambda p: jackson_antiderivative(p, 1),
    ], ids=["derive_poly", "golden_taylor", "jackson_antiderivative"])
    def test_each_call_refuses_it_alike(self, call):
        with pytest.raises(DomainError, match="^at least one coefficient is needed$"):
            call(UnivarPoly(()))

    def test_reconstruct_of_nothing_still_prints(self):
        with pytest.raises(DomainError) as refused:
            taylor_reconstruct([])
        assert str(refused.value) == "at least one Taylor value is needed"


_ANALYTIC_CALLS = {
    "golden_derivative": lambda c: golden_derivative(UnivarPoly((c, 2)), 0.5),  # c is the dropped F_0 term
    "jackson_antiderivative": lambda c: jackson_antiderivative(UnivarPoly((c,)), 0.5),
    "taylor_reconstruct": lambda c: taylor_reconstruct([c]),
}
# id suffix: (coefficient, its repr); the ZPhi cases keep the bare call name as their id
_NOT_NUMBERS = {"": (ZPhi(1, 1), "ZPhi(1, 1)"), "-str": ("1", "'1'"), "-None": (None, "None")}


class TestZPhiCoefficients:
    @pytest.mark.parametrize("call, suffix", [(c, s) for s in _NOT_NUMBERS for c in _ANALYTIC_CALLS],
                             ids=[c + s for s in _NOT_NUMBERS for c in _ANALYTIC_CALLS])
    def test_analytic_calls_refuse_them_by_name(self, call, suffix):
        coefficient, shown = _NOT_NUMBERS[suffix]
        label = "Taylor value" if call == "taylor_reconstruct" else "coefficient"
        with pytest.raises(DomainError, match=rf"^{label} must be an int or a Fraction, not {re.escape(shown)}$"):
            _ANALYTIC_CALLS[call](coefficient)


class TestCasimirRatiosOption:
    def test_refusal_above_the_bound_names_the_option(self, tmp_path, capsys):
        # below the bound, tests/test_cli.py pins "n_max must be at least 3"
        out = tmp_path / "cas.csv"
        code, record = run_command(["plot-data", "casimir_ratios", "--n-max", "10000000", "--output", str(out)])
        assert code == EXIT_DOMAIN and record is None
        assert capsys.readouterr().err == f"domain error: n_max must not exceed {MAX_RATIO_INDEX}\n"
        assert not out.exists()
