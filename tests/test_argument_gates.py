"""Conformance of every public entry point to the integer and rational argument rules.

An index, size or count is an int, never a bool, inside its documented range; a spin,
an hbar_omega, a shift parameter and every polynomial coefficient is an int (never a
bool) or a Fraction. Everything else is refused with DomainError, and both ends of each
range are accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Callable

import mpmath
import pytest

from goldencalc.angular import (
    MAX_J,
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
from goldencalc.binomials import (
    MAX_BINOMIAL_DEGREE,
    MAX_FACTORIAL_INDEX,
    MAX_FIBONOMIAL_INDEX,
    MAX_NONCOMM_DEGREE,
    MAX_SERIES_TERMS,
    fib_factorial,
    fibonomial,
    fibonomial_row,
    golden_binomial,
    golden_binomial_roots,
    golden_polynomial,
    jackson_exp,
    noncomm_expand,
    noncomm_expected_coefficient,
    remarkable_limit,
    remarkable_limit_lhs,
)
from goldencalc.calculus import (
    MAX_EXP_TERMS,
    UnivarPoly,
    derive_poly,
    golden_derivative,
    golden_exp,
    golden_exp_series,
    golden_taylor,
    golden_trig,
    jackson_antiderivative,
    taylor_reconstruct,
)
from goldencalc.core import (
    MAX_FIB_INDEX,
    MAX_RATIO_INDEX,
    DomainError,
    ZPhi,
    fib_exact,
    fib_range,
    phi_power_exact,
    ratio_sequence,
)
from goldencalc.oscillator import (
    MAX_LADDER_DIM,
    MAX_SPECTRUM_INDEX,
    build_ladder,
    diagonal_identities_exact,
    invert_number,
    spectrum,
    verify_oscillator_algebra,
)


@dataclass(frozen=True)
class IntArg:
    """One integer parameter of one entry point: its call and its range."""

    call: Callable[[object], object]
    lo: int | float
    hi: int | float


INTEGER_ARGS = {
    "fib_exact": IntArg(fib_exact, -MAX_FIB_INDEX, MAX_FIB_INDEX),
    "fib_range.lo": IntArg(lambda v: fib_range(v, v), -MAX_FIB_INDEX, MAX_FIB_INDEX),
    "fib_range.hi": IntArg(lambda v: fib_range(MAX_FIB_INDEX - 2, v), MAX_FIB_INDEX - 2, MAX_FIB_INDEX),
    "phi_power_exact": IntArg(phi_power_exact, -MAX_FIB_INDEX, MAX_FIB_INDEX),
    "ratio_sequence": IntArg(ratio_sequence, 2, MAX_RATIO_INDEX),
    "fib_factorial": IntArg(fib_factorial, 0, MAX_FACTORIAL_INDEX),
    "fibonomial_row": IntArg(fibonomial_row, 0, MAX_FIBONOMIAL_INDEX),
    "fibonomial.n": IntArg(lambda v: fibonomial(v, 1), 0, MAX_FIBONOMIAL_INDEX),
    "fibonomial.k": IntArg(lambda v: fibonomial(10, v), -inf, inf),
    "golden_binomial": IntArg(golden_binomial, 0, MAX_BINOMIAL_DEGREE),
    "golden_binomial.expansion": IntArg(lambda v: golden_binomial(v, "expansion"), 0, MAX_BINOMIAL_DEGREE),
    "golden_binomial_roots": IntArg(golden_binomial_roots, 0, MAX_BINOMIAL_DEGREE),
    "golden_polynomial": IntArg(golden_polynomial, 0, MAX_BINOMIAL_DEGREE),
    "noncomm_expand": IntArg(noncomm_expand, 0, MAX_NONCOMM_DEGREE),
    "noncomm_expected_coefficient.n": IntArg(lambda v: noncomm_expected_coefficient(v, 1), 0,
                                             MAX_FIBONOMIAL_INDEX),
    "noncomm_expected_coefficient.k": IntArg(lambda v: noncomm_expected_coefficient(10, v), -inf, inf),
    "jackson_exp": IntArg(lambda v: jackson_exp(2, 1, v), 1, MAX_SERIES_TERMS),
    "remarkable_limit_lhs": IntArg(lambda v: remarkable_limit_lhs(1, v), 1, MAX_SERIES_TERMS),
    "remarkable_limit": IntArg(lambda v: remarkable_limit(1, v), 1, MAX_SERIES_TERMS),
    "GoldenSeries.evaluate": IntArg(lambda v: golden_exp_series("big_E", 2).evaluate(1, v), 1, MAX_EXP_TERMS),
    "golden_exp": IntArg(lambda v: golden_exp(1, n_terms=v), 1, MAX_EXP_TERMS),
    "golden_trig": IntArg(lambda v: golden_trig(1, "sin_F", n_terms=v), 1, MAX_EXP_TERMS),
    "build_ladder": IntArg(build_ladder, 2, MAX_LADDER_DIM),
    "verify_oscillator_algebra": IntArg(verify_oscillator_algebra, 3, MAX_LADDER_DIM),
    "diagonal_identities_exact": IntArg(diagonal_identities_exact, 0, MAX_SPECTRUM_INDEX),
    "spectrum": IntArg(spectrum, 0, MAX_SPECTRUM_INDEX),
    "invert_number": IntArg(lambda v: invert_number(v, "odd"), 1, inf),
    "casimir_ratio": IntArg(casimir_ratio, 3, MAX_RATIO_INDEX),
    "double_boson_action.n1": IntArg(lambda v: double_boson_action(v, 0, "minus"), 0, 2 * MAX_J),
    "double_boson_action.n2": IntArg(lambda v: double_boson_action(0, v, "plus"), 0, 2 * MAX_J),
}


def _out_of_range(arg: IntArg) -> list:
    return [bound for bound in (arg.lo - 1, arg.hi + 1) if bound not in (-inf, inf)]


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [True, False, 2.5, "3", None], ids=repr)
    @pytest.mark.parametrize("name", sorted(INTEGER_ARGS))
    def test_non_integer_refused(self, name, bad):
        with pytest.raises(DomainError, match=f"must be an integer, not {re.escape(repr(bad))}$"):
            INTEGER_ARGS[name].call(bad)

    @pytest.mark.parametrize("name", sorted(INTEGER_ARGS))
    def test_out_of_range_refused(self, name):
        arg = INTEGER_ARGS[name]
        for bad in _out_of_range(arg):
            with pytest.raises(DomainError, match="must (be at least|not exceed) "):
                arg.call(bad)

    @pytest.mark.parametrize("name", sorted(INTEGER_ARGS))
    def test_bounds_accepted(self, name):
        arg = INTEGER_ARGS[name]
        if arg.lo != -inf:
            arg.call(arg.lo)
        if arg.hi != inf:
            arg.call(arg.hi)

    def test_diagonal_identities_top(self):
        with pytest.raises(DomainError, match=f"n_max must not exceed {MAX_SPECTRUM_INDEX}"):
            diagonal_identities_exact(MAX_SPECTRUM_INDEX + 1)
        assert diagonal_identities_exact(MAX_SPECTRUM_INDEX) is True

    def test_messages_name_the_argument(self):
        for call, message in [(lambda: fib_range(0, 2.5), "hi must be an integer, not 2.5"),
                              (lambda: fib_range(5, 4), "hi must be at least 5"),
                              (lambda: ratio_sequence(1), "n_max must be at least 2"),
                              (lambda: build_ladder(201), f"dim must not exceed {MAX_LADDER_DIM}")]:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                call()


SPIN_CALLS = {
    "build_suF2": build_suF2,
    "build_symmetric": build_symmetric,
    "build_tilde": build_tilde,
    "casimir_suF2": casimir_suF2,
    "verify_commutators": verify_commutators,
    "verify_symmetric": verify_symmetric,
    "verify_tilde": verify_tilde,
}

RATIONAL_CALLS = {
    **{f"{name}.j": (call, "spin label j") for name, call in SPIN_CALLS.items()},
    "spectrum.hbar_omega": (lambda hw: spectrum(3, hw), "hbar_omega"),
    "golden_polynomial.a": (lambda a: golden_polynomial(2, a), "a"),
}


class TestRationalArguments:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "abc", None, True, False],
                             ids=repr)
    @pytest.mark.parametrize("name", sorted(RATIONAL_CALLS))
    def test_refused(self, name, bad):
        call, label = RATIONAL_CALLS[name]
        with pytest.raises(DomainError, match=f"^{re.escape(label)} must be an int or a Fraction, not "):
            call(bad)

    @pytest.mark.parametrize("name", sorted(SPIN_CALLS))
    def test_spin_range(self, name):
        call = SPIN_CALLS[name]
        for j in (0, Fraction(1, 2), Fraction(MAX_J), MAX_J):
            call(j)
        for j in (Fraction(-1, 2), Fraction(2 * MAX_J + 1, 2), Fraction(1, 3)):
            with pytest.raises(DomainError):
                call(j)


class _Int(int):
    """An int subclass: accepted wherever an int is, as by the index gate."""


# Every entry point that takes a rational or a polynomial coefficient, with the name its refusal uses;
# the value under test is a coefficient of x, a spin, an energy unit or a shift.
EXACT_CALLS = {
    "UnivarPoly": (lambda c: UnivarPoly((1, c)), "coefficient"),
    "derive_poly": (lambda c: derive_poly(UnivarPoly((1, c))), "coefficient"),
    "golden_taylor": (lambda c: golden_taylor(UnivarPoly((1, c))), "coefficient"),
    "golden_derivative": (lambda c: golden_derivative(UnivarPoly((1, c)), 0.5), "coefficient"),
    "jackson_antiderivative": (lambda c: jackson_antiderivative(UnivarPoly((1, c)), 0.5), "coefficient"),
    "taylor_reconstruct": (lambda c: taylor_reconstruct([1, c]), "Taylor value"),
    "spectrum.hbar_omega": (lambda hw: spectrum(3, hw), "hbar_omega"),
    "golden_polynomial.a": (lambda a: golden_polynomial(2, a), "a"),
    "build_suF2.j": (build_suF2, "spin label j"),
}
INEXACT = {"bool": True, "float": 0.5, "complex": 0.5j, "str": "1/2", "None": None,
           "mpf": mpmath.mpf(0.5), "ZPhi": ZPhi(1, 1)}


class TestExactInputTypes:
    """One rule for every rational argument and coefficient: an int (not a bool) or a Fraction."""

    @pytest.mark.parametrize("good", [3, Fraction(5, 2), _Int(2)], ids=["int", "Fraction", "int-subclass"])
    @pytest.mark.parametrize("name", sorted(EXACT_CALLS))
    def test_accepted(self, name, good):
        EXACT_CALLS[name][0](good)

    @pytest.mark.parametrize("kind", sorted(INEXACT))
    @pytest.mark.parametrize("name", sorted(EXACT_CALLS))
    def test_refused_by_value(self, name, kind):
        call, label = EXACT_CALLS[name]
        bad = INEXACT[kind]
        with pytest.raises(DomainError, match=f"^{re.escape(label)} must be an int or a Fraction, not "
                                              f"{re.escape(repr(bad))}$"):
            call(bad)

    def test_coefficients_kept_as_given(self):
        p = UnivarPoly([Fraction(4, 2), 3, _Int(5)])
        assert p.coeffs == (2, 3, 5) and [type(c) for c in p.coeffs] == [Fraction, int, _Int]

    def test_empty_polynomial_refused(self):
        with pytest.raises(DomainError, match="^at least one coefficient is needed$"):
            UnivarPoly(())

    @pytest.mark.parametrize("bad", ["abc", 0.5, True], ids=["str", "float", "bool"])
    def test_shift_refused_by_value(self, bad):
        with pytest.raises(DomainError, match=f"^shift must be an int or a Fraction, not {re.escape(repr(bad))}$"):
            UnivarPoly((1, 2), shift=bad)

    def test_shift_kept_as_a_fraction(self):
        assert UnivarPoly((1, 2)).shift is None
        assert type(UnivarPoly((1, 2), shift=3).shift) is Fraction
        p = golden_polynomial(5, Fraction(3, 2))
        for q in (p, derive_poly(p)):
            assert type(q.shift) is Fraction and q.shift == Fraction(3, 2)
