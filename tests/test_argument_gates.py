"""Conformance of every public entry point to the integer and rational argument rules.

An index, size or count is an int, never a bool, inside its documented range; a spin,
an hbar_omega or a shift parameter is a finite rational. Everything else is refused
with DomainError, and both ends of each range are accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Callable

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
    golden_exp,
    golden_exp_series,
    golden_trig,
    jackson_antiderivative,
)
from goldencalc.core import (
    MAX_FIB_INDEX,
    MAX_RATIO_INDEX,
    DomainError,
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
    "jackson_antiderivative": IntArg(lambda v: jackson_antiderivative(UnivarPoly(coeffs=(1, 2)), 1, v),
                                     1, MAX_EXP_TERMS),
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
        with pytest.raises(DomainError, match=f"^{re.escape(label)} must be a finite rational, not "):
            call(bad)

    @pytest.mark.parametrize("name", sorted(SPIN_CALLS))
    def test_spin_range(self, name):
        call = SPIN_CALLS[name]
        for j in (0, 0.5, "1/2", Fraction(MAX_J), MAX_J):
            call(j)
        for j in (-0.5, Fraction(2 * MAX_J + 1, 2), Fraction(1, 3)):
            with pytest.raises(DomainError):
                call(j)

    def test_float_reads_as_its_decimal(self):
        assert spectrum(0, 0.1).hbar_omega == Fraction(1, 10)
        assert golden_polynomial(1, 0.1).shift == Fraction(1, 10)
