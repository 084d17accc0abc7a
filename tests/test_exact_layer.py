"""The exact layer's one-pass paths agree with the longer formulas they replaced.

Each reference below is the earlier way to compute the same quantity, kept
inline: successive derivatives for the Taylor coefficients, a hand-run
(F_n!, F_n, F_(n+1)) recurrence, merging dicts for the partial derivative and
the normal-ordered product, and factor stripping for the decimal test.  Values
must match, and so must their types.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from mpmath import mp

from goldencalc import cli
from goldencalc.binomials import (
    MAX_BINOMIAL_DEGREE,
    MAX_FACTORIAL_INDEX,
    MAX_NONCOMM_DEGREE,
    BivarPoly,
    UnivarPoly,
    fib_factorial,
    golden_binomial,
    noncomm_expand,
)
from goldencalc.calculus import (
    MAX_TAYLOR_DEGREE,
    derive_bivar,
    derive_poly,
    golden_taylor,
    jackson_antiderivative,
    taylor_reconstruct,
)
from goldencalc.core import DomainError, ZPhi, fib_exact, phi_power_exact


def _same(got, expected):
    """Equal values of the same types, element by element."""
    assert list(got) == list(expected)
    assert [type(v) for v in got] == [type(v) for v in expected]


# ---------------------------------------------------------------------------
# References: the formulas the one-pass paths replaced
# ---------------------------------------------------------------------------

def _taylor_by_derivatives(f: UnivarPoly) -> list:
    out, cur = [], f
    for _ in range(f.degree + 1):
        out.append(cur.coeffs[0])
        cur = derive_poly(cur)
    return out


def _reconstruct_by_recurrence(values) -> tuple:
    coeffs = []
    fact, fn, fn1 = 1, 0, 1  # F_n!, F_n, F_(n+1) at n = 0
    for n, v in enumerate(values):
        if n:
            fact *= fn
        coeffs.append(Fraction(v) / fact if isinstance(v, (int, Fraction)) else v / fact)
        fn, fn1 = fn1, fn + fn1
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _factorial_product(n: int) -> int:
    out = 1
    for k in range(1, n + 1):
        out *= fib_exact(k)
    return out


def _noncomm_by_dicts(n: int) -> tuple:
    q = ZPhi.phi_conjugate()
    coeffs = {0: ZPhi(1, 0)}
    for m in range(n):
        q_m = q ** m
        nxt = {}
        for k, c in coeffs.items():
            move = c * phi_power_exact(k)
            nxt[k] = nxt[k] + move if k in nxt else move
            tail = c * q_m
            nxt[k + 1] = nxt[k + 1] + tail if k + 1 in nxt else tail
        coeffs = nxt
    return tuple(coeffs.get(k, ZPhi(0, 0)) for k in range(n + 1))


def _derive_bivar_merging(p: BivarPoly, var: str) -> dict:
    out = {}
    for (i, j), c in p.coefficients.items():
        if var == "x" and i >= 1:
            e, term = (i - 1, j), c * fib_exact(i)
        elif var == "y" and j >= 1:
            e, term = (i, j - 1), c * fib_exact(j)
        else:
            continue
        out[e] = out[e] + term if e in out else term
    return BivarPoly(out).coefficients


def _frac_str_by_stripping(fr: Fraction) -> str:
    num, den = fr.numerator, fr.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if d != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10 ** digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    out = f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"
    return out.rstrip("0").rstrip(".") if "." in out else out


# ---------------------------------------------------------------------------
# Seeded exact coefficients of each type, zeros included
# ---------------------------------------------------------------------------

def _int(rng):
    return rng.choice([0, rng.randint(-99, 99)])


def _frac(rng):
    return Fraction(_int(rng), rng.randint(1, 30))


def _zphi(rng):
    return ZPhi(_int(rng), _int(rng))


KINDS = {"int": _int, "Fraction": _frac, "ZPhi": _zphi}


def _poly(rng, kind: str, degree: int) -> UnivarPoly:
    """A polynomial of the given length, leading zeros (of its own type) left untrimmed at times."""
    draw = KINDS[kind]
    coeffs = [draw(rng) for _ in range(degree + 1)]
    if degree and rng.random() < 0.3:
        coeffs[-1] = 0 * coeffs[-1]
    return UnivarPoly(coeffs=tuple(coeffs))


class TestTaylorClosedForm:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_successive_derivatives_at_every_degree(self, kind):
        rng = random.Random(f"taylor-{kind}")
        for degree in range(MAX_TAYLOR_DEGREE + 1):
            f = _poly(rng, kind, degree)
            _same(golden_taylor(f), _taylor_by_derivatives(f))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_untrimmed_zero_tail(self, kind):
        rng = random.Random(f"zeros-{kind}")
        for degree in (1, 2, 7, 30):
            lead = KINDS[kind](rng) or KINDS[kind](rng) + 1
            zero = 0 * lead
            f = UnivarPoly(coeffs=(lead,) + (zero,) * degree)
            _same(golden_taylor(f), _taylor_by_derivatives(f))

    @pytest.mark.parametrize("kind", ["Fraction", "int"])  # dividing a ZPhi by F_n! would leave Z[phi]
    def test_reconstruct_matches_recurrence_and_round_trips(self, kind):
        rng = random.Random(f"reconstruct-{kind}")
        for degree in list(range(12)) + [30, 64, MAX_TAYLOR_DEGREE]:
            f = _poly(rng, kind, degree)
            values = golden_taylor(f)
            rebuilt = taylor_reconstruct(values)
            _same(rebuilt.coeffs, _reconstruct_by_recurrence(values))
            trimmed = list(f.coeffs)
            while len(trimmed) > 1 and not trimmed[-1]:
                trimmed.pop()
            assert list(rebuilt.coeffs) == trimmed

    def test_reconstruct_of_nothing_is_empty(self):
        assert taylor_reconstruct([]).coeffs == _reconstruct_by_recurrence([]) == ()

    def test_reconstruct_at_the_factorial_bound(self):
        values = [1] * (MAX_FACTORIAL_INDEX + 1)
        _same(taylor_reconstruct(values).coeffs, _reconstruct_by_recurrence(values))


class TestFibFactorial:
    def test_matches_an_explicit_product(self):
        rng = random.Random("fib-factorial")
        for n in sorted({0, 1, 2, 3, 4, 10, 99, MAX_FACTORIAL_INDEX, *rng.sample(range(MAX_FACTORIAL_INDEX), 12)}):
            assert fib_factorial(n) == _factorial_product(n), n

    def test_keeps_no_partial_products(self):
        # F_0! ... F_1000! together hold ~14 MB; the last one alone ~43 kB
        fib_factorial(MAX_FACTORIAL_INDEX)  # warm the import-time caches
        tracemalloc.start()
        try:
            fib_factorial(MAX_FACTORIAL_INDEX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_bound_is_cheap(self):
        start = time.perf_counter()
        fib_factorial(MAX_FACTORIAL_INDEX)
        assert time.perf_counter() - start < 2.0


class TestNoncommDense:
    def test_matches_the_dict_product(self):
        for n in range(MAX_NONCOMM_DEGREE + 1):
            _same(noncomm_expand(n).coeffs, _noncomm_by_dicts(n))


def _homogeneous(rng, kind: str, degree: int) -> BivarPoly:
    draw = KINDS[kind]
    return BivarPoly({(degree - j, j): draw(rng) for j in range(degree + 1)})


class TestDeriveBivarDirect:
    @pytest.mark.parametrize("var", ["x", "y"])
    def test_golden_binomials(self, var):
        for n in range(MAX_BINOMIAL_DEGREE + 1):
            for form in ("product", "expansion"):
                p = golden_binomial(n, form)
                got = derive_bivar(p, var).coefficients
                expected = _derive_bivar_merging(p, var)
                assert got == expected
                _same(got.values(), expected.values())

    @pytest.mark.parametrize("var", ["x", "y"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_seeded_homogeneous_forms(self, kind, var):
        rng = random.Random(f"bivar-{kind}-{var}")
        for degree in range(16):
            p = _homogeneous(rng, kind, degree)
            got = derive_bivar(p, var).coefficients
            expected = _derive_bivar_merging(p, var)
            assert got == expected
            _same(got.values(), expected.values())

    @pytest.mark.parametrize("var", ["z", "X", "", None])
    def test_unknown_variable_is_refused(self, var):
        with pytest.raises(DomainError, match="unknown variable"):
            derive_bivar(golden_binomial(3), var)


def _equal_by_loop(p: BivarPoly, q: BivarPoly) -> bool:
    a, b = p.coefficients, q.coefficients
    return set(a) == set(b) and all(a[e] == b[e] for e in a)


class TestBivarEquality:
    def test_equal_across_coefficient_types(self):
        forms = [BivarPoly({(2, 0): 3, (0, 1): -1}),
                 BivarPoly({(2, 0): ZPhi(3, 0), (0, 1): ZPhi(-1, 0)}),
                 BivarPoly({(2, 0): 3, (0, 1): ZPhi(-1, 0), (1, 1): ZPhi(0, 0)})]
        for p in forms:
            for q in forms:
                assert p == q

    def test_matches_the_loop(self):
        rng = random.Random("bivar-eq")
        draws = list(KINDS.values())
        for _ in range(400):
            p = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)): rng.choice(draws)(rng) for _ in range(3)})
            q = BivarPoly({e: ZPhi(c, 0) if type(c) is int and rng.random() < 0.5 else c
                           for e, c in p.coefficients.items()})
            if rng.random() < 0.5:
                q = BivarPoly({**q.coefficients, (rng.randint(0, 2), rng.randint(0, 2)): rng.choice(draws)(rng)})
            assert (p == q) is _equal_by_loop(p, q)

    def test_other_types_are_not_equal(self):
        assert BivarPoly.one() != 1
        assert BivarPoly.one() != {(0, 0): 1}

    def test_scalar_product_scales_every_coefficient(self):
        p = golden_binomial(4)
        assert p * -3 == BivarPoly({e: c * -3 for e, c in p.coefficients.items()})


class TestDecimalTest:
    def test_terminating_denominators(self):
        rng = random.Random("frac-terminating")
        for a in range(301):
            for b in range(0, 201, 1 if a % 25 == 0 else 40):
                den = 2 ** a * 5 ** b
                num = rng.choice([1, -1]) * rng.choice([1, 3, 7, 9, 11, 13, 10 ** 40 + 1])
                fr = Fraction(num, den)
                assert cli._frac_str(fr) == _frac_str_by_stripping(fr), (a, b)

    def test_other_denominators(self):
        rng = random.Random("frac-other")
        dens = [3, 6, 7, 12, 15, 21, 2 ** 300 * 3, 5 ** 200 * 7, 2 ** 300 * 5 ** 200 * 3, 10 ** 30 + 1]
        dens += [rng.randint(2, 10 ** 12) for _ in range(300)]
        for den in dens:
            for num in (1, -1, 2, 10 ** 50 + 3, -(10 ** 50 + 3)):
                fr = Fraction(num, den)
                assert cli._frac_str(fr) == _frac_str_by_stripping(fr), fr

    def test_integers(self):
        for num in (0, 1, -1, 10, -100, 10 ** 60):
            assert cli._frac_str(Fraction(num)) == str(num) == _frac_str_by_stripping(Fraction(num))


class TestAntiderivativeTable:
    @pytest.mark.parametrize("kind", ["int", "Fraction"])
    def test_matches_the_exact_rule(self, kind):
        rng = random.Random(f"antiderivative-{kind}")
        x = Fraction(3, 4)
        for degree in (0, 1, 5, 20, 60):
            g = _poly(rng, kind, degree)
            exact = sum((c * x ** (n + 1) / fib_exact(n + 1) for n, c in enumerate(g.coeffs)), Fraction(0))
            with mp.workdps(80):
                value = mp.mpf(exact.numerator) / exact.denominator
            got = jackson_antiderivative(g, "0.75", precision=50)
            assert abs(got - value) <= mp.mpf(10) ** -50 * max(abs(value), 1), degree
