"""Built-in verifier: every identity the library rests on, in one registry.

Each suite checks one identity (or tight identity family) over its declared
parameter range, either exactly (integer / Z[phi] arithmetic) or to a stated
tolerance.  Three entries are tagged "known-deviation": they document places
where the implementation deliberately departs from a printed source value or
fixes an ambiguous convention, and they verify that the deviation is exactly
the documented one.  A known-deviation entry is never reported as "pass".

Suites are pure and independent; randomized ones draw from a seeded
generator, so a whole run is reproducible from (precision, seed).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from decimal import Decimal
from fractions import Fraction
from math import sqrt
from typing import TYPE_CHECKING, Callable, Iterable

from . import angular, calculus, core, oscillator
from .core import DomainError, ZPhi, _at_precision, fib_exact, fib_range, phi_power_exact
from .binomials import (
    BivarPoly,
    UnivarPoly,
    _linear_factor,
    fib_factorial,
    fibonomial_row,
    golden_binomial,
    golden_binomial_roots,
    golden_polynomial,
    noncomm_expand,
    noncomm_expected_coefficient,
)

if TYPE_CHECKING:
    import mpmath

DEFAULT_PRECISION = core.DEFAULT_DPS


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportEntry:
    id: str
    statement: str
    range: str
    tolerance: str | None  # decimal strings (`_decimal`), which keep their exponent past 1e-308
    max_residual: str | None
    status: str  # "pass" | "fail" | "known-deviation"
    notes: str


@dataclass(frozen=True)
class VerificationReport:
    precision: int
    seed: int
    entries: tuple[ReportEntry, ...]
    diagnostics: tuple[str, ...]

    @property
    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "known_deviation": 0}
        for e in self.entries:
            counts[e.status.replace("-", "_")] += 1
        return counts

    @property
    def failed(self) -> bool:
        return self.summary["fail"] > 0

    def to_dict(self) -> dict:
        return {**asdict(self), "summary": self.summary}


@dataclass
class SuiteContext:
    tol: float | mpmath.mpf | None
    rng: random.Random
    precision: int = DEFAULT_PRECISION


@dataclass(frozen=True)
class Suite:
    """One identity check: its declaration and a generator of its cases.

    `cases(ctx)` yields one (case, residual) pair per case.  The case is a
    label: a string, or a tuple (template, *args) that is formatted as
    `template.format(*args)` only when that case fails, since most labels are
    never read.  An exact suite (no tolerance) fails at the first case whose
    residual is nonzero or true, with the note `failed at <label>`; a
    toleranced suite passes when its worst residual is within `tolerance(precision)`.
    """

    id: str
    statement: str
    range_desc: str
    default_tol: float | None
    kind: str  # "invariant" | "known-deviation"
    cases: Callable[[SuiteContext], Iterable[tuple[object, object]]]
    notes: str

    def tolerance(self, precision: int):
        """The tolerance at `precision`: an invariant's residual is rounding, so `default_tol` scales
        by 10^(DEFAULT_PRECISION - precision); a known deviation compares with a printed value."""
        if self.default_tol is None or self.kind == "known-deviation":
            return self.default_tol
        # scaled in decimal, so that the tolerance rounds once, from its decimal value
        import mpmath
        return mpmath.mpmathify(Decimal(repr(self.default_tol)).scaleb(DEFAULT_PRECISION - precision))

    def runner(self, ctx: SuiteContext) -> tuple[bool, str | None, str]:
        """Run every case at the context's precision: (ok, max residual as `_decimal`, notes)."""
        worst = 0
        with _at_precision(ctx.precision, guard=0) as mp:
            for case, residual in self.cases(ctx):
                if self.default_tol is not None:
                    worst = max(worst, mp.mpmathify(residual))
                elif residual:
                    label = case if isinstance(case, str) else case[0].format(*case[1:])
                    return False, None, f"failed at {label}"
        return self.default_tol is None or worst <= ctx.tol, _decimal(worst), self.notes


def _decimal(x) -> str | None:
    """`x` to 15 significant digits, from the mpf: a float would print 0.0 past ~1e-308."""
    import mpmath
    return None if x is None else mpmath.nstr(mpmath.mpmathify(x), 15)


_REGISTRY: list[Suite] = []


def _suite(id: str, statement: str, range_desc: str, notes: str, *,
           tol: float | None = None, kind: str = "invariant"):
    """Register the decorated case generator as a suite, in definition order."""
    def register(cases):
        _REGISTRY.append(Suite(id, statement, range_desc, tol, kind, cases, notes))
        return cases
    return register


# ---------------------------------------------------------------------------
# golden_core suites
# ---------------------------------------------------------------------------

@_suite("core.addition-law", "F(n+m) = F(n-1) F(m) + F(n) F(m+1)", "0 <= n, m <= 200",
        "exact over all 201x201 index pairs")
def _addition_law(ctx: SuiteContext):
    fibs = fib_range(-1, 401)  # F_{-1} .. F_401: F(i) is fibs[i + 1]
    f_m, f_m1 = fibs[1:202], fibs[2:203]  # F(m) and F(m+1) for 0 <= m <= 200
    for n in range(0, 201):  # one case per row keeps the 40401 pairs cheap
        f_prev, f_n = fibs[n], fibs[n + 1]
        yield ("n={}", n), any(f != f_prev * a + f_n * b for f, a, b in zip(fibs[n + 1:n + 202], f_m, f_m1))


@_suite("core.subtraction-law", "F(n-m) = (-1/phi)^(-m) F(n) - phi^n (-1)^(-m) F(m)",
        "0 <= m <= n <= 100, exact in Z[phi]", "exact in Z[phi] for 0 <= m <= n <= 100")
def _subtraction_law(ctx: SuiteContext):
    fibs = fib_range(-1, 100)  # F_{-1} .. F_100, index shift +1
    for n in range(0, 101):
        f_prev, f_n = fibs[n], fibs[n + 1]
        # with phi^k = F(k-1) + F(k) phi, phi^m F(n) - phi^n F(m) = (F(m-1) F(n) - F(n-1) F(m))
        # + (F(m) F(n) - F(n) F(m)) phi: the phi coordinate is zero for any input, so the rational
        # one alone is compared with (-1)^m F(n-m)
        for m in range(0, n + 1):
            yield (("(n={}, m={})", n, m),
                   fibs[m] * f_n - f_prev * fibs[m + 1] != (-fibs[n - m + 1] if m % 2 else fibs[n - m + 1]))


@_suite("core.multiplication-law", "F(n*m) = F(n) * F^(n)(m)", "1 <= n, m <= 30, exact",
        "exact for 1 <= n, m <= 30, higher numbers by independent recurrence")
def _multiplication_law(ctx: SuiteContext):
    for n in range(1, 31):
        lucas = fib_exact(n - 1) + fib_exact(n + 1)
        sign = 1 if n % 2 == 0 else -1  # base product (phi * phi')^n = (-1)^n
        h_prev, h = 0, 1  # higher Fibonacci by its own recurrence
        fn = fib_exact(n)
        for m in range(1, 31):
            yield ("(n={}, m={})", n, m), fib_exact(n * m) != fn * h
            h_prev, h = h, lucas * h - sign * h_prev


@_suite("core.division-law", "F(m/n) = F(m) / F^(m/n)(n)", "(m, n) in {(4,2), (6,3), (6,2)}",
        "pairs (4,2), (6,3), (6,2)", tol=1e-32)
def _division_law(ctx: SuiteContext):
    from mpmath import mp
    for (m, n) in ((4, 2), (6, 3), (6, 2)):
        r = mp.mpf(m) / n
        # F^(r)_k by h_(k+1) = L h_k - s h_(k-1), h_0 = 0, h_1 = 1: bases phi^r and s phi^-r
        s = mp.exp(1j * mp.pi * r)
        lucas = mp.power(mp.phi, r) + s * mp.power(mp.phi, -r)
        h_prev, h = 0, 1
        for _ in range(n - 1):
            h_prev, h = h, lucas * h - s * h_prev
        lhs = core.fib_extended(r, ctx.precision).value
        yield ("(m={}, n={})", m, n), abs(lhs - fib_exact(m) / h)


@_suite("core.lucas-combinations",
        "phi^(2k) + phi^(-2k) = F(2k) + 2 F(2k-1);  phi^(2k+1) - phi^(-(2k+1)) = F(2k+1) + 2 F(2k)",
        "1 <= k <= 50, exact in Z[phi]", "exact in Z[phi] for 1 <= k <= 50")
def _lucas_combinations(ctx: SuiteContext):
    for k in range(1, 51):
        even = phi_power_exact(2 * k) + phi_power_exact(-2 * k)
        yield ("even k={}", k), even != ZPhi(fib_exact(2 * k) + 2 * fib_exact(2 * k - 1), 0)
        odd = phi_power_exact(2 * k + 1) - phi_power_exact(-(2 * k + 1))
        yield ("odd k={}", k), odd != ZPhi(fib_exact(2 * k + 1) + 2 * fib_exact(2 * k), 0)


@_suite("core.real-addition", "F(x+y) = phi^x F(y) + (-1/phi)^y F(x) for real x, y",
        "20 seeded pairs in [-5, 5]", "20 seeded pairs in [-5, 5]", tol=1e-31)
def _real_addition(ctx: SuiteContext):
    from mpmath import mp
    phi = +mp.phi
    for i in range(20):
        x = mp.mpf(ctx.rng.uniform(-5, 5))
        y = mp.mpf(ctx.rng.uniform(-5, 5))
        lhs, fx, fy = (core.fib_extended(t, ctx.precision).value for t in (x + y, x, y))
        rhs = mp.power(phi, x) * fy + mp.exp(1j * mp.pi * y) * mp.power(phi, -y) * fx
        yield ("pair {}", i), abs(lhs - rhs)


@_suite("core.real-recurrence", "F(x) = F(x-1) + F(x-2) for real x",
        "20 seeded arguments in [-5, 5]", "20 seeded arguments in [-5, 5]", tol=1e-32)
def _real_recurrence(ctx: SuiteContext):
    from mpmath import mp
    for i in range(20):
        x = mp.mpf(ctx.rng.uniform(-5, 5))
        f0, f1, f2 = (core.fib_extended(t, ctx.precision).value for t in (x, x - 1, x - 2))
        yield ("argument {}", i), abs(f0 - f1 - f2)


# ---------------------------------------------------------------------------
# fibonomial suites
# ---------------------------------------------------------------------------

@_suite("fibonomial.form-agreement",
        "product of Golden binomial factors equals the Fibonomial expansion",
        "0 <= n <= 20, exact", "exact polynomial equality for n <= 20")
def _form_agreement(ctx: SuiteContext):
    for n in range(0, 21):
        yield ("n={}", n), golden_binomial(n, "product") != golden_binomial(n, "expansion")


@_suite("fibonomial.root-structure", "(x+y)_F^n vanishes at x/y = -phi^(n-1-2j), j = 0..n-1",
        "1 <= n <= 10, exact", "all n declared zeros vanish exactly, n <= 10")
def _root_structure(ctx: SuiteContext):
    for n in range(1, 11):
        poly = golden_binomial(n, "product")
        for j, root in enumerate(golden_binomial_roots(n)):
            yield ("(n={}, j={})", n, j), poly.evaluate(root, 1)


@_suite("fibonomial.symmetry-integrality", "[n k]_F = [n n-k]_F is a positive integer",
        "0 <= k <= n <= 100", "positive integers with mirror symmetry, n <= 100")
def _symmetry_integrality(ctx: SuiteContext):
    # The rows are mirrored halves: each is checked against the Fibonacci-Pascal rule, an independent route.
    fibs, pascal = fib_range(0, 100), [1]
    for n in range(0, 101):
        if n:
            pascal = [1, *(fibs[k + 1] * pascal[k] + fibs[n - k - 1] * pascal[k - 1] for k in range(1, n)), 1]
        row = fibonomial_row(n)
        for k in range(0, n + 1):
            yield ("(n={}, k={})", n, k), row[k] != pascal[k] or pascal[k] <= 0 or pascal[k] != pascal[n - k]


# Published factorizations of P_n as n: (denominator, factors).  A length-3 factor
# (c2, c1, c0) encodes c2 x^2 + c1 x a + c0 a^2; a length-2 factor (c1, c0) encodes c1 x + c0 a.
_PRINTED_POLYNOMIAL_FACTORS: dict[int, tuple[int, list[tuple[int, ...]]]] = {
    1: (1, [(1, -1)]),
    2: (1, [(1, -1, -1)]),
    3: (2, [(1, 1), (1, -3, 1)]),
    4: (6, [(1, 1, -1), (1, -4, -1)]),
    5: (30, [(1, -1), (1, 3, 1), (1, -7, 1)]),
    6: (240, [(1, -1, -1), (1, 4, -1), (1, -11, -1)]),
    7: (3120, [(1, 1), (1, -3, 1), (1, 7, 1), (1, -18, 1)]),
}


def _factor_to_bivar(factor) -> BivarPoly:
    """c1 x + c0 a, or c2 x^2 + c1 x a + c0 a^2, from its coefficient tuple."""
    exponents = [(1, 0), (0, 1)] if len(factor) == 2 else [(2, 0), (1, 1), (0, 2)]
    return BivarPoly(dict(zip(exponents, factor)))


def _binomial_as_xa(n: int) -> BivarPoly:
    """(x - a)_F^n as an exact bivariate polynomial in (x, a)."""
    return BivarPoly({(i, k): -c if k % 2 else c
                      for (i, k), c in golden_binomial(n, "expansion").coefficients.items()})


@_suite("fibonomial.factored-polynomials",
        "factored Golden polynomial forms (phi powers / Fibonacci coefficients) and the printed P_1..P_7 equal (x-a)_F^n / F_n!",
        "1 <= n <= 8, exact", "factored forms and printed polynomials reproduced exactly, n <= 8")
def _factored_polynomials(ctx: SuiteContext):
    for n in range(1, 9):
        reference = _binomial_as_xa(n)
        nu, odd = divmod(n, 2)
        parity, sign = ("odd", -1) if odd else ("even", 1)
        # odd degrees carry one extra linear factor x - (-1)^nu a
        prod = _factor_to_bivar((1, 1 if nu % 2 else -1)) if odd else BivarPoly.one()
        prod2 = prod  # Fibonacci-coefficient quadratic form
        for k in range(1, nu + 1):
            s = -1 if (nu + k) % 2 else 1
            e = 2 * k - 1 + odd
            prod = (prod * _linear_factor(-s * phi_power_exact(e))
                    * _linear_factor(sign * s * phi_power_exact(-e)))
            lucas = fib_exact(e) + 2 * fib_exact(e - 1)
            prod2 = prod2 * _factor_to_bivar((1, -s * lucas, -sign))
        # the common prefactor 1/F_n! of P_n cancels from both sides
        yield ("phi-power {} form at n={}", parity, n), prod != reference
        yield ("Fibonacci-coefficient {} form at n={}", parity, n), prod2 != reference
    for n, (den, factors) in _PRINTED_POLYNOMIAL_FACTORS.items():
        prod = BivarPoly.one()
        for f in factors:
            prod = prod * _factor_to_bivar(f)
        yield ("printed polynomial at n={}", n), prod * fib_factorial(n) != _binomial_as_xa(n) * den


@_suite("fibonomial.noncomm-bridge",
        "normal-ordered (x+y)^n on y x = phi x y has coefficients [n k]_F (-1/phi)^(k(k-1)/2)",
        "0 <= n <= 10, exact", "normal-ordered coefficients match the closed form, n <= 10")
def _noncomm_bridge(ctx: SuiteContext):
    for n in range(0, 11):
        word = noncomm_expand(n)
        for k in range(n + 1):
            yield ("(n={}, k={})", n, k), word.coeffs[k] != noncomm_expected_coefficient(n, k)


# ---------------------------------------------------------------------------
# calculus suites
# ---------------------------------------------------------------------------

def _random_poly(rng: random.Random, max_deg: int = 6) -> UnivarPoly:
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = rng.choice([-3, -1, 1, 2]) if any(coeffs) else 1
    return UnivarPoly(coeffs=tuple(coeffs))


def _poly_product(f: UnivarPoly, g: UnivarPoly) -> UnivarPoly:
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for k, b in enumerate(g.coeffs):
            out[i + k] += a * b
    return UnivarPoly(coeffs=tuple(out))


def _scaled(h: UnivarPoly, step: int | ZPhi, q: int) -> int | ZPhi:
    """q^d h(step/q) for h of degree d with integer coefficients: an int, or a ZPhi when step is one.

    Horner's rule runs on the int coordinates of a + b*phi, with phi**2 = phi + 1.
    """
    s, t = (step, 0) if type(step) is int else (step.a, step.b)
    a = b = 0
    q_power = 1
    for c in reversed(h.coeffs):
        bt = b * t
        a, b, q_power = a * s + bt + c * q_power, a * t + b * s + bt, q_power * q
    return a if type(step) is int else ZPhi(a, b)


def _pair_samples(ctx: SuiteContext):
    """Endless seeded (g, p, q), (D(fg)(x), Df(x), Dg(x), f(phi x), f(-x/phi), g(phi x), g(-x/phi)).

    x is a nonzero float in [-2, 2], exactly p/q with q a power of 2.  Each value
    h(u x) is scaled by q^deg(h): every product and quotient rule is homogeneous
    in q, so on these values it is an equality in Z[phi].
    """
    units = (ZPhi.phi(), ZPhi.phi_conjugate())  # phi x and -x/phi = (1 - phi) x
    while True:
        f, g = _random_poly(ctx.rng), _random_poly(ctx.rng)
        x = 0.0
        while x == 0.0:
            x = ctx.rng.uniform(-2, 2)
        p, q = x.as_integer_ratio()
        yield (g, p, q), (*(_scaled(calculus.derive_poly(h), p, q) for h in (_poly_product(f, g), f, g)),
                          *(_scaled(h, p * u, q) for h in (f, g) for u in units))


_LEIBNITZ_NOTES = "20 seeded polynomial pairs, degree <= 6, x in [-2, 2] \\ {0}, exact in Z[phi]"


@_suite("calculus.leibnitz-rule-i", "D(fg)(x) = Df(x) g(phi x) + f(-x/phi) Dg(x)",
        "20 seeded polynomial pairs, degree <= 6", _LEIBNITZ_NOTES)
def _leibnitz_i(ctx: SuiteContext):
    for i, (_, (dfg, df, dg, fp, fm, gp, gm)) in zip(range(20), _pair_samples(ctx)):
        yield ("pair {}", i), dfg != df * gp + fm * dg


@_suite("calculus.leibnitz-rule-ii",
        "D(fg)(x) = Df(x) g(-x/phi) + f(phi x) Dg(x), and the symmetric half-sum form",
        "20 seeded polynomial pairs, degree <= 6", _LEIBNITZ_NOTES)
def _leibnitz_ii(ctx: SuiteContext):
    for i, (_, (dfg, df, dg, fp, fm, gp, gm)) in zip(range(20), _pair_samples(ctx)):
        yield ("pair {}", i), dfg != df * gm + fp * dg
        yield ("symmetric pair {}", i), 2 * dfg != df * (gp + gm) + dg * (fp + fm)


@_suite("calculus.leibnitz-general-alpha",
        "the one-parameter interpolation of the product rule holds for every alpha",
        "5 seeded alpha in [-2, 2], 20 polynomial pairs", _LEIBNITZ_NOTES)
def _leibnitz_alpha(ctx: SuiteContext):
    # alpha = a/b exactly; the rule is multiplied through by b
    alphas = [ctx.rng.uniform(-2, 2).as_integer_ratio() for _ in range(5)]
    for i, (_, (dfg, df, dg, fp, fm, gp, gm)) in zip(range(20), _pair_samples(ctx)):
        for k, (a, b) in enumerate(alphas):
            yield ("pair {}, alpha {}", i, k), b * dfg != ((a * fm + (b - a) * fp) * dg
                                                          + (a * gp + (b - a) * gm) * df)


@_suite("calculus.quotient-rules",
        "all three written quotient-rule forms agree with the direct derivative of f/g",
        "20 seeded pairs, denominator bounded away from zero",
        "20 seeded pairs with |g(phi*x) g(-x/phi)| >= 1e-3, exact in Z[phi]")
def _quotient_rules(ctx: SuiteContext):
    # each form times sqrt(5) x g(phi x) g(-x/phi) (and q^(deg f + deg g)), sqrt(5) = 2 phi - 1
    s5 = ZPhi(-1, 2)
    tried = 0
    for (g, p, q), (_, df, dg, fp, fm, gp, gm) in _pair_samples(ctx):
        # g(-x/phi) is the Galois conjugate of g(phi x), so their product is gp's norm
        if 1000 * abs(gp.norm) < q ** (2 * g.degree):
            continue
        tried += 1
        direct = fp * gm - fm * gp
        for form in (s5 * p * (df * gp - dg * fp), s5 * p * (df * gm - dg * fm)):
            yield ("pair {}", tried), direct != form
        yield ("pair {}", tried), 2 * direct != s5 * p * (df * (gm + gp) - dg * (fm + fp))
        if tried == 20:
            return


@_suite("calculus.summation-formula", "sum F(n)/n! = e^(1/2) sinh(sqrt(5)/2) / (sqrt(5)/2)",
        "terms down to 10^-(precision+2)",
        "sum to the first term below 10^-(precision+2) against the closed hyperbolic form", tol=1e-32)
def _summation_formula(ctx: SuiteContext):
    from mpmath import mp
    # from n = 1 on the terms fall by F(n+1)/((n+1) F(n)) <= 2/(n+1), so the tail is below the last
    smallest = mp.mpf(10) ** -(ctx.precision + 2)
    lhs, term, n = mp.zero, mp.one, 0
    while term >= smallest:
        n += 1
        term = mp.mpf(fib_exact(n)) / mp.factorial(n)
        lhs += term
    rhs = mp.exp(mp.mpf(1) / 2) * mp.sinh(mp.sqrt(5) / 2) / (mp.sqrt(5) / 2)
    yield ("{} terms", n), abs(lhs - rhs)


@_suite("calculus.exp-eigenrelations", "D e_F(kx) = k e_F(kx)  and  D E_F(kx) = k E_F(-kx)",
        "k in {1, 1/2, 2}, sampled x, series and difference-quotient routes",
        "k in {1, 1/2, 2}, x in {0.3, 0.7, 1.1}, both routes", tol=1e-32)
def _exp_eigenrelations(ctx: SuiteContext):
    from mpmath import mp
    dps = ctx.precision
    for k in (Fraction(1), Fraction(1, 2), Fraction(2)):
        for kind, sign in (("small_e", 1), ("big_E", -1)):  # E_F(kx) derives to k E_F(-kx)
            derived = calculus.golden_exp_series(kind, k).derived()
            f = lambda t: calculus.golden_exp(k * t, kind, precision=dps).value
            for text in ("0.3", "0.7", "1.1"):
                x = mp.mpf(text)
                case = ("(k={}, x={})", k, text)
                # k is a power of 2, so k f(±x) is bit for bit k times the k-series at ±x
                expected = k * f(sign * x)
                # exact coefficient-shift route
                yield case, abs(derived.evaluate(x, precision=dps).value - expected)
                # numeric difference-quotient route
                yield case, abs(calculus.golden_derivative(f, x, precision=dps) - expected)


@_suite("calculus.binomial-derivative",
        "D_x (x+y)_F^n = F(n) (x+y)_F^(n-1);  (D_y)^(2k) (x+y)_F^(2k) = (-1)^k F(2k)!",
        "n <= 10, k <= 4, exact", "exact: first derivative n <= 10, iterated even case k <= 4")
def _binomial_derivative(ctx: SuiteContext):
    for n in range(1, 11):
        lhs = calculus.derive_bivar(golden_binomial(n), "x")
        yield ("x-derivative n={}", n), lhs != golden_binomial(n - 1) * ZPhi(fib_exact(n), 0)
    for k in range(1, 5):
        poly = golden_binomial(2 * k)
        for _ in range(2 * k):
            poly = calculus.derive_bivar(poly, "y")
        sign = -1 if k % 2 else 1
        yield ("iterated y-derivative k={}", k), poly != BivarPoly({(0, 0): ZPhi(sign * fib_factorial(2 * k), 0)})


@_suite("calculus.taylor-basis",
        "D P_n = P_{n-1} for the Golden polynomials, and f = sum_n (D^n f)(0) x^n / F_n! (Golden Taylor formula)",
        "1 <= n <= 15, a in {1, 3/2}; Taylor round trip on P_15 and 20 seeded polynomials, exact",
        "exact lowering P_n -> P_{n-1} for n <= 15, a in {1, 3/2}; the Taylor coefficients rebuild "
        "P_15 and 20 seeded polynomials of degree <= 6 exactly")
def _taylor_basis(ctx: SuiteContext):
    def round_trip_fails(f: UnivarPoly) -> bool:
        return calculus.taylor_reconstruct(calculus.golden_taylor(f)).coeffs != f.coeffs

    for a in (Fraction(1), Fraction(3, 2)):
        prev = golden_polynomial(0, a)
        for n in range(1, 16):
            cur = golden_polynomial(n, a)
            yield ("(n={}, a={})", n, a), calculus.derive_poly(cur).coeffs != prev.coeffs
            prev = cur
        yield ("Taylor round trip of P_15, a={}", a), round_trip_fails(prev)
    for i in range(20):
        yield ("Taylor round trip of polynomial {}", i), round_trip_fails(_random_poly(ctx.rng))


# ---------------------------------------------------------------------------
# oscillator suites
# ---------------------------------------------------------------------------

@_suite("oscillator.diagonal-identities",
        "F(n+1) - phi F(n) = (-1/phi)^n  and  F(n+1) + F(n)/phi = phi^n",
        "0 <= n <= 100, exact in Z[phi]", "exact in Z[phi] for 0 <= n <= 100")
def _diagonal_identities(ctx: SuiteContext):
    # the library check raises at the first failing n
    yield "0 <= n <= 100", not oscillator.diagonal_identities_exact(100)


@_suite("oscillator.fock-normalization",
        "repeated raising builds unit-norm states: |(b+)^n vacuum| = sqrt(F(n)!)",
        "n < dim = 12", "states built by repeated raising at dim 12")
def _fock_normalization(ctx: SuiteContext):
    norm2 = 1  # |(b+)^n vacuum|^2 is the product of the first n squared weights F_1 .. F_n
    for n, weight in enumerate(oscillator.build_ladder(12).shift.sq, start=1):
        norm2 *= weight
        yield ("n={}", n), norm2 != fib_factorial(n)


@_suite("oscillator.number-distinct",
        "the number operator differs from b+b (diagonal gap >= 1 from n = 3 on)",
        "interior states, dim 12", "max |F_n - n| over interior 3 <= n <= 10")
def _number_distinct(ctx: SuiteContext):
    diag, _ = oscillator.build_ladder(12).shift.products()  # b+b = F_n, exact
    yield "max |F_n - n| < 1", max(abs(diag[n] - n) for n in range(3, 11)) < 1


@_suite("oscillator.hamiltonian-diagonal",
        "H = (hw/2)(b+b + bb+) is diagonal with interior entries (hw/2) F(n+2)",
        "dim 12, exact", "interior diagonal vs exact rational levels, dim 12")
def _hamiltonian_diagonal(ctx: SuiteContext):
    dim = 12
    # b+b and bb+ are exact diagonals of the ladder's shift, so H has no off-diagonal part
    h = [Fraction(bdb + bbd, 2) for bdb, bbd in zip(*oscillator.build_ladder(dim).shift.products())]
    for n, energy in oscillator.spectrum(dim - 2, 1).levels:
        yield ("n={}", n), h[n] != energy


# ---------------------------------------------------------------------------
# angular suites
# ---------------------------------------------------------------------------

@_suite("angular.docagne-identity", "F(j+m) F(j-m+1) - F(j-m) F(j+m+1) = (-1)^(j-m) F(2m)",
        "0 <= m <= j <= 40, exact integers", "exact integers for 0 <= m <= j <= 40")
def _docagne(ctx: SuiteContext):
    fibs = fib_range(0, 81)  # F_0 .. F_81
    for j in range(0, 41):
        for m in range(0, j + 1):
            lhs = fibs[j + m] * fibs[j - m + 1] - fibs[j - m] * fibs[j + m + 1]
            sign = -1 if (j - m) % 2 else 1
            yield ("(j={}, m={})", j, m), lhs != sign * fibs[2 * m]


def _half_spins(j_max: int) -> list[Fraction]:
    return [Fraction(t, 2) for t in range(1, 2 * j_max + 1)]


@_suite("angular.casimir-forms",
        "both written Casimir forms coincide with eigenvalue (-1)^(-j) F(j) F(j+1)",
        "j <= 6 in half-integer steps",
        "both written forms and the closed eigenvalue, j <= 6 (half-integer steps)")
def _casimir_forms(ctx: SuiteContext):
    for j in _half_spins(6):
        res = angular.casimir_suF2(j)
        yield ("j={}", j), max(res.form_difference, res.eigenvalue_deviation)


@_suite("angular.tilde-anticommutator",
        "{Jt+, Jt-} = diag(F(2m)), off-diagonal zero; both tilde Casimir forms agree",
        "j <= 5 in half-integer steps", "diagonal F_{2m} with vanishing off-diagonal, j <= 5")
def _tilde_anticommutator(ctx: SuiteContext):
    for j in _half_spins(5):
        rep = angular.verify_tilde(j)
        yield ("j={}", j), max(rep.anticommutator_residual, rep.offdiagonal_max)
        yield ("Casimir forms at j={}", j), max(rep.casimir_form_difference, rep.casimir_eigenvalue_deviation)


@_suite("angular.relabeling",
        "double-boson amplitudes under n1 = j+m, n2 = j-m equal the |j, m> matrix elements",
        "j <= 6 in half-integer steps, exact",
        "occupation-pair amplitudes equal the |j, m> matrix elements, j <= 6")
def _relabeling(ctx: SuiteContext):
    for j in _half_spins(6):
        sq = angular.build_suF2(j).shift.sq  # J+ from m to m+1 has weight sqrt(sq[k])
        ms = [m - j for m in range(int(2 * j) + 1)]
        for k, (m, m_up) in enumerate(zip(ms, ms[1:])):
            amp, state = angular.double_boson_action(int(j + m), int(j - m), "plus")
            yield (("raising (j={}, m={})", j, m),
                   amp != sqrt(sq[k]) or state != (int(j + m) + 1, int(j - m) - 1))
            amp, state = angular.double_boson_action(int(j + m_up), int(j - m_up), "minus")
            yield (("lowering (j={}, m={})", j, m_up),
                   amp != sqrt(sq[k]) or state != (int(j + m), int(j - m)))


@_suite("angular.hermiticity",
        "standard variant: (J+)^dagger = J- exactly; tilde variant deviates only by unit phases",
        "j <= 6 (standard), j <= 5 (tilde)", "standard adjoint exact; tilde deviation confined to unit phases")
def _hermiticity(ctx: SuiteContext):
    # J- is the transpose of J+ = i^turns sqrt(sq): with every sq >= 0 the adjoint is
    # J- times i^(-2 turns), which is J- itself when every turn is even
    for j in _half_spins(6):
        shift = angular.build_suF2(j).shift
        yield ("standard j={}", j), any(t % 2 or s < 0 for s, t in zip(shift.sq, shift.turns))
    for j in _half_spins(5):
        yield ("tilde j={}", j), any(s < 0 for s in angular.build_tilde(j).shift.sq)


# ---------------------------------------------------------------------------
# known-deviation suites
# ---------------------------------------------------------------------------

_PRINTED_GOLDEN_PI = complex(4.73068, 0.0939706)


@_suite("core.pi-extension-scale", "published Golden-pi example equals sqrt(5) * F(pi), not F(pi)",
        "single value",
        "library returns the 1/sqrt(5)-normalized F_pi; the published example value "
        "4.73068+0.0939706i is the unnormalized sqrt(5)*F_pi (reproduced to ~2e-6 when "
        "evaluated with the truncated constants 1.618 and 3.14)",
        tol=5e-3, kind="known-deviation")
def _pi_extension_scale(ctx: SuiteContext):
    from mpmath import mp
    value = core.fib_extended(mp.pi, ctx.precision).value
    yield "F(pi)", abs(value * mp.sqrt(5) - mp.mpc(_PRINTED_GOLDEN_PI))


@_suite("calculus.antiderivative-convention",
        "argument-shift convention of the antiderivative fixed by D o integral = identity",
        "g in {1, x, x^2}, x in {0.5, 1, 2}",
        "the geometric-grid antiderivative fixes the ambiguous argument-shift notation by "
        "the round-trip contract: the Golden derivative of the antiderivative returns the "
        "integrand (checked on 1, x, x^2 at x in {0.5, 1, 2})",
        tol=1e-10, kind="known-deviation")
def _antiderivative_convention(ctx: SuiteContext):
    from mpmath import mp
    for coeffs in ((Fraction(1),), (Fraction(0), Fraction(1)),
                   (Fraction(0), Fraction(0), Fraction(1))):
        g = UnivarPoly(coeffs=coeffs)
        G = (lambda gg: lambda t: calculus.jackson_antiderivative(gg, t, precision=ctx.precision))(g)
        for x in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(2)):
            yield (("(g={}, x={})", g, x),
                   abs(calculus.golden_derivative(G, x, precision=ctx.precision) - g.evaluate(x)))


@_suite("oscillator.number-inversion-branch",
        "odd-index inversion takes the plus branch; the published minus branch returns -n",
        "odd n in {3, 5, 7, 9}",
        "the published odd-index inversion uses a minus before the radical, which lands on "
        "-n (it selects phi^-n); the implementation takes the plus branch, validated by the "
        "exact round trip through the integer Fibonacci path",
        tol=1e-9, kind="known-deviation")
def _number_inversion_branch(ctx: SuiteContext):
    from mpmath import mp
    for n in (3, 5, 7, 9):
        F = mp.mpf(fib_exact(n))
        minus_branch = mp.log(mp.sqrt(5) / 2 * F - mp.sqrt(5 * F ** 2 / 4 - 1)) / mp.log(mp.phi)
        yield ("minus branch n={}", n), abs(minus_branch + n)
        yield ("plus-branch round trip n={}", n), abs(oscillator.invert_number(fib_exact(n), "odd") - n)


SUITES: tuple[Suite, ...] = tuple(_REGISTRY)


def matching_suites(only=None) -> list[Suite]:
    """The suites whose id starts with one of the prefixes in `only` (all when empty)."""
    return [s for s in SUITES if not only or s.id.startswith(tuple(only))]


def verify_all(seed: int = 0, only: list[str] | None = None,
               precision: int = DEFAULT_PRECISION) -> VerificationReport:
    """Run every identity suite at `precision` digits and assemble the report.

    Each suite's tolerance follows from the precision (`Suite.tolerance`);
    `only` filters by suite id prefix.  Suites never abort the run: an
    exception becomes a "fail" entry.
    """
    _at_precision(precision, guard=0)  # refuses a bad precision before any suite runs
    selected = matching_suites(only)
    if not selected:
        raise DomainError(f"no verification suites match {only!r}")

    entries: list[ReportEntry] = []
    diagnostics: list[str] = []
    for suite in selected:
        tol = suite.tolerance(precision)
        ctx = SuiteContext(tol=tol, rng=random.Random(seed), precision=precision)
        try:
            ok, residual, notes = suite.runner(ctx)
        except Exception as exc:  # capture, never abort the run
            ok, residual, notes = False, None, f"suite raised {type(exc).__name__}: {exc}"
        status = ("known-deviation" if suite.kind == "known-deviation" else "pass") if ok else "fail"
        entries.append(ReportEntry(
            id=suite.id, statement=suite.statement, range=suite.range_desc,
            tolerance=_decimal(tol), max_residual=residual,
            status=status, notes=notes))
    entries.sort(key=lambda e: e.id)

    # informative residual of the underdetermined symmetric construction
    for j in (1, 2):
        rep = angular.verify_symmetric(j)
        diagnostics.append(str(rep))

    return VerificationReport(precision=precision, seed=seed,
                              entries=tuple(entries), diagnostics=tuple(diagnostics))
