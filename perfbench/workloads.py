"""Seeded inputs, the library call for each operation, and its output check.

An operation is a dict such as {"op": "golden_exp", "x": 1.0, ...}; it is
plain data, so a run's inputs can be hashed and compared. `schedule` yields
operations for ever from (workload, seed). Parameters are drawn in shuffled
blocks of strata, so every stretch of a run covers each parameter's whole
range in the same proportions and medians do not depend on a lucky draw.

Each check returns an Outcome. A wrong value or an exception is a failure;
it is "known" only when it matches one of KNOWN_DEFECTS by its mechanism and
size, never by input. Anything else is "unexpected".
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("verify", "exact", "numeric")
PRECISIONS = (34, 60, 100)
MAX_LADDER_DIM = 200   # oscillator.MAX_LADDER_DIM
MAX_J2 = 50            # 2 * angular.MAX_J
VERIFY_SUITES = 32
VERIFY_KNOWN_DEVIATIONS = frozenset({
    "core.pi-extension-scale",
    "calculus.antiderivative-convention",
    "oscillator.number-inversion-branch",
})
# A float-matrix residual this small relative to the largest entry is rounding.
ROUNDING = 1e-12
# calculus.STOP_RATIO: series stop once a term is 1e-30 of the sum.
STOP_RATIO_REACH = 1e-29

KNOWN_DEFECTS = {
    "calculus.fixed-stop-ratio":
        "series stop at a term 1e-30 of the sum whatever precision is asked, "
        "so they miss the requested digits while ~30 are right",
    "oscillator.absolute-tolerance":
        "dense float ladder checked against an absolute 1e-12; the residual is "
        "rounding-level relative to F_dim",
    "angular.absolute-tolerance":
        "dense float su_F(2)/tilde matrices checked against absolute tolerances; "
        "the residual is rounding-level relative to F_(2j+1)",
}


@dataclass(frozen=True)
class Outcome:
    status: str          # "ok" | "known" | "unexpected"
    detail: str = ""
    defect: str = ""


OK = Outcome("ok")


def _fail(detail: str) -> Outcome:
    return Outcome("unexpected", detail)


def _known(defect: str, detail: str) -> Outcome:
    return Outcome("known", detail, defect)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

class _Strata:
    """Uniforms in [0, 1): each block of `n` draws hits each of n strata once."""

    def __init__(self, rng: random.Random, n: int) -> None:
        self.rng = rng
        self.n = n
        self.block: list[int] = []

    def u(self) -> float:
        if not self.block:
            self.block = list(range(self.n))
            self.rng.shuffle(self.block)
        return (self.block.pop() + self.rng.random()) / self.n

    def pick(self, options):
        return options[int(self.u() * len(options))]

    def integer(self, lo: int, hi: int) -> int:
        return lo + int(self.u() * (hi - lo + 1))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.u() * (hi - lo)


class _Draw:
    """One stratified stream per (operation, parameter) name."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.streams: dict[str, _Strata] = {}

    def __call__(self, name: str, strata: int) -> _Strata:
        if name not in self.streams:
            self.streams[name] = _Strata(self.rng, strata)
        return self.streams[name]


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _signed_log_uniform(s: _Strata, rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return rng.choice((-1.0, 1.0)) * 10 ** s.uniform(lo_exp, hi_exp)


def _exact_round(d: _Draw, rng: random.Random) -> list[dict]:
    a = Fraction(d("poly.a.num", 19).integer(-9, 9), d("poly.a.den", 9).integer(1, 9))
    ops = [
        {"op": "fib_exact", "n": int(10 ** d("fib.n", 12).uniform(3, 6))},
        {"op": "fibonomial_row", "n": d("row.n", 12).integer(100, 300)},
        {"op": "golden_binomial", "n": d("binom.n", 31).integer(0, 30)},
        {"op": "noncomm_expand", "n": d("noncomm.n", 13).integer(0, 12)},
        {"op": "golden_polynomial", "n": d("poly.n", 31).integer(0, 30), "a": _frac(a)},
        {"op": "remarkable_limit_lhs", "y": d("limit.y", 10).uniform(-5, 5),
         "n": d("limit.n", 20).integer(1, 200)},
        {"op": "diagonal_identities_exact", "n_max": d("diag.n", 10).integer(1, 300)},
    ]
    rng.shuffle(ops)
    return ops


def _numeric_round(d: _Draw, rng: random.Random) -> list[dict]:
    ops = []
    for op, kinds in (("golden_exp", ("small_e", "big_E")),
                      ("golden_trig", ("cos_F", "sin_F", "Cosh_F", "Sinh_F"))):
        ops.append({"op": op, "x": _signed_log_uniform(d(op + ".x", 10), rng, -3, 2),
                    "kind": d(op + ".kind", len(kinds)).pick(kinds),
                    "precision": d(op + ".dps", 3).pick(PRECISIONS)})
    ops.append({"op": "GoldenSeries.evaluate",
                "x": _signed_log_uniform(d("series.x", 10), rng, -3, 1.5),
                "kind": d("series.kind", 2).pick(("small_e", "big_E")),
                "k": d("series.k", 4).pick((2, 3, -1, -2)),
                "precision": d("series.dps", 3).pick(PRECISIONS)})
    degree = d("anti.deg", 5).integer(0, 4)
    ops.append({"op": "jackson_antiderivative",
                "coeffs": [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)],
                "x": rng.choice((-1.0, 1.0)) * d("anti.x", 10).uniform(0.1, 5),
                "precision": d("anti.dps", 3).pick(PRECISIONS)})
    real_only = d("fibx.real", 2).pick((True, False))
    ops.append({"op": "fib_extended", "re": d("fibx.re", 10).uniform(-1000, 1000),
                "im": 0.0 if real_only else d("fibx.im", 10).uniform(-1000, 1000),
                "precision": d("fibx.dps", 3).pick(PRECISIONS)})
    ops.append({"op": "jackson_exp", "q": d("jexp.q", 3).pick(("golden", "2", "1")),
                "x": d("jexp.x", 10).uniform(-5, 5), "n_terms": d("jexp.n", 10).integer(1, 200),
                "precision": d("jexp.dps", 3).pick(PRECISIONS)})
    for op in ("build_ladder", "verify_oscillator_algebra", "hamiltonian"):
        ops.append({"op": op, "dim": d(op + ".dim", 18).integer(3, MAX_LADDER_DIM)})
    for op in ("build_suF2", "build_tilde", "build_symmetric",
               "verify_commutators", "verify_tilde", "casimir_suF2"):
        ops.append({"op": op, "j": _frac(Fraction(d(op + ".j2", MAX_J2 + 1).integer(0, MAX_J2), 2))})
    hw = Fraction(rng.randint(1, 20), rng.randint(1, 20))
    ops.append({"op": "spectrum", "n_max": d("spectrum.n", 10).integer(0, 1000),
                "hbar_omega": _frac(hw)})
    ops.append({"op": "invert_number", "n": d("invert.n", 10).integer(1, 1000)})
    rng.shuffle(ops)
    return ops


def _numeric_boundary() -> list[dict]:
    """Documented bounds and the points named in the defect list, run first."""
    ops = [{"op": "golden_exp", "x": 1.0, "kind": "small_e", "precision": p} for p in PRECISIONS]
    ops += [{"op": "verify_oscillator_algebra", "dim": dim} for dim in (3, 19, MAX_LADDER_DIM)]
    ops += [{"op": "verify_commutators", "j": "10/1"}, {"op": "casimir_suF2", "j": "20/1"},
            {"op": "verify_tilde", "j": "20/1"}, {"op": "build_suF2", "j": "25/1"},
            {"op": "build_tilde", "j": "49/2"}, {"op": "hamiltonian", "dim": MAX_LADDER_DIM},
            {"op": "spectrum", "n_max": 1000, "hbar_omega": "1/1"}]
    return ops


def schedule(workload: str, seed: int):
    """Endless, deterministic stream of operations for (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    draw = _Draw(rng)
    if workload == "verify":
        while True:
            yield {"op": "verify", "seed": rng.randrange(2 ** 31)}
    elif workload == "exact":
        while True:
            yield from _exact_round(draw, rng)
    elif workload == "numeric":
        yield from _numeric_boundary()
        while True:
            yield from _numeric_round(draw, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


DIGEST_OPS = 2000


def inputs_digest(workload: str, seed: int, count: int = DIGEST_OPS) -> str:
    """sha256 of the first `count` operations, as canonical JSON."""
    h = hashlib.sha256()
    for op in itertools.islice(schedule(workload, seed), count):
        h.update(json.dumps(op, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def describe(op: dict) -> str:
    args = ", ".join(f"{k}={v!r}" for k, v in op.items() if k != "op")
    return f"{op['op']}({args})"


def is_large(op: dict) -> bool:
    """Operator calls at dim >= 100 or j >= 20, reported as their own layer times."""
    if "dim" in op:
        return op["dim"] >= 100
    if "j" in op:
        return Fraction(op["j"]) >= 20
    return False


# ---------------------------------------------------------------------------
# Operations: prepare (untimed), call (timed), check (untimed)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    call: Callable                 # (lib, op, prepared) -> result, the timed part
    check: Callable                # (op, result) -> Outcome
    prepare: Callable = lambda lib, op: None   # untimed argument construction
    on_error: Callable | None = None  # (op, exception) -> Outcome


def _series_outcome(op: dict, value, reference, stop_ratio_applies: bool) -> Outcome:
    dps = op["precision"]
    err = ref.digits_error(value, reference, dps)
    if ref.meets_digits(err, dps):
        return OK
    detail = f"error {float(err):.2e} > 1e-{dps}"
    if stop_ratio_applies and err <= STOP_RATIO_REACH:
        return _known("calculus.fixed-stop-ratio", detail)
    return _fail(detail)


def _check_series_value(op: dict, sv, reference) -> Outcome:
    if not (isinstance(sv.terms_used, int) and sv.terms_used >= 1 and sv.tail_bound >= 0):
        return _fail(f"malformed SeriesValue terms_used={sv.terms_used} tail_bound={sv.tail_bound}")
    return _series_outcome(op, sv.value, reference, True)


# -- exact ------------------------------------------------------------------

def _check_fib(op, value):
    n = op["n"]
    if not isinstance(value, int) or value <= 0:
        return _fail(f"not a positive int: {type(value).__name__}")
    for p in ref.PRIMES:
        if value % p != ref.fib_mod(n, p):
            return _fail(f"F_n mod {p} differs from the matrix-power value")
    if not ref.fib_bits_plausible(n, value.bit_length()):
        return _fail(f"bit length {value.bit_length()} is not about n*log2(phi)")
    return OK


def _check_row(op, row):
    expect = ref.fibonomial_row(op["n"])
    if list(row) != expect:
        bad = next(k for k, (a, b) in enumerate(zip(row, expect)) if a != b) \
            if len(row) == len(expect) else "length"
        return _fail(f"row differs from the multiplicative reference at k={bad}")
    if list(row) != list(reversed(row)):
        return _fail("row is not symmetric")
    return OK


def _zphi_pairs(poly) -> dict:
    return {e: (c.a, c.b) for e, c in poly.coefficients.items()}


def _check_binomial(op, forms):
    n = op["n"]
    row = ref.fibonomial_row(n)
    expect = {(n - k, k): (ref.half_triangle_sign(k) * c, 0) for k, c in enumerate(row)}
    product, expansion = (_zphi_pairs(f) for f in forms)
    if product != expansion:
        return _fail("product form differs from expansion form")
    if expansion != expect:
        return _fail("expansion differs from the signed reference Fibonomials")
    return OK


def _check_noncomm(op, word):
    n = op["n"]
    row = ref.fibonomial_row(n)
    got = [(c.a, c.b) for c in word.coeffs]
    expect = []
    for k, c in enumerate(row):
        a, b = ref.phi_conj_power(k * (k - 1) // 2)
        expect.append((c * a, c * b))
    if word.n != n or got != expect:
        return _fail("coefficients differ from [n k]_F (-1/phi)^(k(k-1)/2)")
    return OK


def _check_polynomial(op, poly):
    n, a = op["n"], Fraction(op["a"])
    row = ref.fibonomial_row(n)
    fact = math.prod(ref.fib_list(n)[1:]) if n else 1
    expect = [Fraction(0)] * (n + 1)
    for k, c in enumerate(row):
        expect[n - k] = Fraction(ref.half_triangle_sign(k) * c) * (-a) ** k / fact
    if list(poly.coeffs) != expect or poly.shift != a:
        return _fail("coefficients differ from (x-a)_F^n / F_n! by reference Fibonomials")
    return OK


def _check_limit(op, value):
    return _series_outcome({"precision": 34}, value, ref.limit_sum(op["y"], op["n"], 34), False)


def _check_true(op, value):
    return OK if value is True else _fail(f"returned {value!r}")


# -- numeric: series -----------------------------------------------------------

def _jackson_base(op):
    """The same base value for the call and the reference: -phi^2 at the requested digits."""
    return ref.golden_base(op["precision"]) if op["q"] == "golden" else int(op["q"])


# -- numeric: operators --------------------------------------------------------

def _rel_close(got: np.ndarray, expect: np.ndarray, rtol: float) -> bool:
    return bool(np.all(np.abs(got - expect) <= rtol * np.maximum(np.abs(expect), 1e-300)))


def _sqrt_int(v: int) -> float:
    """Correctly rounded sqrt of an exact integer, also beyond 2**53."""
    if v < 2 ** 53:
        return math.sqrt(v)
    with ref.mp.workdps(40):
        return float(ref.mp.sqrt(v))


def _check_ladder(op, lad):
    dim = op["dim"]
    fibs = ref.fib_list(dim)
    sub = np.array([_sqrt_int(fibs[n + 1]) for n in range(dim - 1)])
    expect = np.diag(sub, -1).astype(np.complex128)
    if lad.dim != dim or lad.b_dag.shape != (dim, dim):
        return _fail("wrong dimension")
    if not _rel_close(lad.b_dag, expect, 1e-15) or np.count_nonzero(lad.b_dag) != dim - 1:
        return _fail("b+ is not the shift with entries sqrt(F_(n+1))")
    if not np.array_equal(lad.b, lad.b_dag.conj().T):
        return _fail("b is not the adjoint of b+")
    if not np.array_equal(lad.n_op, np.diag(np.arange(dim)).astype(np.complex128)):
        return _fail("N is not diag(0..dim-1)")
    return OK


def _check_oscillator_report(op, report):
    dim = op["dim"]
    if report.dim != dim or len(report.residuals) != 5:
        return _fail("report does not cover the five identities at this dim")
    if report.passed:
        return OK
    worst = max(report.residuals.values())
    scale = ref.fib(dim + 1)
    detail = f"residual {worst:.3e} > tol {report.tol:g} ({worst / scale:.1e} of F_{dim + 1})"
    if worst <= ROUNDING * scale:
        return _known("oscillator.absolute-tolerance", detail)
    return _fail(detail)


def _check_hamiltonian(op, h):
    dim = op["dim"]
    fibs = ref.fib_list(dim + 1)
    diag = np.array([fibs[n + 2] / 2 for n in range(dim - 1)] + [fibs[dim - 1] / 2])
    scale = float(fibs[dim + 1])
    if h.shape != (dim, dim) or not _rel_close(np.diag(h), diag.astype(np.complex128), 1e-14):
        return _fail("diagonal is not (F_(n+2))/2 on interior states")
    if np.max(np.abs(h - np.diag(np.diag(h)))) > ROUNDING * scale:
        return _fail("off-diagonal entries are not zero")
    return OK


def _spin(op) -> tuple[Fraction, list[Fraction]]:
    j = Fraction(op["j"])
    return j, [Fraction(k) - j for k in range(int(2 * j) + 1)]


def _check_jz(rep, ms) -> bool:
    return np.array_equal(rep.j_z, np.diag([float(m) for m in ms]).astype(np.complex128))


def _ladder_entries(ms, amp_plus, amp_minus):
    dim = len(ms)
    plus = np.zeros((dim, dim), dtype=np.complex128)
    minus = np.zeros((dim, dim), dtype=np.complex128)
    for k, m in enumerate(ms):
        if k + 1 < dim:
            plus[k + 1, k] = amp_plus(m)
        if k > 0:
            minus[k - 1, k] = amp_minus(m)
    return plus, minus


def _suF2_eigenvalue(j: Fraction) -> complex:
    """(-1)^(-j) F_j F_(j+1), principal phase at half-integer j."""
    return ref.principal_minus_one_power(-j) * ref.analytic_fib(j) * ref.analytic_fib(j + 1)


def _check_suF2(op, rep):
    j, ms = _spin(op)
    plus, _ = _ladder_entries(
        ms, lambda m: _sqrt_int(ref.fib(int(j - m)) * ref.fib(int(j + m + 1))), lambda m: 0)
    if not _rel_close(rep.j_plus, plus, 1e-15) or np.count_nonzero(rep.j_plus) != np.count_nonzero(plus):
        return _fail("J+ entries are not sqrt(F_(j-m) F_(j+m+1))")
    if not np.array_equal(rep.j_minus, rep.j_plus.conj().T) or not _check_jz(rep, ms):
        return _fail("J- is not the adjoint of J+, or Jz is not diag(m)")
    eig = _suF2_eigenvalue(j)
    dev = float(np.max(np.abs(rep.casimir - eig * np.eye(len(ms)))))
    if dev > ROUNDING * ref.spin_scale(j):
        return _fail(f"Casimir differs from (-1)^-j F_j F_(j+1) by {dev:.3e}")
    return OK


def _check_tilde(op, rep):
    j, ms = _spin(op)
    pw = ref.principal_minus_one_power
    plus, minus = _ladder_entries(
        ms,
        lambda m: pw(Fraction(-(int(j - m) - 1), 2)) * _sqrt_int(ref.fib(int(j - m)) * ref.fib(int(j + m + 1))),
        lambda m: pw(Fraction(-int(j - m), 2)) * _sqrt_int(ref.fib(int(j + m)) * ref.fib(int(j - m + 1))))
    if not (_rel_close(rep.j_plus, plus, 1e-14) and _rel_close(rep.j_minus, minus, 1e-14)):
        return _fail("tilde ladder entries differ from i-power phase times sqrt(F F)")
    if not _check_jz(rep, ms):
        return _fail("Jz is not diag(m)")
    eig = [pw(m) * ref.analytic_fib(m) * ref.analytic_fib(m + 1)
           + pw(j) * ref.analytic_fib(j - m) * ref.analytic_fib(j + m + 1) for m in ms]
    dev = float(np.max(np.abs(rep.casimir - np.diag(eig))))
    if dev > ROUNDING * ref.spin_scale(j):
        return _fail(f"tilde Casimir differs from its per-state eigenvalue by {dev:.3e}")
    return OK


def _check_symmetric(op, rep):
    j, ms = _spin(op)
    sym = ref.symmetric_number
    plus, minus = _ladder_entries(
        ms, lambda m: cmath.sqrt(sym(int(j - m)) * sym(int(j + m + 1))),
        lambda m: cmath.sqrt(sym(int(j + m)) * sym(int(j - m + 1))))
    if not (_rel_close(rep.j_plus, plus, 1e-12) and _rel_close(rep.j_minus, minus, 1e-12)):
        return _fail("symmetric ladder entries differ from sqrt([a][b])")
    if not _check_jz(rep, ms) or rep.casimir is not None:
        return _fail("Jz is not diag(m), or a Casimir is set")
    return OK


def _angular_rounding(op, worst: float, what: str) -> Outcome:
    j = Fraction(op["j"])
    scale = ref.spin_scale(j)
    detail = f"{what} {worst:.3e} ({worst / scale:.1e} of F_{int(2 * j) + 1})"
    if worst <= ROUNDING * scale:
        return _known("angular.absolute-tolerance", detail)
    return _fail(detail)


def _check_commutators(op, report):
    if report.passed:
        return OK
    if not report.exact_identity_ok:
        return _fail("exact d'Ocagne identity reported false")
    return _angular_rounding(op, max(report.max_ladder_residual, report.max_z_residual),
                             "commutator residual")


def _check_tilde_report(op, report):
    if report.passed:
        return OK
    worst = max(report.anticommutator_residual, report.offdiagonal_max,
                report.casimir_form_difference, report.casimir_eigenvalue_deviation)
    return _angular_rounding(op, worst, "tilde residual")


def _check_casimir(op, result):
    j, ms = _spin(op)
    eig = _suF2_eigenvalue(j)
    tol = ROUNDING * ref.spin_scale(j)
    if abs(result.eigenvalue - eig) > tol:
        return _fail(f"eigenvalue {result.eigenvalue} differs from {eig}")
    if float(np.max(np.abs(result.matrix - eig * np.eye(len(ms))))) > tol:
        return _fail("Casimir matrix is not the eigenvalue times the identity")
    return OK


_DIFF = re.compile(r"Casimir forms disagree at j=\S+: max difference (\S+)$")


def _casimir_error(op, exc):
    match = _DIFF.match(str(exc))
    if type(exc).__name__ == "DomainError" and match:
        return _angular_rounding(op, float(match.group(1)), "raised DomainError, form difference")
    return _fail(f"raised {type(exc).__name__}: {exc}")


def _check_spectrum(op, table):
    n_max, hw = op["n_max"], Fraction(op["hbar_omega"])
    fibs = ref.fib_list(n_max + 2)
    levels = tuple((n, hw * fibs[n + 2] / 2) for n in range(n_max + 1))
    ratios = tuple(Fraction(fibs[n + 3], fibs[n + 2]) for n in range(n_max))
    if table.hbar_omega != hw or table.levels != levels or table.ratios != ratios:
        return _fail("levels or ratios differ from hw F_(n+2) / 2")
    return OK


def _check_invert(op, n):
    return OK if n == op["n"] else _fail(f"returned {n}")


# -- verify ------------------------------------------------------------------

def _check_verify(op, outcome):
    code, record = outcome
    if code != 0 or record is None:
        return _fail(f"exit code {code}")
    body = json.loads(record.payload)
    report = body["value"]
    statuses = {e["id"]: e["status"] for e in report["entries"]}
    expect = {i: ("known-deviation" if i in VERIFY_KNOWN_DEVIATIONS else "pass") for i in statuses}
    if len(statuses) != VERIFY_SUITES or statuses != expect or report["seed"] != op["seed"]:
        bad = sorted(i for i in statuses if statuses[i] != expect[i])
        return _fail(f"{len(statuses)} suites, unexpected statuses {bad}, summary {report['summary']}")
    return OK


def _series(op, sv, coefficient):
    return _check_series_value(op, sv, ref.series_sum(coefficient, op["x"], op["precision"]))


def _spin_call(fn):
    return lambda lib, op, _: getattr(lib.angular, fn)(Fraction(op["j"]))


OPS: dict[str, Op] = {
    "verify": Op(lambda lib, op, _: lib.cli.run_command(
        ["verify", "--format", "json", "--seed", str(op["seed"])]), _check_verify),
    "fib_exact": Op(lambda lib, op, _: lib.core.fib_exact(op["n"]), _check_fib),
    "fibonomial_row": Op(lambda lib, op, _: [lib.binomials.fibonomial(op["n"], k)
                                             for k in range(op["n"] + 1)], _check_row),
    "golden_binomial": Op(lambda lib, op, _: (lib.binomials.golden_binomial(op["n"], "product"),
                                              lib.binomials.golden_binomial(op["n"], "expansion")),
                          _check_binomial),
    "noncomm_expand": Op(lambda lib, op, _: lib.binomials.noncomm_expand(op["n"]), _check_noncomm),
    "golden_polynomial": Op(lambda lib, op, a: lib.binomials.golden_polynomial(op["n"], a),
                            _check_polynomial, prepare=lambda lib, op: Fraction(op["a"])),
    "remarkable_limit_lhs": Op(lambda lib, op, _: lib.binomials.remarkable_limit_lhs(op["y"], op["n"]),
                               _check_limit),
    "diagonal_identities_exact": Op(
        lambda lib, op, _: lib.oscillator.diagonal_identities_exact(op["n_max"]), _check_true),
    "golden_exp": Op(
        lambda lib, op, _: lib.calculus.golden_exp(op["x"], op["kind"], precision=op["precision"]),
        lambda op, sv: _series(op, sv, ref.exp_coefficient(op["kind"]))),
    "golden_trig": Op(
        lambda lib, op, _: lib.calculus.golden_trig(op["x"], op["kind"], precision=op["precision"]),
        lambda op, sv: _series(op, sv, ref.trig_coefficient(op["kind"]))),
    "GoldenSeries.evaluate": Op(
        lambda lib, op, _: lib.calculus.golden_exp_series(op["kind"], op["k"]).evaluate(
            op["x"], precision=op["precision"]),
        lambda op, sv: _series(op, sv, ref.exp_coefficient(op["kind"], op["k"]))),
    "jackson_antiderivative": Op(
        lambda lib, op, g: lib.calculus.jackson_antiderivative(g, op["x"], precision=op["precision"]),
        lambda op, v: _series_outcome(
            op, v, ref.antiderivative(op["coeffs"], op["x"], op["precision"]), True),
        prepare=lambda lib, op: lib.binomials.UnivarPoly(coeffs=tuple(op["coeffs"]))),
    "fib_extended": Op(
        lambda lib, op, _: lib.core.fib_extended(complex(op["re"], op["im"]), op["precision"]),
        lambda op, gv: _series_outcome(
            op, gv.value, ref.binet(complex(op["re"], op["im"]), op["precision"]), False)),
    "jackson_exp": Op(
        lambda lib, op, q: lib.binomials.jackson_exp(q, op["x"], op["n_terms"], op["precision"]),
        lambda op, v: _series_outcome(op, v, ref.jackson_partial_sum(
            _jackson_base(op), op["x"], op["n_terms"], op["precision"]), False),
        prepare=lambda lib, op: _jackson_base(op)),
    "build_ladder": Op(lambda lib, op, _: lib.oscillator.build_ladder(op["dim"]), _check_ladder),
    "verify_oscillator_algebra": Op(
        lambda lib, op, _: lib.oscillator.verify_oscillator_algebra(op["dim"]), _check_oscillator_report),
    "hamiltonian": Op(
        lambda lib, op, _: lib.oscillator.hamiltonian(lib.oscillator.build_ladder(op["dim"])),
        _check_hamiltonian),
    "build_suF2": Op(_spin_call("build_suF2"), _check_suF2),
    "build_tilde": Op(_spin_call("build_tilde"), _check_tilde),
    "build_symmetric": Op(_spin_call("build_symmetric"), _check_symmetric),
    "verify_commutators": Op(_spin_call("verify_commutators"), _check_commutators),
    "verify_tilde": Op(_spin_call("verify_tilde"), _check_tilde_report),
    "casimir_suF2": Op(_spin_call("casimir_suF2"), _check_casimir, on_error=_casimir_error),
    "spectrum": Op(lambda lib, op, hw: lib.oscillator.spectrum(op["n_max"], hw), _check_spectrum,
                   prepare=lambda lib, op: Fraction(op["hbar_omega"])),
    "invert_number": Op(
        lambda lib, op, value: lib.oscillator.invert_number(value, "odd" if op["n"] % 2 else "even"),
        _check_invert, prepare=lambda lib, op: ref.fib(op["n"])),
}

SERIES_OPS = frozenset({"golden_exp", "golden_trig", "GoldenSeries.evaluate",
                        "jackson_antiderivative", "fib_extended", "jackson_exp"})


def check(op: dict, result, error: BaseException | None) -> Outcome:
    """Outcome of one operation; a check that itself raises is a failure too."""
    spec = OPS[op["op"]]
    try:
        if error is not None:
            if spec.on_error is not None:
                return spec.on_error(op, error)
            return _fail(f"raised {type(error).__name__}: {error}")
        return spec.check(op, result)
    except Exception as exc:  # a malformed result must not abort the run
        return _fail(f"check raised {type(exc).__name__}: {exc}")
