"""Truncated Fock-space realization of the Golden oscillator.

The ladder operators carry Fibonacci matrix elements,

    b+|n> = sqrt(F_{n+1}) |n+1>,     b|n> = sqrt(F_n) |n-1>,

so b+b = diag(F_n) and the deformed relations

    b b+ - phi b+ b = (-1/phi)^N,    b b+ + (1/phi) b+ b = phi^N

hold on every state below the truncation boundary.  The Hamiltonian
(hbar*omega/2)(b+b + bb+) is diagonal with entries (hbar*omega/2) F_{n+2}:
the spectrum is the Fibonacci sequence and successive level ratios converge
to the golden ratio.

Every ladder of the library is a WeightedShift, whose products with its
transpose are exact diagonals: the identities above are checked in Z and
Z[phi] at any size, and the dense matrices are views built on first use.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, sqrt
from typing import TYPE_CHECKING, Callable

from .core import (
    DEFAULT_DPS,
    MAX_FIB_INDEX,
    DomainError,
    ZPhi,
    _at_precision,
    _integer,
    _rational,
    _require,
    fib_exact,
    fib_range,
)

if TYPE_CHECKING:
    import numpy as np

MAX_LADDER_DIM = 200
MAX_SPECTRUM_INDEX = 10**3

# i**t for t quarter turns; 1 and -1 stay ints so real products stay exact,
# and complex(0, -1) has a +0.0 real part where the literal -1j has -0.0.
_I_POWERS = (1, 1j, -1, complex(0, -1))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _diagonal_view(values) -> np.ndarray:
    import numpy as np
    return _freeze(np.diag(np.array([complex(v) for v in values], dtype=np.complex128)))


@dataclass(frozen=True)
class WeightedShift:
    """The raising ladder R|k> = i^turns[k] sqrt(sq[k]) |k+1>, k = 0 .. dim-2.

    Its lowering partner L is the transpose of R (the adjoint too when all
    phases are real), so with w_k = (-1)^turns[k] sq[k] both products are
    diagonal: R L = diag(0, w_0, ...) and L R = diag(..., w_{dim-2}, 0).
    sq holds integers (F_n or F_a F_b) for every ladder but the symmetric
    angular variant, whose squared weights are complex floats.
    """

    sq: tuple
    turns: tuple

    def products(self) -> tuple[list, list]:
        """Diagonals of R L and L R, raising times lowering and the reverse."""
        w = [-s if t % 2 else s for s, t in zip(self.sq, self.turns)]
        return [0] + w, w + [0]

    def step_defects(self, levels) -> list[float]:
        """|[D, R] - R| = |[D, L] + L| on each step k -> k+1, for D = diag(levels)."""
        return [float(abs(levels[k + 1] - levels[k] - 1)) * sqrt(abs(s))
                for k, s in enumerate(self.sq)]

    def raising(self) -> np.ndarray:
        """Dense complex matrix of R."""
        import numpy as np
        roots = [cmath.sqrt(s) if isinstance(s, complex) else sqrt(s) for s in self.sq]
        entries = [_I_POWERS[t % 4] * w if t % 4 else w for w, t in zip(roots, self.turns)]
        return np.diag(np.array(entries, dtype=np.complex128), -1)


class _Checked:
    """A report that passes when its `failures` tuple is empty."""

    @property
    def passed(self) -> bool:
        return not self.failures


def _tally(diffs: dict[str, list], state: Callable[[int], str]) -> tuple[dict[str, float], tuple[str, ...]]:
    """Each identity's largest |exact difference| (0.0 when all are zero), and one failure
    naming the identity and `state(k)` for each nonzero k-th difference."""
    residuals, failures = {}, []
    for name, values in diffs.items():
        residuals[name] = 0.0
        if any(values):  # magnitudes only on failure: a passing check makes plain comparisons
            mags = [abs(complex(v)) for v in values]
            residuals[name] = max(mags)
            failures += [f"{name} at {state(k)}: {mag:.3e}"
                         for k, (v, mag) in enumerate(zip(values, mags)) if v]
    return residuals, tuple(failures)


@dataclass(frozen=True)
class LadderSet:
    """b+ as a weighted shift with sq = (F_1, ..., F_{dim-1}); b, b_dag, n_op are dense views."""

    shift: WeightedShift

    @property
    def dim(self) -> int:
        return len(self.shift.sq) + 1

    @cached_property
    def b_dag(self) -> np.ndarray:
        return _freeze(self.shift.raising())

    @cached_property
    def b(self) -> np.ndarray:
        return _freeze(self.b_dag.T.copy())

    @cached_property
    def n_op(self) -> np.ndarray:
        return _diagonal_view(range(self.dim))


def build_ladder(dim: int) -> LadderSet:
    """The Golden ladder at truncation dim: b+|n> = sqrt(F_{n+1}) |n+1>."""
    _integer("dim", dim, 2, MAX_LADDER_DIM)
    fibs = fib_range(1, dim - 1)  # F_1 .. F_{dim-1}
    return LadderSet(WeightedShift(tuple(fibs), (0,) * len(fibs)))


@dataclass(frozen=True)
class OscillatorAlgebraReport(_Checked):
    """Max-entry residuals of the defining operator identities."""

    dim: int
    residuals: dict[str, float]
    failures: tuple[str, ...]


def _deformed_differences(bdb, bbd):
    """(b b+ - phi b+b - (-1/phi)^n, b b+ + b+b / phi - phi^n) on each state n: a ZPhi, or the int 0.

    bdb and bbd are the diagonals of b+b and b b+ from n = 0; with 1/phi = phi - 1 the
    left-hand sides are y - x phi and (y - x) + x phi. The right-hand sides are running products
    on int coordinates a + b phi: -1/phi = 1 - phi steps (a, b) to (a - b, -a), phi to (b, a + b).
    """
    ma, mb, pa, pb = 1, 0, 1, 0  # (-1/phi)^0 and phi^0
    for x, y in zip(bdb, bbd):
        da, db, ea, eb = y - ma, -x - mb, y - x - pa, x - pb
        yield (da or db) and ZPhi(da, db), (ea or eb) and ZPhi(ea, eb)
        ma, mb, pa, pb = ma - mb, -ma, pb, pa + pb


def verify_oscillator_algebra(dim: int) -> OscillatorAlgebraReport:
    """Check the deformed commutation relations on the interior states of build_ladder(dim).

    b+b and bb+ are exact diagonals of the ladder's shift: every identity is
    checked below the truncated top state, in Z[phi] or Z, with residuals
    the largest magnitude of an exact difference (0.0 for a true ladder).
    Every nonzero difference fails, however small its magnitude, with one
    failure naming its state:

      * b b+ - phi b+ b = (-1/phi)^N
      * b b+ + (1/phi) b+ b = phi^N
      * [N, b+] = b+  and  [N, b] = -b
      * the operator recurrence  F_{N+1} = F_N + F_{N-1}  (diagonal form)
    """
    shift = build_ladder(_integer("dim", dim, 3, MAX_LADDER_DIM)).shift  # 3: a nontrivial interior
    bdb, bbd = shift.products()
    minus, plus = zip(*_deformed_differences(bdb, bbd[:-1]))  # the top state is truncated
    steps = shift.step_defects(range(dim))
    residuals, failures = _tally(
        {"deformed_commutator_minus": minus, "deformed_commutator_plus": plus,
         "number_raises": steps, "number_lowers": steps,
         "fibonacci_recurrence": [y - x - f for x, y, f in zip(bdb, bbd, fib_range(-1, dim - 3))]},
        "state {}".format)
    return OscillatorAlgebraReport(dim=dim, residuals=residuals, failures=failures)


def diagonal_identities_exact(n_max: int = 100) -> bool:
    """Exact ring check of F_{n+1} - phi F_n = (-1/phi)^n and F_{n+1} + F_n / phi = phi^n.

    These are the oscillator's deformed relations on |n>, where b+b = F_n and
    b b+ = F_{n+1}; both are verified in Z[phi] for 0 <= n <= n_max, with n_max
    at most MAX_SPECTRUM_INDEX.  Any failure raises (they are theorems, not tolerances).
    """
    _integer("n_max", n_max, 0, MAX_SPECTRUM_INDEX)
    fibs = fib_range(0, n_max + 1)
    for n, (minus, plus) in enumerate(_deformed_differences(fibs, fibs[1:])):
        if minus or plus:
            raise ArithmeticError(f"deformed {'minus' if minus else 'plus'}-identity fails at n={n}")
    return True


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumTable:
    """Energy levels E_n = (hbar*omega/2) F_{n+2} and their successive ratios."""

    hbar_omega: Fraction
    levels: tuple[tuple[int, Fraction], ...]
    ratios: tuple[Fraction, ...]


# r_n = F_(n+3)/F_(n+2), shared by every spectrum call.  It grows by rebinding to a
# longer tuple, never in place: racing callers at worst both do the work.
_RATIOS: tuple[Fraction, ...] = (Fraction(2),)


def spectrum(n_max: int, hbar_omega: int | Fraction = 1) -> SpectrumTable:
    """Exact rational spectrum up to level n_max, for an hbar_omega > 0 given as an int or a Fraction.

    Levels are exact quotients hbar_omega F_(n+2) / 2; ratios are sliced from one
    per-process table of at most MAX_SPECTRUM_INDEX entries (~0.2 MB).
    """
    global _RATIOS
    _integer("n_max", n_max, 0, MAX_SPECTRUM_INDEX)
    hw = _rational("hbar_omega", hbar_omega)
    _require(hw > 0, "hbar_omega must be positive")
    num, den = hw.numerator, 2 * hw.denominator
    levels = tuple(enumerate(Fraction(num * f, den) for f in fib_range(2, n_max + 2)))
    ratios = _RATIOS
    if len(ratios) < n_max:
        # 1 + 1/r takes gcds against 1; Fraction(F_(n+3), F_(n+2)) would run Euclid on consecutive F's.
        grown, r = list(ratios), ratios[-1]
        while len(grown) < n_max:
            r = 1 + 1 / r
            grown.append(r)
        _RATIOS = ratios = tuple(grown)
    return SpectrumTable(hbar_omega=hw, levels=levels, ratios=ratios[:n_max])


def hamiltonian(ladder: LadderSet) -> np.ndarray:
    """(b+b + bb+)/2 in units of hbar*omega; diagonal with entries F_(n+2)/2 on interior states."""
    import numpy as np  # halve the exact diagonal, not a dense matrix: the same bytes, one array fewer
    return np.diag(np.array([0.5 * complex(v) for v in map(sum, zip(*ladder.shift.products()))],
                            dtype=np.complex128))


# ---------------------------------------------------------------------------
# Number-operator inversion
# ---------------------------------------------------------------------------

def invert_number(fib_value: int, parity: str) -> int:
    """Recover the index n from F_n and the parity class of n.

    Uses the plus branch n = log_phi(sqrt(5)/2 F + sqrt(5F^2/4 ± 1)) with +1
    under the radical for even n and -1 for odd n; the result is rounded to
    the nearest integer and the round trip F_n == fib_value is enforced.
    The F_1 = F_2 = 1 ambiguity resolves through the parity argument
    (odd -> 1, even -> 2).  The exact round trip decides every answer, so no
    precision is taken: the branch runs at DEFAULT_DPS (34) plus the guard
    digits whatever the size of F.  For F = F_n its argument is exactly phi^n,
    as sqrt(5 F_n^2/4 ± 1) = L_n/2 (L Lucas), so the logarithm is off by about
    n units in the last working digit, far below 1/2 for every n <= MAX_FIB_INDEX.
    """
    _integer("value", fib_value, 1, inf)
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    with _at_precision(DEFAULT_DPS) as mp:
        F = mp.mpf(fib_value)
        radicand = 5 * F ** 2 / 4 + (1 if parity == "even" else -1)
        arg = mp.sqrt(5) / 2 * F + mp.sqrt(radicand)
        n = int(mp.nint(mp.log(arg) / mp.log(mp.phi)))
    if n > MAX_FIB_INDEX or n % 2 != (parity == "odd") or fib_exact(n) != fib_value:
        bits = fib_value.bit_length()  # str() refuses ints past the int-to-str digit limit
        shown = fib_value if bits <= 4096 else f"a {bits}-bit integer"
        raise DomainError(
            f"{shown} is not a Fibonacci number with {parity} index (round-trip failed)")
    return n
