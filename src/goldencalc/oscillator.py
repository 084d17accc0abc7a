"""Truncated Fock-space realization of the Golden oscillator.

The ladder operators carry Fibonacci matrix elements,

    b+|n> = sqrt(F_{n+1}) |n+1>,     b|n> = sqrt(F_n) |n-1>,

so b+b = diag(F_n) and the deformed relations

    b b+ - phi b+ b = (-1/phi)^N,    b b+ + (1/phi) b+ b = phi^N

hold on every state below the truncation boundary.  The Hamiltonian
(hbar*omega/2)(b+b + bb+) is diagonal with entries (hbar*omega/2) F_{n+2}:
the spectrum is the Fibonacci sequence and successive level ratios converge
to the golden ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import mpmath
import numpy as np
from mpmath import mp

from .core import (
    DEFAULT_DPS,
    GUARD_DPS,
    MAX_FIB_INDEX,
    MAX_RATIO_INDEX,
    MIN_DPS,
    DomainError,
    ZPhi,
    _PHI,
    _require,
    fib_exact,
    fib_range,
)

MAX_LADDER_DIM = 200
MAX_SPECTRUM_INDEX = 10**3


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LadderSet:
    """Ladder matrices b, b+ and the number operator at truncation dim."""

    dim: int
    b: np.ndarray
    b_dag: np.ndarray
    n_op: np.ndarray


def build_ladder(dim: int) -> LadderSet:
    """Dense complex ladder matrices with subdiagonal entries sqrt(F_{n+1})."""
    _require(isinstance(dim, int) and dim >= 2, "truncation dimension must be an integer >= 2")
    _require(dim <= MAX_LADDER_DIM, f"truncation dimension must not exceed {MAX_LADDER_DIM}")
    fibs = fib_range(1, dim - 1)  # F_1 .. F_{dim-1}
    sub = np.array([sqrt(f) for f in fibs], dtype=np.complex128)
    b_dag = np.diag(sub, -1)
    b = b_dag.conj().T.copy()
    n_op = np.diag(np.arange(dim, dtype=np.complex128))
    return LadderSet(dim=dim, b=_freeze(b), b_dag=_freeze(b_dag), n_op=_freeze(n_op))


@dataclass(frozen=True)
class OscillatorAlgebraReport:
    """Max-entry residuals of the defining operator identities."""

    dim: int
    tol: float
    residuals: dict[str, float]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed


def verify_oscillator_algebra(dim: int, tol: float = 1e-12,
                              ladder: LadderSet | None = None) -> OscillatorAlgebraReport:
    """Check the deformed commutation relations on the interior states.

    Residuals are absolute max-entry norms over the subspace excluding the
    top truncated state, for:

      * b b+ - phi b+ b = (-1/phi)^N
      * b b+ + (1/phi) b+ b = phi^N
      * [N, b+] = b+  and  [N, b] = -b
      * the operator recurrence  F_{N+1} = F_N + F_{N-1}  (diagonal form)
    """
    _require(dim >= 3, "need dimension >= 3 for a nontrivial interior")
    lad = ladder if ladder is not None else build_ladder(dim)
    b, bd, n_op = lad.b, lad.b_dag, lad.n_op
    d = lad.dim
    interior = slice(0, d - 1)

    bbd = b @ bd
    bdb = bd @ b
    n = np.arange(d)
    sign_over_phi = np.diag(((-1.0 / _PHI) ** n).astype(np.complex128))
    phi_pow = np.diag((_PHI ** n).astype(np.complex128))
    fib_prev = np.diag(np.array([float(fib_exact(k - 1)) for k in range(d)],
                                dtype=np.complex128))

    def interior_block(m: np.ndarray) -> np.ndarray:
        return m[interior, interior]

    blocks = {
        "deformed_commutator_minus": interior_block(bbd - _PHI * bdb - sign_over_phi),
        "deformed_commutator_plus": interior_block(bbd + bdb / _PHI - phi_pow),
        "number_raises": n_op @ bd - bd @ n_op - bd,
        "number_lowers": n_op @ b - b @ n_op + b,
        "fibonacci_recurrence": interior_block(bbd - bdb - fib_prev),
    }
    residuals: dict[str, float] = {}
    failures: list[str] = []
    for name, block in blocks.items():
        mags = np.abs(block)
        residuals[name] = float(np.max(mags))
        if residuals[name] > tol:
            r, c = np.unravel_index(int(np.argmax(mags)), mags.shape)
            failures.append(f"{name} at entry ({r}, {c}): {residuals[name]:.3e}")
    return OscillatorAlgebraReport(dim=d, tol=tol, residuals=residuals,
                                   failures=tuple(failures))


def diagonal_identities_exact(n_max: int = 100) -> bool:
    """Exact ring check of F_{n+1} - phi F_n = (-1/phi)^n and its twin.

    Both identities are verified in Z[phi] for 0 <= n <= n_max; any failure
    raises (they are theorems, not tolerances).
    """
    _require(n_max < MAX_FIB_INDEX, f"n_max must not exceed {MAX_FIB_INDEX - 1}")
    phi = ZPhi.phi()
    inv_phi = ZPhi.inv_phi()
    neg_inv_phi = ZPhi.phi_conjugate()
    # F_n, F_{n+1} by the recurrence; the right-hand sides as running ring products.
    fn, fn1 = 0, 1
    minus_rhs = plus_rhs = ZPhi(1, 0)
    for n in range(n_max + 1):
        lhs_minus = ZPhi(fn1, 0) - phi * fn
        if lhs_minus != minus_rhs:
            raise ArithmeticError(f"deformed minus-identity fails at n={n}")
        lhs_plus = ZPhi(fn1, 0) + inv_phi * fn
        if lhs_plus != plus_rhs:
            raise ArithmeticError(f"deformed plus-identity fails at n={n}")
        fn, fn1 = fn1, fn + fn1
        minus_rhs = minus_rhs * neg_inv_phi
        plus_rhs = plus_rhs * phi
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


def spectrum(n_max: int, hbar_omega: int | float | str | Fraction = 1) -> SpectrumTable:
    """Exact rational spectrum up to level n_max."""
    _require(isinstance(n_max, int) and n_max >= 0, "n_max must be a non-negative integer")
    _require(n_max <= MAX_SPECTRUM_INDEX, f"n_max must not exceed {MAX_SPECTRUM_INDEX}")
    hw = Fraction(str(hbar_omega)) if isinstance(hbar_omega, float) else Fraction(hbar_omega)
    _require(hw > 0, "hbar_omega must be positive")
    fibs = fib_range(2, n_max + 2)  # F_2 .. F_{n_max+2}
    levels = tuple((n, hw * fibs[n] / 2) for n in range(n_max + 1))
    ratios = tuple(levels[n + 1][1] / levels[n][1] for n in range(n_max))
    return SpectrumTable(hbar_omega=hw, levels=levels, ratios=ratios)


def energy_ratios(n_max: int, precision: int = DEFAULT_DPS) -> list[mpmath.mpf]:
    """r_n = E_{n+1}/E_n = F_{n+3}/F_{n+2} for n = 0..n_max; r_n -> phi."""
    _require(isinstance(n_max, int) and n_max >= 1, "n_max must be at least 1")
    _require(n_max <= MAX_RATIO_INDEX, f"n_max must not exceed {MAX_RATIO_INDEX}")
    _require(precision >= MIN_DPS, f"precision must be at least {MIN_DPS} digits")
    fibs = fib_range(2, n_max + 3)
    with mp.workdps(precision):
        return [mp.mpf(fibs[n + 1]) / fibs[n] for n in range(n_max + 1)]


def hamiltonian(ladder: LadderSet, hbar_omega: float = 1.0) -> np.ndarray:
    """(hbar*omega/2)(b+b + bb+); diagonal with entries E_n on interior states."""
    return hbar_omega / 2 * (ladder.b_dag @ ladder.b + ladder.b @ ladder.b_dag)


# ---------------------------------------------------------------------------
# Number-operator inversion and the map to standard bosons
# ---------------------------------------------------------------------------

def invert_number(fib_value: int, parity: str, precision: int = DEFAULT_DPS) -> int:
    """Recover the index n from F_n and the parity class of n.

    Uses the plus branch n = log_phi(sqrt(5)/2 F + sqrt(5F^2/4 ± 1)) with +1
    under the radical for even n and -1 for odd n; the result is rounded to
    the nearest integer and the round trip F_n == fib_value is enforced.
    The F_1 = F_2 = 1 ambiguity resolves through the parity argument
    (odd -> 1, even -> 2).
    """
    _require(isinstance(fib_value, int) and fib_value >= 1, "value must be a positive integer")
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    _require(precision >= MIN_DPS, f"precision must be at least {MIN_DPS} digits")
    digits = max(precision, len(str(fib_value)) + GUARD_DPS)
    with mp.workdps(digits):
        F = mp.mpf(fib_value)
        radicand = 5 * F ** 2 / 4 + (1 if parity == "even" else -1)
        arg = mp.sqrt(5) / 2 * F + mp.sqrt(radicand)
        n = int(mp.nint(mp.log(arg) / mp.log(mp.phi)))
    expected_parity = 0 if parity == "even" else 1
    if n % 2 != expected_parity or fib_exact(n) != fib_value:
        raise DomainError(
            f"{fib_value} is not a Fibonacci number with {parity} index (round-trip failed)")
    return n


@dataclass(frozen=True)
class NonlinearMap:
    """Diagonal scalings linking the deformed and standard ladder operators.

    scale_next holds sqrt(F_{n+1}/(n+1)); scale holds sqrt(F_n/n) with the
    n = 0 entry set to 1 by convention (it never multiplies a ladder entry).
    Then  b+ = a+ @ diag(scale_next) = diag(scale) @ a+  where a+ is the
    standard boson raising matrix with entries sqrt(n+1).
    """

    dim: int
    scale_next: np.ndarray
    scale: np.ndarray


def nonlinear_map(dim: int) -> NonlinearMap:
    _require(isinstance(dim, int) and dim >= 2, "dimension must be an integer >= 2")
    _require(dim <= MAX_LADDER_DIM, f"dimension must not exceed {MAX_LADDER_DIM}")
    fibs = fib_range(0, dim)  # F_0 .. F_dim
    scale_next = np.array([sqrt(fibs[n + 1] / (n + 1)) for n in range(dim)],
                          dtype=np.complex128)
    scale = np.array([1.0 if n == 0 else sqrt(fibs[n] / n) for n in range(dim)],
                     dtype=np.complex128)
    return NonlinearMap(dim=dim, scale_next=_freeze(scale_next), scale=_freeze(scale))


def standard_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Undeformed boson matrices (a, a+) with entries sqrt(n)."""
    sub = np.sqrt(np.arange(1, dim, dtype=np.float64)).astype(np.complex128)
    a_dag = np.diag(sub, -1)
    return a_dag.conj().T.copy(), a_dag
