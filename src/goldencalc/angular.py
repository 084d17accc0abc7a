"""Deformed angular momentum from double Golden bosons.

Three constructions on the (2j+1)-dimensional state lattice |j, m>:

* standard_F    — J+|j,m> = sqrt(F_{j-m} F_{j+m+1}) |j,m+1>, J- its adjoint;
                  the commutator [J+, J-] is diagonal with entries
                  (-1)^{j-m} F_{2m}, by the exact integer identity
                  F_{j+m} F_{j-m+1} - F_{j-m} F_{j+m+1} = (-1)^{j-m} F_{2m}.
* symmetric_iphi — ladder amplitudes from the symmetric basic numbers
                  [n] = ((i*phi)^n - (i/phi)^n) / (i*phi - i/phi); the target
                  commutator relation is *verified and reported*, never
                  assumed (the construction is genuinely underdetermined and
                  misses the relation by a unit phase).
* tilde_F       — phase-dressed generators whose anti-commutator is exactly
                  diagonal with entries F_{2m}; phases are i-powers fixed by
                  the double-boson operator ordering, with (-1)^{1/2} = i.

Half-integer j is supported throughout (j-m is always an integer on the
lattice); phase-bearing results at half-integer j are convention-dependent
(principal branch (-1)^x = exp(i*pi*x)).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Literal

import mpmath
import numpy as np
from mpmath import mp

from .core import (
    DEFAULT_DPS,
    MAX_RATIO_INDEX,
    MIN_DPS,
    DomainError,
    _PHI,
    _require,
    fib_exact,
    fib_extended,
    fib_range,
)
from .oscillator import _freeze

MAX_J = 25

Variant = Literal["standard_F", "symmetric_iphi", "tilde_F"]

def _validate_j(j) -> Fraction:
    jf = Fraction(j)
    _require(jf >= 0, "spin label j must be non-negative")
    _require((2 * jf).denominator == 1, "2j must be an integer")
    _require(jf <= MAX_J, f"spin label must not exceed {MAX_J}")
    return jf


def _m_values(j: Fraction) -> list[Fraction]:
    """m = -j .. j ascending; basis index k = m + j."""
    return [m - j for m in range(int(2 * j) + 1)]


def _fib_at(m: Fraction) -> complex:
    """F_m: exact integer for integer m, analytic extension otherwise."""
    if m.denominator == 1:
        return float(fib_exact(int(m)))
    return complex(fib_extended(float(m), DEFAULT_DPS).value)


def _half_power(exponent: Fraction | int) -> complex:
    """(-1)**exponent on the principal branch exp(i*pi*exponent)."""
    e = Fraction(exponent)
    if e.denominator == 1:
        return -1.0 + 0j if int(e) % 2 else 1.0 + 0j
    return cmath.exp(1j * cmath.pi * float(e))


@dataclass(frozen=True)
class AngularRep:
    """One deformed angular-momentum representation at spin j."""

    j: Fraction
    variant: Variant
    j_plus: np.ndarray
    j_minus: np.ndarray
    j_z: np.ndarray
    casimir: np.ndarray | None


# ---------------------------------------------------------------------------
# standard_F
# ---------------------------------------------------------------------------

def build_suF2(j) -> AngularRep:
    """Fibonacci-deformed su(2) ladder matrices at spin j.

    J+|j,m> = sqrt(F_{j-m} F_{j+m+1}) |j,m+1>;  J- = (J+)^dagger;
    J_z = diag(m).  The Casimir matrix stored is the first of the two
    equivalent forms (see casimir_suF2).
    """
    jf = _validate_j(j)
    ms = _m_values(jf)
    dim = len(ms)
    j_plus = np.zeros((dim, dim), dtype=np.complex128)
    for k, m in enumerate(ms[:-1]):
        up = int(jf - m)       # F-index j-m
        down = int(jf + m + 1)  # F-index j+m+1
        j_plus[k + 1, k] = sqrt(fib_exact(up) * fib_exact(down))
    j_minus = j_plus.conj().T.copy()
    j_z = np.diag(np.array([float(m) for m in ms], dtype=np.complex128))
    casimir = _casimir_matrices(jf, j_plus, j_minus)[0]
    return AngularRep(j=jf, variant="standard_F", j_plus=_freeze(j_plus),
                      j_minus=_freeze(j_minus), j_z=_freeze(j_z), casimir=_freeze(casimir))


def _casimir_matrices(jf: Fraction, j_plus: np.ndarray,
                      j_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two written forms of the deformed Casimir operator.

    form1 = (-1)^{-Jz} (F_{Jz} F_{Jz+1} + (-1)^{-N2} J- J+)
    form2 = (-1)^{-Jz} (-F_{Jz} F_{Jz-1} + (-1)^{-N2} J+ J-)

    with N2 = j - Jz; phases are principal, F at half-integer arguments via
    the analytic extension.
    """
    ms = _m_values(jf)
    sign_mz = np.diag(np.array([_half_power(-m) for m in ms]))
    sign_n2 = np.diag(np.array([_half_power(-(jf - m)) for m in ms]))
    f_up = np.diag(np.array([_fib_at(m) * _fib_at(m + 1) for m in ms]))
    f_down = np.diag(np.array([_fib_at(m) * _fib_at(m - 1) for m in ms]))
    form1 = sign_mz @ (f_up + sign_n2 @ (j_minus @ j_plus))
    form2 = sign_mz @ (-f_down + sign_n2 @ (j_plus @ j_minus))
    return form1, form2


@dataclass(frozen=True)
class CasimirResult:
    """Casimir matrix, its theoretical eigenvalue, and self-consistency data."""

    j: Fraction
    matrix: np.ndarray
    eigenvalue: complex
    form_difference: float
    eigenvalue_deviation: float


def casimir_suF2(j, tol: float = 1e-10) -> CasimirResult:
    """Casimir of the standard_F representation.

    Both written forms must agree; the common eigenvalue is
    (-1)^{-j} F_j F_{j+1} (principal phase for half-integer j).
    """
    jf = _validate_j(j)
    rep = build_suF2(jf)
    form1, form2 = _casimir_matrices(jf, rep.j_plus, rep.j_minus)
    diff = float(np.max(np.abs(form1 - form2)))
    eig = _half_power(-jf) * _fib_at(jf) * _fib_at(jf + 1)
    dim = form1.shape[0]
    dev = float(np.max(np.abs(form1 - eig * np.eye(dim))))
    if diff > tol:
        raise DomainError(f"Casimir forms disagree at j={jf}: max difference {diff:.3e}")
    return CasimirResult(j=jf, matrix=form1, eigenvalue=complex(eig),
                         form_difference=diff, eigenvalue_deviation=dev)


def casimir_ratio(j_max: int, precision: int = DEFAULT_DPS) -> list[mpmath.mpf]:
    """Successive Casimir eigenvalue ratios -F_{j+1}/F_{j-1} for j = 2..j_max.

    The sequence converges to -phi**2.
    """
    _require(isinstance(j_max, int) and j_max >= 3, "j_max must be an integer >= 3")
    _require(j_max <= MAX_RATIO_INDEX, f"j_max must not exceed {MAX_RATIO_INDEX}")
    _require(precision >= MIN_DPS, f"precision must be at least {MIN_DPS} digits")
    fibs = fib_range(1, j_max + 1)
    with mp.workdps(precision):
        return [-mp.mpf(fibs[jj]) / fibs[jj - 2] for jj in range(2, j_max + 1)]


@dataclass(frozen=True)
class CommutatorReport:
    """Residuals of the ladder commutation relations at one spin."""

    j: Fraction
    tol: float
    max_ladder_residual: float
    max_z_residual: float
    exact_identity_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed


def verify_commutators(j, tol: float = 1e-12) -> CommutatorReport:
    """Check [J+, J-] = diag((-1)^{j-m} F_{2m}) and [Jz, J±] = ±J±.

    The diagonal claim is verified twice: as the exact integer identity
    F_{j+m} F_{j-m+1} - F_{j-m} F_{j+m+1} = (-1)^{j-m} F_{2m}, and as a dense
    matrix residual.  Both written forms of the diagonal ((-1)^{N2} F_{2Jz}
    and -(-1)^{N1} F_{-2Jz}) are cross-checked through
    F_{-2m} = (-1)^{2m+1} F_{2m}.
    """
    jf = _validate_j(j)
    rep = build_suF2(jf)
    ms = _m_values(jf)
    failures: list[str] = []

    exact_ok = True
    for m in ms:
        a = int(jf + m)
        bb = int(jf - m)
        two_m = int(2 * m)
        lhs = fib_exact(a) * fib_exact(bb + 1) - fib_exact(bb) * fib_exact(a + 1)
        sign = -1 if bb % 2 else 1
        if lhs != sign * fib_exact(two_m):
            exact_ok = False
            failures.append(f"exact identity at (j={jf}, m={m})")
        # second written form: -(-1)^{n1} F_{-2m}
        n1_sign = -1 if a % 2 else 1
        if lhs != -n1_sign * fib_exact(-two_m):
            exact_ok = False
            failures.append(f"mirrored form at (j={jf}, m={m})")

    comm = rep.j_plus @ rep.j_minus - rep.j_minus @ rep.j_plus
    expected = np.diag(np.array(
        [(-1 if int(jf - m) % 2 else 1) * float(fib_exact(int(2 * m))) for m in ms],
        dtype=np.complex128))
    ladder_res = float(np.max(np.abs(comm - expected)))
    if ladder_res > tol:
        failures.append(f"[J+,J-] residual {ladder_res:.3e}")

    z_res = max(
        float(np.max(np.abs(rep.j_z @ rep.j_plus - rep.j_plus @ rep.j_z - rep.j_plus))),
        float(np.max(np.abs(rep.j_z @ rep.j_minus - rep.j_minus @ rep.j_z + rep.j_minus))),
    )
    if z_res > tol:
        failures.append(f"[Jz,J±] residual {z_res:.3e}")

    return CommutatorReport(j=jf, tol=tol, max_ladder_residual=ladder_res,
                            max_z_residual=z_res, exact_identity_ok=exact_ok,
                            failures=tuple(failures))


# ---------------------------------------------------------------------------
# Double-boson picture
# ---------------------------------------------------------------------------

def double_boson_action(n1: int, n2: int, which: Literal["plus", "minus", "z"]):
    """Action of the deformed generators on the occupation state |n1, n2>.

    Returns (amplitude, new_state).  Raising with n2 = 0 or lowering with
    n1 = 0 annihilates: amplitude 0 with the state unchanged (an F_0 factor,
    not an error).  Relabeling n1 = j+m, n2 = j-m reproduces the |j, m>
    ladder amplitudes exactly.
    """
    _require(isinstance(n1, int) and n1 >= 0, "n1 must be a non-negative integer")
    _require(isinstance(n2, int) and n2 >= 0, "n2 must be a non-negative integer")
    if which == "plus":
        if n2 == 0:
            return 0.0, (n1, n2)
        return sqrt(fib_exact(n1 + 1) * fib_exact(n2)), (n1 + 1, n2 - 1)
    if which == "minus":
        if n1 == 0:
            return 0.0, (n1, n2)
        return sqrt(fib_exact(n1) * fib_exact(n2 + 1)), (n1 - 1, n2 + 1)
    if which == "z":
        return Fraction(n1 - n2, 2), (n1, n2)
    raise DomainError(f"unknown generator {which!r}")


# ---------------------------------------------------------------------------
# symmetric_iphi
# ---------------------------------------------------------------------------

def symmetric_basic_number(n: int) -> complex:
    """[n] with bases (i*phi, i/phi): i^{n-1} (phi^n - phi^{-n})."""
    return (1j) ** (n - 1) * (_PHI ** n - _PHI ** (-n))


def build_symmetric(j) -> AngularRep:
    """Natural symmetric q-boson construction with bases (i*phi, i/phi).

    J+|j,m> = sqrt([j-m][j+m+1]) |j,m+1> with the complex symmetric basic
    numbers (principal square roots of the products).  No Casimir is defined
    for this variant; the target commutator relation is checked separately by
    verify_symmetric and reported, not asserted.
    """
    jf = _validate_j(j)
    ms = _m_values(jf)
    dim = len(ms)
    j_plus = np.zeros((dim, dim), dtype=np.complex128)
    j_minus = np.zeros((dim, dim), dtype=np.complex128)
    for k, m in enumerate(ms[:-1]):
        j_plus[k + 1, k] = cmath.sqrt(
            symmetric_basic_number(int(jf - m)) * symmetric_basic_number(int(jf + m + 1)))
    for k, m in enumerate(ms):
        if k == 0:
            continue
        j_minus[k - 1, k] = cmath.sqrt(
            symmetric_basic_number(int(jf + m)) * symmetric_basic_number(int(jf - m + 1)))
    j_z = np.diag(np.array([float(m) for m in ms], dtype=np.complex128))
    return AngularRep(j=jf, variant="symmetric_iphi", j_plus=_freeze(j_plus),
                      j_minus=_freeze(j_minus), j_z=_freeze(j_z), casimir=None)


@dataclass(frozen=True)
class SymmetricReport:
    """Residuals of the symmetric-variant commutator against its target relation."""

    j: Fraction
    residual_plain: float
    residual_phase_form: float
    commutator_diagonal: tuple[complex, ...]

    def __str__(self) -> str:
        return (f"symmetric j={self.j}: |[J+,J-] - [2Jz]| = {self.residual_plain:.6g}, "
                f"phase-form residual = {self.residual_phase_form:.6g}")


def verify_symmetric(j) -> SymmetricReport:
    """Measure how far the natural construction is from the target relation.

    Target: [J+, J-] = diag((phi^{2m} - phi^{-2m}) / (phi - 1/phi)), equally
    written as [2Jz]_{i*phi,i/phi} (-1)^{1/2 - Jz}.  The natural construction
    yields this diagonal times the unit phase i^{2j-1}, so the residual is
    O(1) and is reported as a diagnostic.
    """
    jf = _validate_j(j)
    rep = build_symmetric(jf)
    ms = _m_values(jf)
    comm = rep.j_plus @ rep.j_minus - rep.j_minus @ rep.j_plus
    target_plain = np.diag(np.array(
        [(_PHI ** float(2 * m) - _PHI ** float(-2 * m)) for m in ms])).astype(np.complex128)
    # second written form of the same diagonal
    target_phase = np.diag(np.array(
        [symmetric_basic_number(int(2 * m)) * _half_power(Fraction(1, 2) - m)
         if (2 * m).denominator == 1 else 0j
         for m in ms])).astype(np.complex128)
    res_plain = float(np.max(np.abs(comm - target_plain)))
    res_phase = float(np.max(np.abs(comm - target_phase)))
    return SymmetricReport(j=jf, residual_plain=res_plain, residual_phase_form=res_phase,
                           commutator_diagonal=tuple(np.diag(comm).tolist()))


# ---------------------------------------------------------------------------
# tilde_F
# ---------------------------------------------------------------------------

def build_tilde(j) -> AngularRep:
    """Phase-dressed generators with a diagonal anti-commutator.

    From the double-boson operator ordering (phase operator (-1)^{-N2/2}
    applied after raising / before lowering), the actions are

        Jt+|j,m> = exp(-i*pi*(j-m-1)/2) sqrt(F_{j-m} F_{j+m+1}) |j,m+1>,
        Jt-|j,m> = exp(-i*pi*(j-m)/2)   sqrt(F_{j+m} F_{j-m+1}) |j,m-1>,

    giving {Jt+, Jt-} = diag(F_{2m}) exactly.  The stored Casimir is
    (-1)^{Jz} (F_{Jz} F_{Jz+1} - Jt- Jt+); see tilde_casimir_matrices.
    """
    jf = _validate_j(j)
    ms = _m_values(jf)
    dim = len(ms)
    j_plus = np.zeros((dim, dim), dtype=np.complex128)
    j_minus = np.zeros((dim, dim), dtype=np.complex128)
    for k, m in enumerate(ms[:-1]):
        phase = _half_power(Fraction(-(int(jf - m) - 1), 2))
        j_plus[k + 1, k] = phase * sqrt(fib_exact(int(jf - m)) * fib_exact(int(jf + m + 1)))
    for k, m in enumerate(ms):
        if k == 0:
            continue
        phase = _half_power(Fraction(-int(jf - m), 2))
        j_minus[k - 1, k] = phase * sqrt(fib_exact(int(jf + m)) * fib_exact(int(jf - m + 1)))
    j_z = np.diag(np.array([float(m) for m in ms], dtype=np.complex128))
    casimir = tilde_casimir_matrices(jf, j_plus, j_minus)[0]
    return AngularRep(j=jf, variant="tilde_F", j_plus=_freeze(j_plus),
                      j_minus=_freeze(j_minus), j_z=_freeze(j_z), casimir=_freeze(casimir))


def tilde_casimir_matrices(jf: Fraction, j_plus: np.ndarray,
                           j_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two written forms of the tilde Casimir.

    form1 = (-1)^{Jz} (F_{Jz} F_{Jz+1} - Jt- Jt+)
    form2 = (-1)^{Jz} (Jt+ Jt- - F_{Jz} F_{Jz-1})

    On an integer-j representation both are the constant (-1)^j F_j F_{j+1};
    the per-state eigenvalue is
    (-1)^m F_m F_{m+1} + (-1)^j F_{j-m} F_{j+m+1}
    = (-1)^j F_{j-m+1} F_{j+m} - (-1)^m F_m F_{m-1}.
    """
    ms = _m_values(jf)
    sign_z = np.diag(np.array([_half_power(m) for m in ms]))
    f_up = np.diag(np.array([_fib_at(m) * _fib_at(m + 1) for m in ms]))
    f_down = np.diag(np.array([_fib_at(m) * _fib_at(m - 1) for m in ms]))
    form1 = sign_z @ (f_up - j_minus @ j_plus)
    form2 = sign_z @ (j_plus @ j_minus - f_down)
    return form1, form2


def tilde_eigenvalue(jf: Fraction, m: Fraction) -> complex:
    """Closed-form tilde Casimir eigenvalue at state (j, m)."""
    return (_half_power(m) * _fib_at(m) * _fib_at(m + 1)
            + _half_power(jf) * _fib_at(jf - m) * _fib_at(jf + m + 1))


@dataclass(frozen=True)
class TildeReport:
    """Anti-commutator and Casimir diagnostics for the tilde variant."""

    j: Fraction
    tol: float
    anticommutator_residual: float
    offdiagonal_max: float
    casimir_form_difference: float
    casimir_eigenvalue_deviation: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed


def verify_tilde(j, tol: float = 1e-10) -> TildeReport:
    """Check {Jt+, Jt-} = diag(F_{2m}) and the two Casimir forms.

    Failures carry the offending (j, m) location.
    """
    jf = _validate_j(j)
    rep = build_tilde(jf)
    ms = _m_values(jf)
    failures: list[str] = []

    anti = rep.j_plus @ rep.j_minus + rep.j_minus @ rep.j_plus
    expected = np.diag(np.array([_fib_at(2 * m) for m in ms])).astype(np.complex128)
    diag_dev = 0.0
    for k, m in enumerate(ms):
        dev = abs(anti[k, k] - expected[k, k])
        if dev > diag_dev:
            diag_dev = float(dev)
        if dev > tol:
            failures.append(f"anti-commutator at (j={jf}, m={m}): deviation {dev:.3e}")
    off = anti - np.diag(np.diag(anti))
    off_max = float(np.max(np.abs(off)))
    if off_max > tol:
        failures.append(f"anti-commutator off-diagonal max {off_max:.3e}")

    form1, form2 = tilde_casimir_matrices(jf, rep.j_plus, rep.j_minus)
    form_diff = float(np.max(np.abs(form1 - form2)))
    if form_diff > tol:
        failures.append(f"Casimir forms differ by {form_diff:.3e} at j={jf}")
    eig_dev = 0.0
    for k, m in enumerate(ms):
        dev = abs(form1[k, k] - tilde_eigenvalue(jf, m))
        if dev > eig_dev:
            eig_dev = float(dev)
        if dev > tol:
            failures.append(f"Casimir eigenvalue at (j={jf}, m={m}): deviation {dev:.3e}")

    return TildeReport(j=jf, tol=tol, anticommutator_residual=diag_dev,
                       offdiagonal_max=off_max, casimir_form_difference=form_diff,
                       casimir_eigenvalue_deviation=eig_dev, failures=tuple(failures))


def build_representation(j, variant: Variant = "standard_F") -> AngularRep:
    """Dispatch on the algebra variant."""
    if variant == "standard_F":
        return build_suF2(j)
    if variant == "symmetric_iphi":
        return build_symmetric(j)
    if variant == "tilde_F":
        return build_tilde(j)
    raise DomainError(f"unknown variant {variant!r}")
