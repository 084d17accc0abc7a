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

Each J+ is a WeightedShift and J- its transpose, so [J+, J-], {Jt+, Jt-}
and the Casimir forms are exact diagonals, checked exactly at every j: F at
a half-integer m enters only as 5 F_m F_{m+1} = L_{2m+1} - i^{2m} (L Lucas).

The per-state work is integer arithmetic on the lattice a = j - m = 0..n with
n = 2j (t = 2m = n - 2a), reading every F_k from one table per spin, so
half-integer j is supported throughout; a Fraction m appears only where it is
rendered.  The phases (-1)^m, (-1)^{m-j} and (-1)^j are i^t, i^{t-n} and i^n on
the principal branch (-1)^x = exp(i*pi*x), a convention at half-integer j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import sqrt
from typing import TYPE_CHECKING, Callable, Literal

from .core import (
    DEFAULT_DPS,
    DomainError,
    ZPhi,
    _fib_quotients,
    _integer,
    _rational,
    _require,
    fib_exact,
    fib_range,
)
from .oscillator import _I_POWERS, WeightedShift, _Checked, _diagonal_view, _freeze, _tally

if TYPE_CHECKING:
    import mpmath
    import numpy as np

MAX_J = 25

Variant = Literal["standard_F", "symmetric_iphi", "tilde_F"]

def _lattice(j) -> tuple[Fraction, int, Callable[[int], int]]:
    """The validated spin j, n = 2j, and k -> F_k for |k| <= n + 2 from one table."""
    jf = _rational("spin label j", j)
    _require(jf.denominator <= 2, "2j must be an integer")
    n = _integer("2j", int(2 * jf), 0, 2 * MAX_J)
    table = fib_range(-n - 2, n + 2)
    return jf, n, lambda k: table[k + n + 2]


def _ladder(n: int, fib: Callable[[int], int], tilde: bool) -> WeightedShift:
    """J+ of su_F(2) at n = 2j: the step from a = j - m has weight F_a F_{n-a+1}.

    The tilde variant dresses that step with the phase i^{1-a}.
    """
    steps = range(n, 0, -1)  # a = n .. 1, i.e. m = -j .. j-1
    turns = tuple((1 - a) % 4 for a in steps) if tilde else (0,) * n
    return WeightedShift(tuple(fib(a) * fib(n - a + 1) for a in steps), turns)


def _fifth(value: int | complex) -> int | complex:
    """A five-fold value divided by 5: exact for an int, rounded once per part for a complex."""
    return value // 5 if isinstance(value, int) else value / 5


def _casimir_forms(n: int, fib: Callable[[int], int], shift: WeightedShift,
                   tilde: bool) -> tuple[list, list, list]:
    """Five times the diagonals of the two written Casimir forms and of their closed form.

    standard_F:  form1 = (-1)^{-Jz} (F_{Jz} F_{Jz+1} + (-1)^{-N2} J- J+)
                 form2 = (-1)^{-Jz} (-F_{Jz} F_{Jz-1} + (-1)^{-N2} J+ J-)
                 closed = (-1)^{-j} F_j F_{j+1}
    tilde_F:     form1 = (-1)^{Jz} (F_{Jz} F_{Jz+1} - Jt- Jt+)
                 form2 = (-1)^{Jz} (Jt+ Jt- - F_{Jz} F_{Jz-1})
                 closed = (-1)^m F_m F_{m+1} + (-1)^j F_{j-m} F_{j+m+1} at state m

    with N2 = j - Jz.  Binet's formula with (-1)^m = exp(i*pi*m) gives
    5 F_m F_{m+1} = L_{2m+1} - i^{2m} whenever 2m is integral: an int, or a complex
    with integral parts.  Up to MAX_J every part is below 2^40, so all three are exact.
    The states are t = 2m = -n .. n with n = 2j, and a = (n - t)/2 = j - m.
    """
    # keyed by t = 2m for m = -j-1 .. j, with L_{2m+1} = F_{2m} + F_{2m+2}
    five = {t: fib(t) + fib(t + 2) - _I_POWERS[t % 4] for t in range(-n - 2, n + 1, 2)}
    form1, form2, closed = [], [], []
    for t, up_down, down_up in zip(range(-n, n + 1, 2), *shift.products()):
        z = _I_POWERS[(t if tilde else -t) % 4]
        c1, c2 = (-1, 1) if tilde else (_I_POWERS[(t - n) % 4],) * 2
        form1.append(z * (five[t] + 5 * c1 * down_up))
        form2.append(z * (5 * c2 * up_down - five[t - 2]))
        closed.append(z * five[t] + _I_POWERS[n % 4] * 5 * fib((n - t) // 2) * fib((n + t) // 2 + 1)
                      if tilde else _I_POWERS[-n % 4] * five[n])
    return form1, form2, closed


@dataclass(frozen=True)
class AngularRep:
    """One deformed angular-momentum representation at spin j; `shift` is J+.

    j_plus, j_minus (its transpose), j_z and the Casimir (the first written
    form; None for symmetric_iphi) are dense read-only views.
    """

    j: Fraction
    variant: Variant
    shift: WeightedShift

    @cached_property
    def j_plus(self) -> np.ndarray:
        return _freeze(self.shift.raising())

    @cached_property
    def j_minus(self) -> np.ndarray:
        return _freeze(self.j_plus.T.copy())

    @cached_property
    def j_z(self) -> np.ndarray:
        return _diagonal_view(m - self.j for m in range(int(2 * self.j) + 1))

    @cached_property
    def casimir(self) -> np.ndarray | None:
        if self.variant == "symmetric_iphi":
            return None
        _, n, fib = _lattice(self.j)
        form1 = _casimir_forms(n, fib, self.shift, self.variant == "tilde_F")[0]
        return _diagonal_view(map(_fifth, form1))


# ---------------------------------------------------------------------------
# standard_F
# ---------------------------------------------------------------------------

def build_suF2(j) -> AngularRep:
    """Fibonacci-deformed su(2) ladder at spin j.

    J+|j,m> = sqrt(F_{j-m} F_{j+m+1}) |j,m+1>;  J- = (J+)^dagger;
    J_z = diag(m).  The Casimir matrix stored is the first of the two
    equivalent forms (see casimir_suF2).
    """
    jf, n, fib = _lattice(j)
    return AngularRep(j=jf, variant="standard_F", shift=_ladder(n, fib, tilde=False))


@dataclass(frozen=True)
class CasimirResult:
    """Casimir diagonal, its theoretical eigenvalue, and self-consistency data.

    `diagonal` holds the first written form state by state (ints at integer j);
    `matrix` is its dense read-only view, built on first use.
    """

    j: Fraction
    diagonal: tuple
    eigenvalue: complex
    form_difference: float
    eigenvalue_deviation: float

    @cached_property
    def matrix(self) -> np.ndarray:
        return _diagonal_view(self.diagonal)


def casimir_suF2(j) -> CasimirResult:
    """Casimir of the standard_F representation.

    Both written forms must agree exactly; the common eigenvalue is
    (-1)^{-j} F_j F_{j+1} (principal phase for half-integer j).
    """
    jf, n, fib = _lattice(j)
    form1, form2, closed = _casimir_forms(n, fib, _ladder(n, fib, tilde=False), tilde=False)
    diff = max(abs(x - y) for x, y in zip(form1, form2)) / 5
    if diff:
        raise DomainError(f"Casimir forms disagree at j={jf}: max difference {diff:.3e}")
    return CasimirResult(j=jf, diagonal=tuple(map(_fifth, form1)),
                         eigenvalue=complex(_fifth(closed[0])), form_difference=diff,
                         eigenvalue_deviation=max(abs(x - y) for x, y in zip(form1, closed)) / 5)


def casimir_ratio(j_max: int, precision: int = DEFAULT_DPS) -> list[mpmath.mpf]:
    """Successive Casimir eigenvalue ratios -F_{j+1}/F_{j-1} for j = 2..j_max.

    The sequence converges to -phi**2.
    """
    return _fib_quotients("j_max", j_max, 3, precision, step=2, sign=-1)


@dataclass(frozen=True)
class CommutatorReport(_Checked):
    """Residuals of the ladder commutation relations at one spin."""

    j: Fraction
    max_ladder_residual: float
    max_z_residual: float
    exact_identity_ok: bool
    failures: tuple[str, ...]


def verify_commutators(j) -> CommutatorReport:
    """Check [J+, J-] = diag((-1)^{j-m} F_{2m}) and [Jz, J±] = ±J±.

    The diagonal of [J+, J-] comes from the squared weights: at m it is
    F_{j+m} F_{j-m+1} - F_{j-m} F_{j+m+1}, the left-hand side of d'Ocagne's
    identity.  It is checked exactly in Z against both written forms of the
    diagonal ((-1)^{N2} F_{2Jz} and -(-1)^{N1} F_{-2Jz}), which agree through
    F_{-2m} = (-1)^{2m+1} F_{2m}.  Every nonzero difference fails, with one
    failure naming its (j, m); a [Jz, J±] defect is named by the lower state of its step.
    """
    jf, n, fib = _lattice(j)
    shift = _ladder(n, fib, tilde=False)
    exact, mirrored = [], []
    for a, up_down, down_up in zip(range(n, -1, -1), *shift.products()):
        t, lhs = n - 2 * a, up_down - down_up  # t = 2m; a = j - m and n - a = j + m
        exact.append(lhs + fib(t) if a % 2 else lhs - fib(t))
        mirrored.append(lhs - fib(-t) if (n - a) % 2 else lhs + fib(-t))
    residuals, failures = _tally(
        {"exact identity": exact, "mirrored form": mirrored,
         "[Jz,J±]": shift.step_defects(range(n + 1))},  # levels k = m + j: the constant j cancels
        lambda k: f"(j={jf}, m={Fraction(2 * k - n, 2)})")
    return CommutatorReport(j=jf, max_ladder_residual=residuals["exact identity"],
                            max_z_residual=residuals["[Jz,J±]"],
                            exact_identity_ok=not (residuals["exact identity"] or residuals["mirrored form"]),
                            failures=failures)


# ---------------------------------------------------------------------------
# Double-boson picture
# ---------------------------------------------------------------------------

def double_boson_action(n1: int, n2: int, which: Literal["plus", "minus"]):
    """Action of the deformed generators on the occupation state |n1, n2>.

    Returns (amplitude, new_state).  Raising with n2 = 0 or lowering with
    n1 = 0 annihilates: amplitude 0 with the state unchanged (an F_0 factor,
    not an error).  Relabeling n1 = j+m, n2 = j-m reproduces the |j, m>
    ladder amplitudes exactly, so n1 + n2 = 2j is at most 2 MAX_J.
    """
    _integer("n1", n1, 0, 2 * MAX_J)
    _integer("n1 + n2", n1 + _integer("n2", n2, 0, 2 * MAX_J), 0, 2 * MAX_J)
    if which == "plus":
        if n2 == 0:
            return 0.0, (n1, n2)
        return sqrt(fib_exact(n1 + 1) * fib_exact(n2)), (n1 + 1, n2 - 1)
    if which == "minus":
        if n1 == 0:
            return 0.0, (n1, n2)
        return sqrt(fib_exact(n1) * fib_exact(n2 + 1)), (n1 - 1, n2 + 1)
    raise DomainError(f"unknown generator {which!r}")


# ---------------------------------------------------------------------------
# symmetric_iphi
# ---------------------------------------------------------------------------

def _phi_gap(fib: Callable[[int], int], n: int) -> float:
    """phi^n - phi^{-n} = (F_{n-1} - F_{-n-1}) + (F_n - F_{-n}) phi in Z[phi], as a float."""
    return float(ZPhi(fib(n - 1) - fib(-n - 1), fib(n) - fib(-n)))


def _symmetric_ladder(n: int, fib: Callable[[int], int]) -> WeightedShift:
    """J+ of symmetric_iphi at n = 2j: squared weights [j-m][j+m+1] for m < j."""
    basic = [(1j) ** (a - 1) * _phi_gap(fib, a) for a in range(n + 2)]  # [0] .. [n+1]
    sq = tuple(x * y for x, y in zip(basic[-2:0:-1], basic[1:-1]))
    return WeightedShift(sq, (0,) * len(sq))


def build_symmetric(j) -> AngularRep:
    """Natural symmetric q-boson construction with bases (i*phi, i/phi).

    J+|j,m> = sqrt([j-m][j+m+1]) |j,m+1> with the complex symmetric basic
    numbers (principal square roots of the products), and J- its transpose:
    J-|j,m> = sqrt([j+m][j-m+1]) |j,m-1>.  No Casimir is defined for this
    variant; the target commutator relation is checked separately by
    verify_symmetric and reported, not asserted.
    """
    jf, n, fib = _lattice(j)
    return AngularRep(j=jf, variant="symmetric_iphi", shift=_symmetric_ladder(n, fib))


@dataclass(frozen=True)
class SymmetricReport:
    """Residual of the symmetric-variant commutator against its target relation."""

    j: Fraction
    residual: float

    def __str__(self) -> str:
        return f"symmetric j={self.j}: |[J+,J-] - [2Jz]| = {self.residual:.6g}"


def verify_symmetric(j) -> SymmetricReport:
    """Measure how far the natural construction is from the target relation.

    Target: [J+, J-] = diag((phi^{2m} - phi^{-2m}) / (phi - 1/phi)), equally
    written as [2Jz]_{i*phi,i/phi} (-1)^{1/2 - Jz}.  The natural construction
    yields this diagonal times the unit phase i^{2j-1}, so the residual is
    O(1) and is reported as a diagnostic.
    """
    jf, n, fib = _lattice(j)
    comm = [complex(a - b) for a, b in zip(*_symmetric_ladder(n, fib).products())]
    # both written forms are the same number: [2m] i^{1-2m} = phi^{2m} - phi^{-2m}
    residual = max(abs(c - _phi_gap(fib, t)) for c, t in zip(comm, range(-n, n + 1, 2)))
    return SymmetricReport(j=jf, residual=residual)


# ---------------------------------------------------------------------------
# tilde_F
# ---------------------------------------------------------------------------

def build_tilde(j) -> AngularRep:
    """Phase-dressed generators with a diagonal anti-commutator.

    From the double-boson operator ordering (phase operator (-1)^{-N2/2}
    applied after raising / before lowering), the actions are

        Jt+|j,m> = exp(-i*pi*(j-m-1)/2) sqrt(F_{j-m} F_{j+m+1}) |j,m+1>,
        Jt-|j,m> = exp(-i*pi*(j-m)/2)   sqrt(F_{j+m} F_{j-m+1}) |j,m-1>,

    so Jt- is the transpose of Jt+ and the phase of the step m -> m+1 is
    i^{1-(j-m)}.  This gives {Jt+, Jt-} = diag(F_{2m}) exactly.  The stored
    Casimir is (-1)^{Jz} (F_{Jz} F_{Jz+1} - Jt- Jt+); verify_tilde checks it against
    the second form (-1)^{Jz} (Jt+ Jt- - F_{Jz} F_{Jz-1}) and the closed eigenvalue.
    """
    jf, n, fib = _lattice(j)
    return AngularRep(j=jf, variant="tilde_F", shift=_ladder(n, fib, tilde=True))


@dataclass(frozen=True)
class TildeReport(_Checked):
    """Anti-commutator and Casimir diagnostics for the tilde variant."""

    j: Fraction
    anticommutator_residual: float
    offdiagonal_max: float
    casimir_form_difference: float
    casimir_eigenvalue_deviation: float
    failures: tuple[str, ...]


def verify_tilde(j) -> TildeReport:
    """Check {Jt+, Jt-} = diag(F_{2m}) and the two Casimir forms against their eigenvalue.

    The anti-commutator is the sum of the two diagonals of the shift, checked
    in Z; a shift times its transpose has no off-diagonal part, so
    offdiagonal_max is 0.0.  Every nonzero difference fails, with one failure
    naming its (j, m).
    """
    jf, n, fib = _lattice(j)
    shift = _ladder(n, fib, tilde=True)
    form1, form2, closed = _casimir_forms(n, fib, shift, tilde=True)
    residuals, failures = _tally(
        {"anti-commutator": [u + d - fib(t) for t, u, d in zip(range(-n, n + 1, 2), *shift.products())],
         "Casimir forms": [(x - y) / 5 for x, y in zip(form1, form2)],
         "Casimir eigenvalue": [(x - y) / 5 for x, y in zip(form1, closed)]},
        lambda k: f"(j={jf}, m={Fraction(2 * k - n, 2)})")
    return TildeReport(j=jf, anticommutator_residual=residuals["anti-commutator"], offdiagonal_max=0.0,
                       casimir_form_difference=residuals["Casimir forms"],
                       casimir_eigenvalue_deviation=residuals["Casimir eigenvalue"], failures=failures)
