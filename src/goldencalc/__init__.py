"""Golden (Binet-Fibonacci) quantum calculus and the Golden oscillator.

Exact Fibonacci/Z[phi] arithmetic, the analytic extension F_z, the Golden
derivative with its exponentials and antiderivative, Fibonomials and Golden
binomials/polynomials, the Fibonacci-spectrum oscillator, three deformed
angular-momentum algebras, and a verifier covering every identity the
library claims.
"""

from .angular import (
    AngularRep,
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
from .calculus import (
    GoldenSeries,
    SeriesValue,
    derive_bivar,
    derive_poly,
    golden_derivative,
    golden_exp,
    golden_exp_series,
    golden_taylor,
    golden_trig,
    jackson_antiderivative,
    taylor_reconstruct,
)
from .core import (
    DEFAULT_DPS,
    DomainError,
    GoldenValue,
    QPhi,
    ZPhi,
    fib_exact,
    fib_extended,
    fib_range,
    phi_power_exact,
    phi_value,
    ratio_sequence,
)
from .binomials import (
    BivarPoly,
    NoncommWord,
    UnivarPoly,
    fib_factorial,
    fibonomial,
    fibonomial_row,
    golden_base,
    golden_binomial,
    golden_polynomial,
    jackson_exp,
    noncomm_expand,
    remarkable_limit,
    remarkable_limit_lhs,
)
from .oscillator import (
    LadderSet,
    SpectrumTable,
    WeightedShift,
    build_ladder,
    diagonal_identities_exact,
    energy_ratios,
    hamiltonian,
    invert_number,
    spectrum,
    verify_oscillator_algebra,
)
from .verify import VerificationReport, verify_all

__version__ = "0.1.0"
