"""Von Neumann measurement lifts and rank-based screens for quantum
correlation in bipartite states."""

__version__ = "0.1.0"

from .basis import HermitianBasis, gell_mann_basis
from .bloch import BlochForm, decompose, reconstruct
from .classify import (
    BellDiagonalSpec,
    BellDiagonalVerdict,
    Verdict,
    check_classical_classical,
    check_classical_quantum,
    check_quantum_classical,
    classify_bell_diagonal,
    classify_state,
    dakic_condition,
)
from .linalg import (
    DEFAULT_TOL,
    BasisError,
    DensityReport,
    InvalidStateError,
    ShapeError,
    Tolerance,
    UnitarityError,
    numerical_rank,
    validate_density,
)
from .measurement import (
    LiftedMeasurement,
    VonNeumannMeasurement,
    build_C,
    build_C0,
    consistency_check,
    from_unitary,
    lift_matrix,
)
from .sampler import (
    InvarianceReport,
    invariance_search,
    random_classical_classical,
    random_classical_quantum,
    random_density,
    random_quantum_classical,
    random_unitary,
)
