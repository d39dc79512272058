import types

import vnlift

PUBLIC_API = {
    "BasisError",
    "BellDiagonalSpec",
    "BellDiagonalVerdict",
    "BlochForm",
    "DEFAULT_TOL",
    "DensityReport",
    "HermitianBasis",
    "InvalidStateError",
    "InvarianceReport",
    "LiftedMeasurement",
    "ShapeError",
    "Tolerance",
    "UnitarityError",
    "Verdict",
    "VonNeumannMeasurement",
    "build_C",
    "build_C0",
    "check_classical_classical",
    "check_classical_quantum",
    "check_quantum_classical",
    "check_unitary",
    "classify_bell_diagonal",
    "classify_state",
    "consistency_check",
    "dakic_condition",
    "decompose",
    "from_unitary",
    "gell_mann_basis",
    "invariance_search",
    "lift_matrix",
    "numerical_rank",
    "partial_trace",
    "pauli_gell_mann_basis",
    "random_classical_classical",
    "random_classical_quantum",
    "random_density",
    "random_quantum_classical",
    "random_unitary",
    "reconstruct",
    "swap_subsystems",
    "validate_density",
}


def test_public_names_are_pinned():
    # Submodules (vnlift.basis, vnlift.cli, ...) are attributes once imported;
    # they are not part of the flat API.
    public = {
        name
        for name, value in vars(vnlift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_API
