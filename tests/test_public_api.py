import dataclasses
import types
from copy import copy as shallow_copy

import numpy as np
import pytest

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
    "random_classical_classical",
    "random_classical_quantum",
    "random_density",
    "random_quantum_classical",
    "random_unitary",
    "reconstruct",
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


B2 = vnlift.gell_mann_basis(2)
RHO = vnlift.random_density(4, 0)

# Every record that holds arrays, made by the library's own constructors.
ARRAY_RECORDS = {
    "BlochForm": lambda: vnlift.decompose(RHO, B2, B2),
    "HermitianBasis": lambda: B2,
    "VonNeumannMeasurement": lambda: vnlift.from_unitary(np.eye(2)),
    "LiftedMeasurement": lambda: vnlift.lift_matrix(vnlift.from_unitary(np.eye(2)), B2),
    "InvarianceReport": lambda: vnlift.invariance_search(RHO, 2, 2, trials=5),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(make):
    # A field-wise == on arrays is ambiguous, so these records compare by identity.
    # copy.copy, as dataclasses.replace calls the constructor that the
    # measurement records do not have.
    x = make()
    copy = shallow_copy(x)
    assert x == x and copy is not x and copy != x
    assert hash(x) == hash(x) and x in {x} and len({x, copy}) == 2


# The arrays each record holds, read from the record that ARRAY_RECORDS (or,
# for DensityReport, validate_density) makes.
HELD_ARRAYS = {
    "BlochForm": lambda x: [x.correlation],
    "HermitianBasis": lambda x: [x.augmented(), *x.elements],
    "VonNeumannMeasurement": lambda x: [x.unitary],
    "LiftedMeasurement": lambda x: [x.matrix],
    "InvarianceReport": lambda x: [x.best_measurement.unitary],
    "DensityReport": lambda x: [x.symmetrized],
}
MAKERS = {**ARRAY_RECORDS, "DensityReport": lambda: vnlift.validate_density(RHO)}


@pytest.mark.parametrize("name", HELD_ARRAYS)
def test_every_array_a_record_holds_is_read_only(name):
    for held in HELD_ARRAYS[name](MAKERS[name]()):
        with pytest.raises(ValueError):
            held[(0,) * held.ndim] = 0.0


def test_verdict_compares_and_hashes_by_value():
    # A verdict holds no array, so equal fields make equal verdicts.
    v = vnlift.classify_state(RHO, 2, 2)["classical_quantum"]
    assert [f.name for f in dataclasses.fields(vnlift.Verdict)] == [
        "ruled_out", "computed_rank", "threshold"]
    copy = dataclasses.replace(v)
    assert copy is not v and copy == v and hash(copy) == hash(v) and len({v, copy}) == 1
    assert copy == vnlift.Verdict(v.ruled_out, v.computed_rank, v.threshold)
    flipped = dataclasses.replace(v, ruled_out=not v.ruled_out)
    assert flipped != v and len({v, flipped}) == 2
