import dataclasses

import numpy as np
import pytest

from vnlift import (
    BasisError,
    HermitianBasis,
    LiftedMeasurement,
    ShapeError,
    UnitarityError,
    VonNeumannMeasurement,
    build_C,
    build_C0,
    consistency_check,
    from_unitary,
    gell_mann_basis,
    lift_matrix,
    numerical_rank,
    pauli_gell_mann_basis,
    random_unitary,
)
from vnlift import measurement

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def closed_form_C(a):
    """The paper's (C1, C2, C3): cumulative |a|^2 differences, then
    sqrt(2) Re(a*_k a_l) and -sqrt(2) Im(a*_k a_l) over k < l lexicographic."""
    m = a.shape[0]
    absq = np.abs(a) ** 2
    cols = []
    for p in range(1, m):
        cols.append((absq[:, :p].sum(axis=1) - p * absq[:, p]) * np.sqrt(1.0 / (p * (p + 1))))
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    for k, l in pairs:
        cols.append(np.sqrt(2.0) * (a[:, k].conj() * a[:, l]).real)
    for k, l in pairs:
        # i(a*_k a_l - a*_l a_k)/sqrt(2) evaluates to -sqrt(2) Im(a*_k a_l)
        cols.append(-np.sqrt(2.0) * (a[:, k].conj() * a[:, l]).imag)
    return np.column_stack(cols)


def closed_form_C0(a):
    """alpha_i = |a_0|^2 - |a_i|^2, then beta_kl = a*_k a_l over ordered k != l."""
    m = a.shape[0]
    absq = np.abs(a) ** 2
    cols = [absq[:, 0] - absq[:, i] for i in range(1, m)]
    for k in range(m):
        for l in range(m):
            if k != l:
                cols.append(a[:, k].conj() * a[:, l])
    return np.column_stack(cols).astype(complex)


def test_from_unitary_computational_basis():
    meas = from_unitary(np.eye(2))
    proj = meas.projectors()
    assert np.allclose(proj[0], np.diag([1.0, 0.0]))
    assert np.allclose(proj[1], np.diag([0.0, 1.0]))


def test_from_unitary_hadamard():
    proj = from_unitary(HADAMARD).projectors()
    plus = np.full((2, 2), 0.5)
    assert np.allclose(proj[0], plus)
    assert np.allclose(proj[1], np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_from_unitary_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        from_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_hadamard_measurement_annihilates_sigma3():
    # In the basis (sigma_1, sigma_2, sigma_3)/sqrt(2) the lift maps sigma_3 to zero.
    lifted = lift_matrix(from_unitary(HADAMARD), pauli_gell_mann_basis(2))
    assert np.max(np.abs(lifted.matrix[:, 2])) <= 1e-12


def test_lift_m2_computational_pauli_order():
    lifted = lift_matrix(from_unitary(np.eye(2)), pauli_gell_mann_basis(2))
    assert np.max(np.abs(lifted.matrix - np.diag([0.0, 0.0, 1.0]))) <= 1e-12
    assert numerical_rank(lifted.matrix) == 1


def test_lift_m3_computational_gell_mann_order():
    lifted = lift_matrix(from_unitary(np.eye(3)), pauli_gell_mann_basis(3))
    expected = np.diag([0.0, 0, 1, 0, 0, 0, 0, 1])
    assert np.max(np.abs(lifted.matrix - expected)) <= 1e-12
    assert numerical_rank(lifted.matrix) == 2


def test_lift_random_unitary_m4():
    lifted = lift_matrix(from_unitary(random_unitary(4, 42)), gell_mann_basis(4))
    assert lifted.idempotency_defect < 1e-10
    assert numerical_rank(lifted.matrix) == 3


def test_lift_rejects_dimension_mismatch():
    with pytest.raises(ShapeError):
        lift_matrix(from_unitary(np.eye(2)), gell_mann_basis(3))


def test_measurement_reads_its_dimension_from_the_unitary():
    # A measurement built directly, not through from_unitary, still has the
    # unitary's dimension, so a basis of another dimension is refused by name
    # before numpy sees the two shapes.
    meas = VonNeumannMeasurement(np.eye(2))
    assert meas.dim == 2
    for apply in (lift_matrix, consistency_check):
        with pytest.raises(ShapeError, match="basis dim 3 != measurement dim 2"):
            apply(meas, gell_mann_basis(3))
    assert [f.name for f in dataclasses.fields(VonNeumannMeasurement)] == ["unitary"]
    assert [f.name for f in dataclasses.fields(LiftedMeasurement)] == ["matrix"]


def test_lift_rejects_non_orthonormal_basis():
    # A non-orthonormal basis never reaches lift_matrix: construction rejects it.
    b = gell_mann_basis(2)
    with pytest.raises(BasisError):
        bad = HermitianBasis(elements=(2 * b.elements[0],) + b.elements[1:], labels=b.labels)
        lift_matrix(from_unitary(np.eye(2)), bad)


def test_lift_basis_covariance():
    rng = np.random.default_rng(3)
    meas = from_unitary(random_unitary(3, 21))
    b = gell_mann_basis(3)
    m_canonical = lift_matrix(meas, b).matrix
    v = rng.standard_normal(8)
    o = np.eye(8) - 2.0 * np.outer(v, v) / (v @ v)
    rotated = HermitianBasis(
        elements=tuple(np.einsum("iab,ij->jab", b.stack(), o)),
        labels=tuple(f"rotated({j})" for j in range(8)),
    )
    m_rotated = lift_matrix(meas, rotated).matrix
    assert np.allclose(m_rotated, o.T @ m_canonical @ o, atol=1e-10)


def test_build_C_identity_m2():
    c = build_C(np.eye(2))
    expected = np.array([[1 / np.sqrt(2), 0, 0], [-1 / np.sqrt(2), 0, 0]])
    assert np.allclose(c, expected)
    assert numerical_rank(c) == 1


def test_build_C0_identity_m2():
    c0 = build_C0(np.eye(2))
    expected = np.array([[1.0, 0, 0], [-1.0, 0, 0]], dtype=complex)
    assert c0.dtype == np.complex128 and np.allclose(c0, expected)
    assert numerical_rank(c0) == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_C_and_C0_rank_and_row_sums(m):
    for k in range(25):
        u = random_unitary(m, 100 * m + k)
        c = build_C(u)
        c0 = build_C0(u)
        assert c.shape == (m, m * m - 1)
        assert c0.shape == (m, m * m - 1)
        assert numerical_rank(c) == m - 1
        assert numerical_rank(c0) == m - 1
        assert np.max(np.abs(c.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(c0.sum(axis=0))) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_coefficient_matrices_match_closed_form(m):
    basis = gell_mann_basis(m)
    for k in range(25):
        u = random_unitary(m, 1000 * m + k)
        c = build_C(u)
        assert np.max(np.abs(c - closed_form_C(u))) <= 1e-12
        assert np.array_equal(build_C0(u), closed_form_C0(u))
        lifted = lift_matrix(from_unitary(u), basis).matrix
        assert np.max(np.abs(lifted - c.T @ c)) <= 1e-12


def test_coefficient_matrices_reject_dimension_one():
    for build in (build_C, build_C0):
        with pytest.raises(ValueError, match="dimension >= 2, got 1"):
            build(np.eye(1))


def test_build_C_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        build_C(np.ones((2, 2)))
    with pytest.raises(UnitarityError):
        build_C0(np.ones((2, 2)))


def test_consistency_check_fixed_bases():
    b = gell_mann_basis(2)
    assert consistency_check(from_unitary(np.eye(2)), b) <= 1e-12
    assert consistency_check(from_unitary(HADAMARD), b) <= 1e-12


def test_consistency_check_rejects_a_basis_of_another_dimension():
    with pytest.raises(ShapeError, match="basis dim 3 != measurement dim 2"):
        consistency_check(from_unitary(HADAMARD), gell_mann_basis(3))


def test_consistency_check_random_m4():
    meas = from_unitary(random_unitary(4, 77))
    assert consistency_check(meas, gell_mann_basis(4)) <= 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_consistency_check_any_orthonormal_basis(m):
    basis = pauli_gell_mann_basis(m)
    for k in range(10):
        meas = from_unitary(random_unitary(m, 300 * m + k))
        assert consistency_check(meas, basis) <= 1e-10


def test_consistency_check_does_not_read_coefficients(monkeypatch):
    # The definition side must not go through D, or a wrong D would agree with itself.
    meas = from_unitary(random_unitary(3, 11))
    basis = gell_mann_basis(3)
    assert consistency_check(meas, basis) <= 1e-10
    exact = measurement._coefficients

    def perturbed(u, elements):
        d = exact(u, elements).copy()
        d[0, 0] += 1e-6
        return d

    monkeypatch.setattr(measurement, "_coefficients", perturbed)
    assert consistency_check(meas, basis) >= 1e-7
