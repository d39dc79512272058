"""Von Neumann measurements, their lift to the operator basis, and the
associated coefficient matrices C and C0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HermitianBasis
from .linalg import DEFAULT_TOL, ShapeError, Tolerance, as_matrix, check_unitary, frobenius


@dataclass(frozen=True)
class VonNeumannMeasurement:
    """Complete projective measurement on an m-dimensional system.

    Row i of ``unitary`` holds the coefficients of the i-th measurement
    vector, so the projectors are the outer products of the rows.
    """

    dim: int
    unitary: np.ndarray

    def projectors(self) -> np.ndarray:
        """(m, m, m) array; slice i is |phi_i><phi_i|."""
        u = self.unitary
        return np.einsum("ia,ib->iab", u, u.conj())


@dataclass(frozen=True)
class LiftedMeasurement:
    """Real (m^2-1) x (m^2-1) matrix representing a measurement's action on
    an orthonormal traceless-Hermitian basis; idempotent with rank m-1."""

    dim: int
    matrix: np.ndarray
    basis_labels: tuple

    @property
    def idempotency_defect(self) -> float:
        m = self.matrix
        return frobenius(m @ m - m)


def from_unitary(a, tol: Tolerance = DEFAULT_TOL) -> VonNeumannMeasurement:
    a = check_unitary(a, tol)
    return VonNeumannMeasurement(dim=a.shape[0], unitary=a)


def apply(meas: VonNeumannMeasurement, x) -> np.ndarray:
    """sum_i <phi_i|x|phi_i> |phi_i><phi_i|."""
    x = as_matrix(x)
    m = meas.dim
    if x.shape != (m, m):
        raise ShapeError(f"operator must be {m}x{m}, got {x.shape}")
    return _applied_stack(meas, x[np.newaxis])[0]


def _applied_stack(meas: VonNeumannMeasurement, elements: np.ndarray) -> np.ndarray:
    """Apply the measurement channel to a stack of operators at once."""
    u = meas.unitary
    diag = np.einsum("ia,nab,ib->ni", u.conj(), elements, u)
    return np.einsum("ni,ia,ib->nab", diag, u, u.conj())


def lift_matrix(
    meas: VonNeumannMeasurement, b: HermitianBasis, tol: Tolerance = DEFAULT_TOL
) -> LiftedMeasurement:
    """Matrix M with M[j, i] = Tr(mu_j^dag . channel(mu_i)).

    Valid because every HermitianBasis is Hilbert-Schmidt orthonormal, which
    its construction checks; the entries of a lift of Hermitian elements are
    real up to round-off.
    """
    if b.dim != meas.dim:
        raise ShapeError(f"basis dim {b.dim} != measurement dim {meas.dim}")
    stack = b.stack()
    applied = _applied_stack(meas, stack)
    m_complex = np.einsum("jab,iab->ji", stack.conj(), applied)
    imag = float(np.max(np.abs(m_complex.imag)))
    if imag > tol.eq_abs:
        raise ValueError(f"lifted matrix has imaginary residue {imag:.3e}")
    return LiftedMeasurement(dim=meas.dim, matrix=m_complex.real, basis_labels=b.labels)


def build_C(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real m x (m^2-1) coefficient matrix (C1, C2, C3) of a unitary A.

    Column ordering matches the canonical basis: diagonal p=1..m-1, then
    symmetric (k,l) with k<l lexicographic, then antisymmetric (k,l).
    """
    a = check_unitary(a, tol)
    m = a.shape[0]
    absq = np.abs(a) ** 2
    cols = []
    for p in range(1, m):
        cols.append(absq[:, :p].sum(axis=1) - p * absq[:, p])
        cols[-1] *= np.sqrt(1.0 / (p * (p + 1)))
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    for k, l in pairs:
        z = a[:, k].conj() * a[:, l]
        cols.append(np.sqrt(2.0) * z.real)
    for k, l in pairs:
        # i(a*_k a_l - a*_l a_k)/sqrt(2) evaluates to -sqrt(2) Im(a*_k a_l)
        z = a[:, k].conj() * a[:, l]
        cols.append(-np.sqrt(2.0) * z.imag)
    return np.column_stack(cols)


def build_C0(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Complex m x (m^2-1) matrix with the same rank as build_C(a):
    columns alpha_i for i=1..m-1, then beta_kl for all ordered pairs k != l."""
    a = check_unitary(a, tol)
    m = a.shape[0]
    absq = np.abs(a) ** 2
    cols = [absq[:, 0] - absq[:, i] for i in range(1, m)]
    for k in range(m):
        for l in range(m):
            if k != l:
                cols.append(a[:, k].conj() * a[:, l])
    return np.column_stack(cols).astype(complex)


def consistency_check(
    meas: VonNeumannMeasurement, b: HermitianBasis, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Max entrywise deviation between the channel applied to each canonical
    basis element and the projector combination given by the matching column
    of build_C."""
    if b.dim != meas.dim:
        raise ShapeError(f"basis dim {b.dim} != measurement dim {meas.dim}")
    c = build_C(meas.unitary, tol)
    proj = meas.projectors()
    applied = _applied_stack(meas, b.stack())
    predicted = np.einsum("si,sab->iab", c, proj)
    return float(np.max(np.abs(applied - predicted)))
