"""Von Neumann measurements, their lift to the operator basis, and the
associated coefficient matrices C and C0."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import HermitianBasis, gell_mann_basis
from .linalg import DEFAULT_TOL, ShapeError, Tolerance, check_unitary, frobenius

# Structural bounds a lifted measurement must meet: ||M^2 - M||_F, and the
# deviation that consistency_check reports.
MAX_IDEMPOTENCY_DEFECT = 1e-9
MAX_CONSISTENCY_RESIDUAL = 1e-10


@dataclass(frozen=True, eq=False)
class VonNeumannMeasurement:
    """Complete projective measurement on an m-dimensional system.

    Row i of ``unitary`` holds the coefficients of the i-th measurement
    vector, so the projectors are the outer products of the rows.
    """

    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.unitary)

    def projectors(self) -> np.ndarray:
        """(m, m, m) array; slice i is |phi_i><phi_i|."""
        u = self.unitary
        return u[:, :, np.newaxis] * u.conj()[:, np.newaxis, :]


@dataclass(frozen=True, eq=False)
class LiftedMeasurement:
    """Real (m^2-1) x (m^2-1) matrix representing a measurement's action on
    an orthonormal traceless-Hermitian basis; idempotent with rank m-1."""

    matrix: np.ndarray

    @property
    def idempotency_defect(self) -> float:
        return frobenius(self.matrix @ self.matrix - self.matrix)


def from_unitary(a, tol: Tolerance = DEFAULT_TOL) -> VonNeumannMeasurement:
    a = check_unitary(a, tol)
    return VonNeumannMeasurement(a)


def _outer_rows(u: np.ndarray) -> np.ndarray:
    """(m, m^2) array whose row s is conj(phi_s) (x) phi_s for the rows phi_s of u."""
    return (u.conj()[:, :, np.newaxis] * u[:, np.newaxis, :]).reshape(len(u), -1)


def _coefficients(u: np.ndarray, b: HermitianBasis) -> np.ndarray:
    """D[s, i] = <phi_s|mu_i|phi_s> for the rows phi_s of u and the elements
    mu_i of b: one product of _outer_rows(u) with the transpose of the
    flattened elements, the rows of b.augmented() after vec I."""
    return _outer_rows(u) @ b.augmented()[1:].T


def lift_matrix(
    meas: VonNeumannMeasurement, b: HermitianBasis, tol: Tolerance = DEFAULT_TOL
) -> LiftedMeasurement:
    """Matrix M with M[j, i] = Tr(mu_j^dag . channel(mu_i)) = (D^T D)[j, i],
    where D = _coefficients(unitary, basis).

    Valid because every HermitianBasis is Hilbert-Schmidt orthonormal, which
    its construction checks; D of Hermitian elements is real up to round-off.
    """
    if b.dim != meas.dim:
        raise ShapeError(f"basis dim {b.dim} != measurement dim {meas.dim}")
    d = _coefficients(meas.unitary, b)
    imag = float(np.abs(d.imag).max())
    if imag > tol.eq_abs:
        raise ValueError(f"lifted matrix has imaginary residue {imag:.3e}")
    d = d.real
    return LiftedMeasurement(d.T @ d)


def _checked_unitary(a, tol: Tolerance) -> np.ndarray:
    a = check_unitary(a, tol)
    if a.shape[0] < 2:
        raise ValueError(f"coefficient matrices need dimension >= 2, got {a.shape[0]}")
    return a


def build_C(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real m x (m^2-1) coefficient matrix (C1, C2, C3) of a unitary A:
    C[s, i] = <a_s|mu_i|a_s>, where a_s is row s of A and mu_i is element i of
    gell_mann_basis(m), so the columns follow that basis's canonical ordering."""
    a = _checked_unitary(a, tol)
    return _coefficients(a, gell_mann_basis(a.shape[0])).real


@lru_cache(maxsize=None)
def _off_diagonal(m: int) -> np.ndarray:
    """Read-only row-major flat indices k*m + l of the m x m entries with k != l."""
    index = np.flatnonzero(~np.eye(m, dtype=bool))
    index.setflags(write=False)
    return index


def build_C0(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Complex m x (m^2-1) matrix with the same rank as build_C(a):
    columns alpha_i = |a_0|^2 - |a_i|^2 (i = 1..m-1), then beta_kl = a_k^* a_l
    over the ordered pairs k != l in row-major order."""
    a = _checked_unitary(a, tol)
    absq = np.abs(a) ** 2
    alpha = absq[:, :1] - absq[:, 1:]
    beta = _outer_rows(a)[:, _off_diagonal(a.shape[0])]
    return np.concatenate([alpha, beta], axis=1)


def consistency_check(meas: VonNeumannMeasurement, b: HermitianBasis) -> float:
    """Max entrywise deviation between the channel applied to each element of
    b by its definition, sum_s P_s mu_i P_s, through the superoperator
    S[(q, r), (p, t)] = sum_s P_s[p, q] P_s[r, t], and the combination
    sum_s D[s, i] P_s that the coefficient matrix D in b predicts.  S never reads D."""
    if b.dim != meas.dim:
        raise ShapeError(f"basis dim {b.dim} != measurement dim {meas.dim}")
    m = meas.dim
    proj = meas.projectors().reshape(m, m * m)
    superop = (proj.T @ proj).reshape(m, m, m, m).transpose(1, 2, 0, 3).reshape(m * m, m * m)
    applied = b.augmented()[1:] @ superop
    predicted = _coefficients(meas.unitary, b).T @ proj
    return float(np.abs(applied - predicted).max())
