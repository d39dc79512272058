"""Von Neumann measurements, their lift to the operator basis, and the
associated coefficient matrices C and C0."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import HermitianBasis, gell_mann_basis
from .linalg import DEFAULT_TOL, ShapeError, Tolerance, UnitarityError, as_matrix

# Structural bounds a lifted measurement must meet: ||M^2 - M||_F, and the
# deviation that consistency_check reports.
MAX_IDEMPOTENCY_DEFECT = 1e-9
MAX_CONSISTENCY_RESIDUAL = 1e-10


@dataclass(frozen=True, eq=False, init=False)
class VonNeumannMeasurement:
    """Complete projective measurement on an m-dimensional system, built only by
    ``from_unitary``: calling the class, with or without a matrix, or
    ``dataclasses.replace`` raises TypeError. Row i of ``unitary`` holds the
    coefficients of the i-th measurement vector; the projectors are their outer
    products. A pickled or deep-copied measurement is rebuilt by from_unitary,
    so it is checked again; a shallow copy shares the checked array."""

    unitary: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a VonNeumannMeasurement is built by from_unitary")

    def __reduce__(self):
        return from_unitary, (self.unitary,)

    def __copy__(self):
        twin = object.__new__(VonNeumannMeasurement)
        object.__setattr__(twin, "unitary", self.unitary)
        return twin

    @property
    def dim(self) -> int:
        return len(self.unitary)


@dataclass(frozen=True, eq=False, init=False)
class LiftedMeasurement:
    """Real (m^2-1) x (m^2-1) matrix representing a measurement's action on
    an orthonormal traceless-Hermitian basis; idempotent with rank m-1. Built only
    by ``lift_matrix``; calling the class raises TypeError, like
    VonNeumannMeasurement. A copy or an unpickled lift keeps its matrix read-only."""

    matrix: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a LiftedMeasurement is built by lift_matrix")

    def __setstate__(self, state):
        state["matrix"].flags.writeable = False
        object.__setattr__(self, "matrix", state["matrix"])

    @property
    def idempotency_defect(self) -> float:
        return float(np.linalg.norm(self.matrix @ self.matrix - self.matrix))


# The last measurement from_unitary built, with the key of the copy it
# checked and the D of each basis it was lifted in: (key, meas, {basis: D}).
_last: tuple | None = None


def from_unitary(a, tol: Tolerance = DEFAULT_TOL) -> VonNeumannMeasurement:
    """The measurement with the rows of ``a``, which must be at least 2 x 2 (no
    basis, lift or C exists at dimension 1) and unitary within ``tol``:
    ||AA^dag - I||_F <= eq_abs. vnlift builds every measurement here, from a
    read-only C-ordered copy of ``a``, so editing ``a`` afterwards changes nothing.

    The last measurement built is kept: a copy with the same shape and bytes,
    checked at the same eq_abs, returns it unchecked, so one unitary handed to
    several of these functions is checked once. Any other input (another
    entry, -0.0 for 0.0, another eq_abs) is checked afresh, and a refused
    matrix is never kept.

    A NaN or Inf entry makes the defect non-finite, so the finite-entry scan
    runs only once the defect test has failed.
    """
    global _last
    a = np.array(a, dtype=complex, order="C")
    key = (a.shape, tol.eq_abs, a.tobytes())
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        as_matrix(a)
        raise ShapeError(f"unitary must be square, got {a.shape}")
    if a.shape[0] < 2:
        raise ValueError(f"a measurement needs dimension >= 2, got {a.shape[0]}")
    # An overflowing product is rejected below; it need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.conj().T
        gram.reshape(-1)[:: a.shape[0] + 1] -= 1.0
        defect = math.sqrt(np.vdot(gram, gram).real)
    # Written so that a NaN defect (an overflowing product) fails the test.
    if not defect <= tol.eq_abs:
        as_matrix(a)
        raise UnitarityError(f"matrix is not unitary: ||AA^dag - I||_F = {defect:.3e}")
    a.flags.writeable = False
    meas = object.__new__(VonNeumannMeasurement)
    object.__setattr__(meas, "unitary", a)
    _last = (key, meas, {})
    return meas


def _outer_rows(u: np.ndarray) -> np.ndarray:
    """(m, m^2) array whose row s is conj(phi_s) (x) phi_s for the rows phi_s of u."""
    return (u.conj()[:, :, np.newaxis] * u[:, np.newaxis, :]).reshape(len(u), -1)


def _coefficients(meas: VonNeumannMeasurement, b: HermitianBasis) -> np.ndarray:
    """D[s, i] = <phi_s|mu_i|phi_s> for the measurement vectors phi_s and the
    elements mu_i of b: one product of _outer_rows(unitary) with the transpose
    of the flattened elements, the rows of b.augmented() after vec I. Every D is
    formed here, behind the one check that b has the measurement's dimension.
    D is read-only, and is kept per basis while meas is from_unitary's last
    measurement."""
    if b.dim != meas.dim:
        raise ShapeError(f"basis dim {b.dim} != measurement dim {meas.dim}")
    last = _last
    kept = last[2] if last is not None and last[1] is meas else {}
    d = kept.get(b)
    if d is None:
        d = kept[b] = _outer_rows(meas.unitary) @ b.augmented()[1:].T
        d.flags.writeable = False
    return d


def lift_matrix(meas: VonNeumannMeasurement, b: HermitianBasis) -> LiftedMeasurement:
    """Matrix M with M[j, i] = Tr(mu_j^dag . channel(mu_i)) = (D^T D)[j, i],
    where D is _coefficients(meas, b).real, as in build_C. M is read-only.

    Valid because every HermitianBasis is Hilbert-Schmidt orthonormal and
    Hermitian within eq_abs, which its construction checks once; D's
    imaginary part is then of that order, and is not checked again here.
    """
    d = _coefficients(meas, b).real
    matrix = d.T @ d
    matrix.flags.writeable = False
    lifted = object.__new__(LiftedMeasurement)
    object.__setattr__(lifted, "matrix", matrix)
    return lifted


def build_C(a) -> np.ndarray:
    """Real m x (m^2-1) coefficient matrix (C1, C2, C3) of a unitary A, checked
    by ``from_unitary``: C[s, i] = <a_s|mu_i|a_s> for row a_s of A and element
    mu_i of gell_mann_basis(m), so the columns follow its canonical ordering.
    C is a read-only view of the D that lift_matrix and consistency_check share."""
    meas = from_unitary(a)
    return _coefficients(meas, gell_mann_basis(meas.dim)).real


@lru_cache(maxsize=None)
def _off_diagonal(m: int) -> np.ndarray:
    """Read-only row-major flat indices k*m + l of the m x m entries with k != l."""
    index = np.flatnonzero(~np.eye(m, dtype=bool))
    index.setflags(write=False)
    return index


def build_C0(a) -> np.ndarray:
    """Complex m x (m^2-1) matrix with the same rank as build_C(a):
    columns alpha_i = |a_0|^2 - |a_i|^2 (i = 1..m-1), then beta_kl = a_k^* a_l
    over the ordered pairs k != l in row-major order. A is checked as in build_C."""
    a = from_unitary(a).unitary
    absq = np.abs(a) ** 2
    alpha = absq[:, :1] - absq[:, 1:]
    beta = _outer_rows(a)[:, _off_diagonal(a.shape[0])]
    return np.concatenate([alpha, beta], axis=1)


def consistency_check(meas: VonNeumannMeasurement, b: HermitianBasis) -> float:
    """Max entrywise deviation between the channel applied to each element of
    b by its definition, sum_s P_s mu_i P_s, through the superoperator
    S[(q, r), (p, t)] = sum_s P_s[p, q] P_s[r, t], and the combination
    sum_s D[s, i] P_s that the coefficient matrix D in b predicts. S never reads
    D, which is formed first, so a basis of another dimension raises first."""
    d = _coefficients(meas, b)
    m, u = meas.dim, meas.unitary
    # Row s is P_s = |phi_s><phi_s|, flattened row-major.
    proj = (u[:, :, np.newaxis] * u.conj()[:, np.newaxis, :]).reshape(m, m * m)
    superop = (proj.T @ proj).reshape(m, m, m, m).transpose(1, 2, 0, 3).reshape(m * m, m * m)
    applied = b.augmented()[1:] @ superop
    return float(np.abs(applied - d.T @ proj).max())
