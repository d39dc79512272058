"""Dense complex linear algebra substrate: tolerances, numerical rank, validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class UnitarityError(ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class BasisError(ValueError):
    """An operator basis fails a required structural property."""


class InvalidStateError(ValueError):
    """A purported quantum state fails a validity requirement."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs used throughout.

    rank_rel: relative singular-value cutoff for numerical rank.
    eq_abs: absolute cutoff for entrywise / Frobenius-norm comparisons.
    """

    rank_rel: float = 1e-9
    eq_abs: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rank_rel < 1.0:
            raise ValueError(f"rank_rel must lie in (0, 1), got {self.rank_rel}")
        # Written so that NaN fails: an infinite eq_abs zeroes every rank, and
        # a NaN one fails every comparison.
        if not 0.0 < self.eq_abs < math.inf:
            raise ValueError(f"eq_abs must be positive and finite, got {self.eq_abs}")


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    return _finite_matrix(np.asarray(a, dtype=complex))


def as_state(rho, m: int, n: int) -> np.ndarray:
    """``as_matrix`` of a state on an m (x) n system, which must be mn x mn."""
    rho = as_matrix(rho)
    if rho.shape != (m * n, m * n):
        raise ShapeError(f"state must be {m * n}x{m * n}, got {rho.shape}")
    return rho


def _finite_matrix(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def singular_values(a) -> np.ndarray:
    """Singular values, largest first, of a finite, non-empty 2-D matrix."""
    a = np.asarray(a)
    # Real input keeps the float SVD, about 1.5x faster than the complex one.
    a = _finite_matrix(a.astype(complex if a.dtype.kind == "c" else float, copy=False))
    if a.size == 0:
        raise ShapeError("rank of an empty matrix is undefined")
    return np.linalg.svd(a, compute_uv=False)


def rank_of_spectrum(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count the singular values ``s`` (largest first) above rank_rel times
    the largest one; zero when the largest is at most eq_abs."""
    top = float(s[0])
    if top <= tol.eq_abs:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * top))


def numerical_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count singular values above rank_rel times the largest one.

    A matrix whose largest singular value is at most eq_abs counts as zero.
    """
    return rank_of_spectrum(singular_values(a), tol)


def _is_hermitian(a: np.ndarray, tol: Tolerance) -> bool:
    """Hermiticity of a square matrix that ``as_matrix`` already returned."""
    return bool(np.abs(a - a.conj().T).max(initial=0.0) <= tol.eq_abs)


def check_unitary(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Return ``a`` as a complex matrix, or raise if ||AA^dag - I||_F > eq_abs
    or ``a`` is empty.

    A NaN or Inf entry makes the defect non-finite, so the finite-entry scan
    runs only once the defect test has failed.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        _finite_matrix(a)
        raise ShapeError(f"unitary must be square, got {a.shape}")
    if not a.size:
        raise ShapeError("unitary must not be empty")
    # An overflowing product is rejected below; it need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.conj().T
        gram.reshape(-1)[:: a.shape[0] + 1] -= 1.0
        defect = math.sqrt(np.vdot(gram, gram).real)
    # Written so that a NaN defect (an overflowing product) fails the test.
    if not defect <= tol.eq_abs:
        _finite_matrix(a)
        raise UnitarityError(f"matrix is not unitary: ||AA^dag - I||_F = {defect:.3e}")
    return a


@dataclass(frozen=True)
class DensityReport:
    """Outcome of ``validate_density``; ``symmetrized`` is the read-only
    (rho + rho^dag) / 2 whose positivity ``psd`` records."""

    hermitian: bool
    unit_trace: bool
    psd: bool
    symmetrized: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of ``symmetrized``, computed on first read; it
        is for diagnostics, and ``psd`` does not depend on it."""
        return float(np.linalg.eigvalsh(self.symmetrized)[0])

    @property
    def ok(self) -> bool:
        return self.hermitian and self.unit_trace and self.psd


def validate_density(rho, tol: Tolerance = DEFAULT_TOL) -> DensityReport:
    """Check Hermiticity, unit trace, and positive semidefiniteness.

    rho counts as PSD when its smallest eigenvalue is at least -eq_abs, that is
    when sym + eq_abs * I is positive definite: exactly when its Cholesky
    factorisation succeeds, up to round-off of order d * eps * ||rho||. One
    Cholesky costs about a quarter of a Hermitian eigensolve.
    """
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"density matrix must be square, got {rho.shape}")
    # One adjoint serves _is_hermitian's test and the symmetrisation.
    rho_dag = rho.conj().T
    herm = bool(np.abs(rho - rho_dag).max(initial=0.0) <= tol.eq_abs)
    # np.trace warns when a finite trace overflows; a Python sum does not. abs(t)
    # raises OverflowError when both parts of t are huge: test the real one first.
    t = sum(rho.diagonal().tolist()) - 1.0
    unit_trace = abs(t.real) <= tol.eq_abs and abs(t) <= tol.eq_abs
    # The factorisation reads one triangle only; symmetrizing makes that the
    # same matrix whose smallest eigenvalue min_eigenvalue reports. Halving
    # before the sum keeps a finite rho's sym finite.
    sym = rho * 0.5
    sym += rho_dag * 0.5
    sym.flags.writeable = False
    shifted = sym.copy()
    shifted.reshape(-1)[:: rho.shape[0] + 1] += tol.eq_abs
    try:
        np.linalg.cholesky(shifted)
        psd = True
    except np.linalg.LinAlgError:
        psd = False
    return DensityReport(hermitian=herm, unit_trace=unit_trace, psd=psd, symmetrized=sym)
