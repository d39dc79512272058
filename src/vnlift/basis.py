"""The orthonormal generalized Gell-Mann basis of the traceless Hermitian matrices."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import BasisError, DEFAULT_TOL, _hermitian_half

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class HermitianBasis:
    """Ordered orthonormal basis of the m x m traceless Hermitian matrices.

    Each label is one of ``diagonal(p)``, ``symmetric(k,l)``, ``antisymmetric(k,l)``.
    ``dim`` is m, read from the one square shape the elements share.
    Construction checks the shape, count, Hermiticity and tracelessness of every
    element and that the Hilbert-Schmidt Gram matrix is the identity, all at
    DEFAULT_TOL.eq_abs, so every instance is a valid basis.  The elements are
    read-only views of one read-only matrix, ``augmented()``.
    """

    elements: tuple
    labels: tuple
    dim: int = field(init=False)
    _augmented: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = sorted({np.shape(w) for w in self.elements})
        m = shapes[0][0] if shapes and shapes[0] else 0
        if shapes != [(m, m)]:
            raise BasisError(f"basis elements must share one square shape, got {shapes}")
        k = m * m - 1
        if len(self.elements) != k:
            raise BasisError(f"dim {m} needs {k} elements, got {len(self.elements)}")
        if len(self.labels) != k:
            raise BasisError("one label per element required")
        stack = np.array(self.elements, dtype=complex)
        # The states' Hermiticity test; the checks below use "not <=" so NaN fails.
        if not _hermitian_half(stack, DEFAULT_TOL)[0]:
            raise BasisError("basis elements must be Hermitian")
        if not np.max(np.abs(np.trace(stack, axis1=1, axis2=2))) <= DEFAULT_TOL.eq_abs:
            raise BasisError("basis elements must be traceless")
        gram = np.einsum("iab,jab->ij", stack.conj(), stack)
        if not np.max(np.abs(gram - np.eye(k))) <= DEFAULT_TOL.eq_abs:
            raise BasisError("basis must be Hilbert-Schmidt orthonormal")
        augmented = np.vstack((np.eye(m).ravel(), stack.reshape(k, m * m)))
        augmented.setflags(write=False)
        object.__setattr__(self, "dim", m)
        object.__setattr__(self, "_augmented", augmented)
        object.__setattr__(self, "elements", tuple(self.stack()))

    def stack(self) -> np.ndarray:
        """Elements as a read-only (m^2-1, m, m) array."""
        return self._augmented[1:].reshape(-1, self.dim, self.dim)

    def augmented(self) -> np.ndarray:
        """Read-only (m^2, m^2) matrix A' = [vec I; vec mu_1; ...; vec mu_k],
        each row a row-major flattening, so conj(A') A'^T = diag(m, 1, ..., 1)."""
        return self._augmented


@functools.lru_cache(maxsize=None)
def _gell_mann_basis(m: int) -> HermitianBasis:
    if m < 2:
        raise ValueError(f"basis needs dimension >= 2, got {m}")
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    labels = (
        [f"diagonal({p})" for p in range(1, m)]
        + [f"symmetric({k},{l})" for k, l in pairs]
        + [f"antisymmetric({k},{l})" for k, l in pairs]
    )
    stack = np.zeros((m * m - 1, m, m), dtype=complex)
    for p in range(1, m):
        coeff = np.sqrt(1.0 / (p * (p + 1)))
        stack[p - 1, range(p), range(p)] = coeff
        stack[p - 1, p, p] = -p * coeff
    for i, (k, l) in enumerate(pairs, start=m - 1):
        stack[i, k, l] = stack[i, l, k] = 1.0 / _SQRT2
        # i(|k><l| - |l><k|)/sqrt(2)
        stack[i + len(pairs), k, l] = 1j / _SQRT2
        stack[i + len(pairs), l, k] = -1j / _SQRT2
    return HermitianBasis(elements=tuple(stack), labels=tuple(labels))


def gell_mann_basis(m: int) -> HermitianBasis:
    """Canonical ordering: diagonal p=1..m-1, then symmetric (k,l) for k<l
    lexicographic, then antisymmetric (k,l) in the same order.

    Memoized on operator.index(m): every integer m, a numpy one included,
    returns the same read-only basis, and a float m such as 2.0 raises
    TypeError whatever was called before; lru_cache alone keys 2.0 and 2 alike.
    """
    return _gell_mann_basis(operator.index(m))
