"""Orthonormal bases of traceless Hermitian matrices (generalized Gell-Mann type)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=None)
def gell_mann_basis(m: int) -> HermitianBasis:
    """Canonical ordering: diagonal p=1..m-1, then symmetric (k,l) for k<l
    lexicographic, then antisymmetric (k,l) in the same order.

    Memoized: every call with the same m returns the same read-only basis.
    """
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


@lru_cache(maxsize=None)
def pauli_gell_mann_basis(m: int) -> HermitianBasis:
    """Textbook interleaved ordering, scaled to unit Hilbert-Schmidt norm.

    For m=2 this is (sigma_1, sigma_2, sigma_3)/sqrt(2); for m=3 it is
    (lambda_1, ..., lambda_8)/sqrt(2).  The elements are those of
    gell_mann_basis(m), reordered, with the antisymmetric ones negated to the
    textbook sign i(|l><k| - |k><l|)/sqrt(2).  Memoized like gell_mann_basis.
    """
    canonical = gell_mann_basis(m)
    labels = []
    for l in range(1, m):
        for k in range(l):
            labels += [f"symmetric({k},{l})", f"antisymmetric({k},{l})"]
        labels.append(f"diagonal({l})")
    index = {lab: i for i, lab in enumerate(canonical.labels)}
    stack = canonical.stack()
    elements = tuple(
        -stack[index[lab]] if lab.startswith("antisymmetric") else stack[index[lab]]
        for lab in labels
    )
    return HermitianBasis(elements=elements, labels=tuple(labels))
