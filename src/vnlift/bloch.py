"""Bloch representation of bipartite operators: the block correlation matrix
C = [[Tr rho, S^T], [R, T]] of local vectors R, S and correlations T."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import HermitianBasis
from .linalg import DEFAULT_TOL, ShapeError, Tolerance, _finite_matrix, _is_hermitian, as_state


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Block correlation matrix C = [[Tr rho, S^T], [R, T]] of an operator on
    an m (x) n system, with R, S and T read as views of it.

    m and n are the dimensions of the bases. Construction checks that C is a
    real, finite m^2 x n^2 matrix, and keeps one read-only float64 copy of
    it, so every screen reads a checked C. Its singular values and those of
    its screened blocks are computed once, on first use.
    """

    correlation: np.ndarray
    basis_a: HermitianBasis
    basis_b: HermitianBasis

    def __post_init__(self):
        m, n = self.m, self.n
        if np.iscomplexobj(self.correlation):
            raise ShapeError("correlation matrix must be real, got a complex array")
        c = _finite_matrix(np.array(self.correlation, dtype=float))
        if c.shape != (m * m, n * n):
            raise ShapeError(f"correlation matrix must be {m * m}x{n * n}, got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "correlation", c)

    @property
    def m(self) -> int:
        return self.basis_a.dim

    @property
    def n(self) -> int:
        return self.basis_b.dim

    @property
    def R(self) -> np.ndarray:
        """Local vector of the first system: C[1:, 0]."""
        return self.correlation[1:, 0]

    @property
    def S(self) -> np.ndarray:
        """Local vector of the second system: C[0, 1:]."""
        return self.correlation[0, 1:]

    @property
    def T(self) -> np.ndarray:
        """Correlation matrix: C[1:, 1:]."""
        return self.correlation[1:, 1:]

    @cached_property
    def screen_spectra(self) -> np.ndarray:
        """Read-only singular values, largest first, of (R|T), (S|T^T) and C
        in rows 0, 1 and 2, from one batched SVD.

        Rows 0 and 1 are the spectra of C with its first row, and with its
        first column, set to zero. A zero row or column adds one zero
        singular value and leaves the others as they are, so each row holds
        its block's spectrum, padded with a round-off zero where the block
        has fewer singular values than C. The zero lies far below any rank
        cutoff, so it never counts.
        """
        stack = np.empty((3, *self.correlation.shape))
        stack[:] = self.correlation
        stack[0, 0, :] = 0.0
        stack[1, :, 0] = 0.0
        s = np.linalg.svd(stack, compute_uv=False)
        s.flags.writeable = False
        return s

    @property
    def correlation_spectrum(self) -> np.ndarray:
        """Read-only singular values of ``correlation``, largest first."""
        return self.screen_spectra[2]


def decompose(
    rho,
    basis_a: HermitianBasis,
    basis_b: HermitianBasis,
    tol: Tolerance = DEFAULT_TOL,
) -> BlochForm:
    """Bloch form of a Hermitian matrix on an m (x) n system.

    The coefficients are r_i = m Tr(rho (mu_i (x) I)), s_j = n Tr(rho (I (x) nu_j)),
    t_ij = mn Tr(rho (mu_i (x) nu_j)). rho must be Hermitian within eq_abs
    entrywise, the criterion ``validate_density`` applies too. The basis
    elements are Hermitian, so the anti-Hermitian part of rho adds only
    imaginary parts to the coefficients: C is their real part, the Bloch form
    of (rho + rho^dag) / 2.

    With rho permuted to X[(c, a), (d, b)] = rho[(a, b), (c, d)] and the
    augmented bases A' and B' (``HermitianBasis.augmented``), these are one
    product chain: C = D_m A' X B'^T D_n with D_k = diag(1, k, ..., k). Its
    (0, 0) entry is Tr rho, and C is linear in rho.
    """
    m, n = basis_a.dim, basis_b.dim
    rho = as_state(rho, m, n)
    if not _is_hermitian(rho, tol):
        raise ValueError("state is not Hermitian within tolerance")
    x = rho.reshape(m, n, m, n).transpose(2, 0, 3, 1).reshape(m * m, n * n)
    c = basis_a.augmented() @ (x @ basis_b.augmented().T)
    c[1:] *= m
    c[:, 1:] *= n
    return BlochForm(c.real, basis_a, basis_b)


def reconstruct(bf: BlochForm) -> np.ndarray:
    """rho = (1/mn)(c I(x)I + sum r_i mu_i(x)I + sum s_j I(x)nu_j + sum t_ij mu_i(x)nu_j).

    Always Hermitian with trace c = C[0, 0]; positivity is not guaranteed.

    The inverse of decompose on the same layout: X = conj(A')^T C conj(B') / mn,
    because conj(A') A'^T = diag(m, 1, ..., 1).
    """
    m, n = bf.m, bf.n
    a, b = bf.basis_a.augmented().conj(), bf.basis_b.augmented().conj()
    x = a.T @ bf.correlation @ b / (m * n)
    return x.reshape(m, m, n, n).transpose(1, 3, 0, 2).reshape(m * n, m * n)
