"""Bloch representation of bipartite states: local vectors R, S and the
correlation matrix T, plus the block correlation matrix."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import HermitianBasis
from .linalg import DEFAULT_TOL, ShapeError, Tolerance, _finite_matrix, _is_hermitian, as_matrix


@dataclass(frozen=True)
class BlochForm:
    """Local vectors R, S and correlations T of a state on an m (x) n system.

    The block correlation matrix and the singular values of it and of its
    screened blocks are computed once, on first use, and every screen reads
    them. They assume R, S and T are not written to afterwards;
    ``decompose`` returns them read-only.
    """

    m: int
    n: int
    R: np.ndarray
    S: np.ndarray
    T: np.ndarray
    basis_a: HermitianBasis
    basis_b: HermitianBasis

    @cached_property
    def correlation(self) -> np.ndarray:
        """Read-only block matrix [[1, S^T], [R, T]] of shape m^2 x n^2."""
        m, n = self.m, self.n
        r, s, t = np.asarray(self.R), np.asarray(self.S), np.asarray(self.T)
        if r.shape != (m * m - 1,) or s.shape != (n * n - 1,):
            raise ShapeError("local vector length inconsistent with dimensions")
        if t.shape != (m * m - 1, n * n - 1):
            raise ShapeError("correlation matrix shape inconsistent with dimensions")
        c = np.empty((m * m, n * n), dtype=np.result_type(1.0, r, s, t))
        c[0, 0] = 1.0
        c[0, 1:] = s
        c[1:, 0] = r
        c[1:, 1:] = t
        c.flags.writeable = False
        return c

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
        c = _finite_matrix(self.correlation)
        # The dtype singular_values uses, so that row 2 matches it bit for bit.
        stack = np.empty((3, *c.shape), dtype=complex if np.iscomplexobj(c) else float)
        stack[:] = c
        stack[0, 0, :] = 0.0
        stack[1, :, 0] = 0.0
        s = np.linalg.svd(stack, compute_uv=False)
        s.flags.writeable = False
        return s

    @property
    def correlation_spectrum(self) -> np.ndarray:
        """Read-only singular values of ``correlation``, largest first."""
        return self.screen_spectra[2]


def _flat(basis: HermitianBasis) -> np.ndarray:
    """Basis stack as a (k, m^2) matrix: row i is mu_i[c, a] at column c*m + a."""
    return basis.stack().reshape(basis.dim**2 - 1, basis.dim**2)


def decompose(
    rho,
    basis_a: HermitianBasis,
    basis_b: HermitianBasis,
    tol: Tolerance = DEFAULT_TOL,
) -> BlochForm:
    """Extract (R, S, T) from a density matrix on an m (x) n system.

    The coefficients are r_i = m Tr(rho (mu_i (x) I)), s_j = n Tr(rho (I (x) nu_j)),
    t_ij = mn Tr(rho (mu_i (x) nu_j)); any imaginary residue above eq_abs is an
    error rather than silently truncated.

    With the bases flattened to A (row i = mu_i) and B, and rho permuted to
    X[(c, a), (d, b)] = rho[(a, b), (c, d)], these are matrix products:
    T = mn A X B^T, R = m A x_I with x_I the sum of X's columns (d, d), and
    S = n times the sum of the rows (c, c) of X B^T.
    """
    rho = as_matrix(rho)
    m, n = basis_a.dim, basis_b.dim
    if rho.shape != (m * n, m * n):
        raise ShapeError(f"state must be {m * n}x{m * n}, got {rho.shape}")
    if not _is_hermitian(rho, tol):
        raise ValueError("state is not Hermitian within tolerance")
    x = rho.reshape(m, n, m, n).transpose(2, 0, 3, 1).reshape(m * m, n * n)
    a = _flat(basis_a)
    xb = x @ _flat(basis_b).T
    r = m * (a @ x[:, :: n + 1].sum(1))
    s = n * xb[:: m + 1].sum(0)
    t = m * n * (a @ xb)
    for name, arr in (("R", r), ("S", s), ("T", t)):
        residue = float(np.abs(arr.imag).max(initial=0.0))
        if residue > tol.eq_abs:
            raise ValueError(f"{name} has imaginary residue {residue:.3e}")
    r, s, t = r.real, s.real, t.real
    for arr in (r, s, t):
        arr.flags.writeable = False
    return BlochForm(m=m, n=n, R=r, S=s, T=t, basis_a=basis_a, basis_b=basis_b)


def reconstruct(bf: BlochForm) -> np.ndarray:
    """rho = (1/mn)(I(x)I + sum r_i mu_i(x)I + sum s_j I(x)nu_j + sum t_ij mu_i(x)nu_j).

    Always Hermitian with unit trace; positivity is not guaranteed.

    The inverse of decompose on the same layout: with A' = [vec I; conj(A)]
    and B' likewise, X = A'^T [[1, S^T], [R, T]] B' / mn, because the
    orthonormal rows of A satisfy conj(A) A^T = I.
    """
    m, n = bf.m, bf.n
    a = np.vstack((np.eye(m).ravel(), _flat(bf.basis_a).conj()))
    b = np.vstack((np.eye(n).ravel(), _flat(bf.basis_b).conj()))
    x = a.T @ bf.correlation @ b / (m * n)
    return x.reshape(m, m, n, n).transpose(1, 3, 0, 2).reshape(m * n, m * n)
