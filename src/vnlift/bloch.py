"""Bloch representation of bipartite states: local vectors R, S and the
correlation matrix T, plus the block correlation matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import HermitianBasis
from .linalg import DEFAULT_TOL, ShapeError, Tolerance, as_matrix, is_hermitian


@dataclass(frozen=True)
class BlochForm:
    m: int
    n: int
    R: np.ndarray
    S: np.ndarray
    T: np.ndarray
    basis_a: HermitianBasis
    basis_b: HermitianBasis


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
    """
    rho = as_matrix(rho)
    m, n = basis_a.dim, basis_b.dim
    if rho.shape != (m * n, m * n):
        raise ShapeError(f"state must be {m * n}x{m * n}, got {rho.shape}")
    if not is_hermitian(rho, tol):
        raise ValueError("state is not Hermitian within tolerance")
    rho4 = rho.reshape(m, n, m, n)
    mu = basis_a.stack()
    nu = basis_b.stack()
    r = m * np.einsum("abcb,ica->i", rho4, mu)
    s = n * np.einsum("abad,jdb->j", rho4, nu)
    t = m * n * np.einsum("abcd,ica,jdb->ij", rho4, mu, nu)
    for name, arr in (("R", r), ("S", s), ("T", t)):
        residue = float(np.max(np.abs(arr.imag), initial=0.0))
        if residue > tol.eq_abs:
            raise ValueError(f"{name} has imaginary residue {residue:.3e}")
    return BlochForm(m=m, n=n, R=r.real, S=s.real, T=t.real, basis_a=basis_a, basis_b=basis_b)


def reconstruct(bf: BlochForm) -> np.ndarray:
    """rho = (1/mn)(I(x)I + sum r_i mu_i(x)I + sum s_j I(x)nu_j + sum t_ij mu_i(x)nu_j).

    Always Hermitian with unit trace; positivity is not guaranteed.
    """
    m, n = bf.m, bf.n
    if bf.R.shape != (m * m - 1,) or bf.S.shape != (n * n - 1,):
        raise ShapeError("local vector length inconsistent with dimensions")
    if bf.T.shape != (m * m - 1, n * n - 1):
        raise ShapeError("correlation matrix shape inconsistent with dimensions")
    mu = bf.basis_a.stack()
    nu = bf.basis_b.stack()
    eye_a = np.eye(m, dtype=complex)
    eye_b = np.eye(n, dtype=complex)
    rho4 = np.einsum("ac,bd->abcd", eye_a, eye_b).astype(complex)
    rho4 += np.einsum("i,iac,bd->abcd", bf.R.astype(complex), mu, eye_b)
    rho4 += np.einsum("j,ac,jbd->abcd", bf.S.astype(complex), eye_a, nu)
    rho4 += np.einsum("ij,iac,jbd->abcd", bf.T.astype(complex), mu, nu)
    return rho4.reshape(m * n, m * n) / (m * n)


def correlation_matrix(bf: BlochForm) -> np.ndarray:
    """Block matrix [[1, S^T], [R, T]] of shape m^2 x n^2."""
    top = np.concatenate(([1.0], bf.S))
    bottom = np.column_stack((bf.R, bf.T))
    return np.vstack((top, bottom))
