import numpy as np
import pytest
from hypothesis import settings

from vnlift import DEFAULT_TOL, BlochForm

settings.register_profile("ci", deadline=None, max_examples=25)
settings.load_profile("ci")

SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def rho_zero(x: float) -> np.ndarray:
    """Two-qubit benchmark state with diagonal local vectors of size 1/x and
    correlations 1/x^2 along the first and third axes (valid for x >= sqrt(2))."""
    eye = np.eye(2, dtype=complex)
    out = np.kron(eye, eye)
    out += (1 / x) * (np.kron(SIGMA[3], eye) + np.kron(eye, SIGMA[3]))
    out += (1 / x**2) * (np.kron(SIGMA[1], SIGMA[1]) + np.kron(SIGMA[3], SIGMA[3]))
    return out / 4.0


def bell_diagonal_state(t1: float, t2: float, t3: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    for t, s in zip((t1, t2, t3), (SIGMA[1], SIGMA[2], SIGMA[3])):
        out += t * np.kron(s, s)
    return out / 4.0


def near_hermitian(rho: np.ndarray, seed: int, fraction: float = 0.9) -> np.ndarray:
    """rho + iK for a seeded traceless Hermitian K, scaled so that
    max|A - A^dag| = max|2K| is ``fraction`` times the default eq_abs."""
    d = len(rho)
    g = np.random.default_rng(seed).standard_normal((2, d, d))
    k = g[0] + 1j * g[1]
    k = k + k.conj().T
    k -= np.trace(k).real / d * np.eye(d)
    return rho + 1j * k * (fraction * DEFAULT_TOL.eq_abs / (2 * np.abs(k).max()))


def bloch_form(r, s, t, basis_a, basis_b) -> BlochForm:
    """Bloch form whose C = [[1, S^T], [R, T]] is assembled from R, S and T."""
    r, s, t = (np.asarray(x, dtype=float) for x in (r, s, t))
    c = np.block([[np.ones((1, 1)), s[np.newaxis]], [r[:, np.newaxis], t]])
    return BlochForm(correlation=c, basis_a=basis_a, basis_b=basis_b)


@pytest.fixture
def sigma():
    return SIGMA
