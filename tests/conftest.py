import numpy as np
from hypothesis import settings

from vnlift import DEFAULT_TOL, BlochForm
from tests.states import SIGMA, bell_diagonal_state, rho_zero  # noqa: F401

settings.register_profile("ci", deadline=None, max_examples=25)
settings.load_profile("ci")


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
