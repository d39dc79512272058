"""Reference two-qubit states, with numpy as their only dependency, so that
scripts/make_fixtures.py runs without the test extras."""

import numpy as np

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
