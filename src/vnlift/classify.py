"""Necessary-condition screens for classicality of bipartite states.

A verdict can only RULE OUT membership in a classicality class; a passing
check is inconclusive, never a certificate of classicality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import gell_mann_basis
from .bloch import BlochForm, decompose
from .linalg import DEFAULT_TOL, InvalidStateError, Tolerance, rank_of_spectrum, validate_density


@dataclass(frozen=True)
class Verdict:
    """One screen's outcome; every screen sets ruled_out = computed_rank > threshold.
    It holds no array, so it compares and hashes by value."""

    ruled_out: bool
    computed_rank: int
    threshold: int


def _verdict(spectrum: np.ndarray, threshold: int, tol: Tolerance) -> Verdict:
    rank = rank_of_spectrum(spectrum, tol)
    return Verdict(ruled_out=rank > threshold, computed_rank=rank, threshold=threshold)


# Every screened matrix is a block of C = bf.correlation = [[Tr rho, S^T], [R, T]],
# which is linear in rho, so no rank depends on Tr rho (1 for a state). Every
# rank is counted on a row of bf.screen_spectra, which one batched SVD fills on
# first use. A BlochForm checked C when it was built, and its bases have
# dimension at least 2, so neither block is empty.


def check_classical_quantum(bf: BlochForm, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Classical-quantum states have rank(R|T) at most m-1."""
    return _verdict(bf.screen_spectra[0], bf.m - 1, tol)


def check_quantum_classical(bf: BlochForm, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Quantum-classical states have rank(S|T^T) at most n-1."""
    return _verdict(bf.screen_spectra[1], bf.n - 1, tol)


def check_classical_classical(bf: BlochForm, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Classical-classical states have rank [[Tr rho, S^T], [R, T]] at most min(m, n)."""
    return _verdict(bf.correlation_spectrum, min(bf.m, bf.n), tol)


def dakic_condition(bf: BlochForm, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Baseline screen: classical-quantum states have block correlation
    matrix rank at most m.  Strictly weaker than check_classical_quantum."""
    return _verdict(bf.correlation_spectrum, bf.m, tol)


# The four verdicts of a state, by name, in report order.
SCREENS = {
    "classical_quantum": check_classical_quantum,
    "quantum_classical": check_quantum_classical,
    "classical_classical": check_classical_classical,
    "dakic": dakic_condition,
}


def classify_state(rho, m: int, n: int, tol: Tolerance = DEFAULT_TOL,
                   validate: bool = True) -> dict:
    """Validate rho as a density matrix on an m (x) n system (unless
    ``validate`` is False), decompose it in the Gell-Mann bases and return
    {name: Verdict} for every screen in SCREENS, in that order."""
    if validate:
        report = validate_density(rho, tol)
        if not report.ok:
            raise InvalidStateError(
                "state fails density validation: "
                f"hermitian={report.hermitian} unit_trace={report.unit_trace} "
                f"psd={report.psd} (min eigenvalue {report.min_eigenvalue:.3e})"
            )
    bf = decompose(rho, gell_mann_basis(m), gell_mann_basis(n), tol)
    return {name: screen(bf, tol) for name, screen in SCREENS.items()}


@dataclass(frozen=True)
class BellDiagonalSpec:
    """Two-qubit state with maximally mixed marginals, parameterized by the
    diagonal correlations (t1, t2, t3)."""

    t1: float
    t2: float
    t3: float

    def eigenvalues(self) -> np.ndarray:
        t1, t2, t3 = self.t1, self.t2, self.t3
        return np.array(
            [
                (1 - t1 - t2 - t3) / 4.0,
                (1 - t1 + t2 + t3) / 4.0,
                (1 + t1 - t2 + t3) / 4.0,
                (1 + t1 + t2 - t3) / 4.0,
            ]
        )


@dataclass(frozen=True)
class BellDiagonalVerdict:
    separable: bool
    nonzero_correlations: int

    @property
    def quantum_quantum(self) -> bool:
        return self.nonzero_correlations > 1


def classify_bell_diagonal(
    spec: BellDiagonalSpec, tol: Tolerance = DEFAULT_TOL
) -> BellDiagonalVerdict:
    """Necessary-and-sufficient classification for Bell-diagonal states.

    The state carries nonzero quantum correlation exactly when more than one
    of the t_i is nonzero; it is separable exactly when (t1, t2, t3) lies in
    the octahedron |t1|+|t2|+|t3| <= 1.
    """
    t = np.array([spec.t1, spec.t2, spec.t3])
    # A NaN fails every comparison, so the tetrahedron check below would pass it.
    if not np.all(np.isfinite(t)):
        raise InvalidStateError(
            f"correlations must be finite, got ({spec.t1}, {spec.t2}, {spec.t3})"
        )
    if np.min(spec.eigenvalues()) < -tol.eq_abs:
        raise InvalidStateError(
            "correlations lie outside the Bell-diagonal state tetrahedron"
        )
    t = np.abs(t)
    nonzero = rank_of_spectrum(np.sort(t)[::-1], tol)
    separable = float(t.sum()) <= 1.0 + tol.eq_abs
    return BellDiagonalVerdict(separable=separable, nonzero_correlations=nonzero)
