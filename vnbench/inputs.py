"""Seeded inputs and independent reference results for the benchmark.

Nothing here imports vnlift. The states and unitaries fed to the program,
and the references its outputs are checked against, come from this module
alone, so a defect in vnlift's own samplers or linear algebra cannot hide
itself.
"""

from __future__ import annotations

import numpy as np

RANK_REL = 1e-9
EQ_ABS = 1e-10

# Weight of the maximally entangled part of an entangled oracle state. Any
# one-sided measurement moves the maximally entangled state by
# sqrt(1 - 1/d) >= 0.707 in Frobenius norm and the rest by at most 1 - W, so
# the smallest residual of the mixture is at least 0.75 * 0.707 - 0.25 > 0.28.
ENTANGLED_WEIGHT = 0.75


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """QR of a complex Gaussian matrix with the phases of R divided out."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def gapped_distribution(rng: np.random.Generator, d: int) -> np.ndarray:
    """Probability vector whose sorted entries differ by at least 0.5 / sum(w).

    The weights are 1 + i + u_i with u_i in [0, 0.5), so the gap holds by
    construction (>= 0.0125 at d = 8) rather than by rejection sampling.
    """
    w = 1.0 + np.arange(d) + 0.5 * rng.random(d)
    return rng.permutation(w / w.sum())


def _hermitian(rho: np.ndarray) -> np.ndarray:
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def _swap(rho: np.ndarray, m: int, n: int) -> np.ndarray:
    """State on m (x) n -> the same state on n (x) m."""
    return rho.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)


def cq_state(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """sum_i p_i |phi_i><phi_i| (x) |chi_i><chi_i| with a gapped p.

    chi_0 is a basis vector and chi_1 the uniform superposition, both turned
    by one random unitary, so no single basis on side B diagonalizes both:
    the B side stays measurably far from classical.
    """
    u = haar_unitary(rng, m)
    v = haar_unitary(rng, n)
    p = gapped_distribution(rng, m)
    chi = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    chi[0] = np.eye(n)[0]
    chi[1] = np.ones(n)
    chi = chi @ v.T
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    rho = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        rho += p[i] * np.kron(np.outer(u[:, i], u[:, i].conj()), np.outer(chi[i], chi[i].conj()))
    return _hermitian(rho)


def qc_state(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return _swap(cq_state(rng, n, m), n, m)


def cc_state(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """sum_ij p_ij |phi_i><phi_i| (x) |psi_j><psi_j| with both marginals gapped.

    p_ij = a_i b_j (1 + 0.2 (x_i - <x>_a)(y_j - <y>_b)) has marginals exactly
    a and b, and stays positive because |x - <x>|, |y - <y>| <= 2.
    """
    a, b = gapped_distribution(rng, m), gapped_distribution(rng, n)
    x, y = rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, n)
    p = np.outer(a, b) * (1.0 + 0.2 * np.outer(x - a @ x, y - b @ y))
    w = np.kron(haar_unitary(rng, m), haar_unitary(rng, n))
    return _hermitian((w * p.ravel()) @ w.conj().T)


def generic_state(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """G G^dag / Tr for a complex Gaussian G: full rank, correlated on both sides."""
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _hermitian(g @ g.conj().T)


def entangled_state(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Rotated maximally entangled state mixed with a generic state (m == n)."""
    if m != n:
        raise ValueError("entangled oracle states need m == n")
    phi = np.kron(haar_unitary(rng, m), haar_unitary(rng, n)) @ np.eye(m).ravel()
    phi /= np.linalg.norm(phi)
    return _hermitian(
        ENTANGLED_WEIGHT * np.outer(phi, phi.conj())
        + (1.0 - ENTANGLED_WEIGHT) * generic_state(rng, m, n)
    )


STATE_KINDS = {
    "cq": cq_state,
    "qc": qc_state,
    "cc": cc_state,
    "generic": generic_state,
    "entangled": entangled_state,
}

# Which side of each kind is classical by construction.
CLASSICAL_SIDES = {
    "cq": ("left",),
    "qc": ("right",),
    "cc": ("left", "right"),
    "generic": (),
    "entangled": (),
}


def gell_mann_stack(m: int) -> np.ndarray:
    """Canonical traceless Hermitian basis as an (m^2-1, m, m) array.

    Order: diagonal p = 1..m-1, then symmetric (k, l) for k < l in
    lexicographic order, then antisymmetric (k, l) in the same order.
    """
    out = []
    for p in range(1, m):
        w = np.zeros((m, m), dtype=complex)
        w[np.arange(p), np.arange(p)] = 1.0
        w[p, p] = -p
        out.append(w / np.sqrt(p * (p + 1)))
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    for sign in (None, 1j):
        for k, l in pairs:
            w = np.zeros((m, m), dtype=complex)
            w[k, l] = 1.0 if sign is None else sign
            w[l, k] = 1.0 if sign is None else -sign
            out.append(w / np.sqrt(2.0))
    return np.stack(out)


def bloch_reference(rho: np.ndarray, m: int, n: int):
    """(R, S, T) by matrix products, independent of vnlift.bloch.decompose.

    Tr(rho (mu (x) nu)) = sum rho[a,b,c,d] mu[c,a] nu[d,b], so with the
    basis flattened to rows, T = mn * Mu X Nu^T for X[(c,a),(d,b)] = rho[a,b,c,d].
    """
    mu = gell_mann_stack(m).reshape(m * m - 1, m * m)
    nu = gell_mann_stack(n).reshape(n * n - 1, n * n)
    rho4 = rho.reshape(m, n, m, n)
    x = rho4.transpose(2, 0, 3, 1).reshape(m * m, n * n)
    rho_a = np.einsum("abcb->ac", rho4)
    rho_b = np.einsum("abad->bd", rho4)
    r = m * (mu @ rho_a.T.ravel()).real
    s = n * (nu @ rho_b.T.ravel()).real
    t = m * n * (mu @ x @ nu.T).real
    return r, s, t


def rank(a: np.ndarray) -> int:
    """Numerical rank with the program's documented default cutoffs."""
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] <= EQ_ABS:
        return 0
    return int(np.count_nonzero(sv > RANK_REL * sv[0]))


def screen_ranks(r: np.ndarray, s: np.ndarray, t: np.ndarray) -> dict:
    """Ranks of the evidence matrices behind the four screens."""
    block = np.vstack((np.concatenate(([1.0], s)), np.column_stack((r, t))))
    block_rank = rank(block)
    return {
        "classical_quantum": rank(np.column_stack((r, t))),
        "quantum_classical": rank(np.column_stack((s, t.T))),
        "classical_classical": block_rank,
        "dakic": block_rank,
    }


def eigenbasis_residual(rho: np.ndarray, m: int, n: int, side: str) -> float:
    """||Pi(rho) - rho||_F for the measurement in the reduced state's eigenbasis.

    The one-sided measurement channel is an orthogonal projection that keeps
    the diagonal blocks, so the residual is the norm of the off-diagonal
    blocks after rotating the measured side into the measurement basis.
    """
    rho4 = rho.reshape(m, n, m, n)
    if side == "right":
        rho4 = rho4.transpose(1, 0, 3, 2)
        m, n = n, m
    reduced = np.einsum("abcb->ac", rho4)
    _, vecs = np.linalg.eigh((reduced + reduced.conj().T) / 2.0)
    rot = np.einsum("ka,abcd,cl->kbld", vecs.conj().T, rho4, vecs)
    off = rot.copy()
    off[np.arange(m), :, np.arange(m), :] = 0.0
    return float(np.linalg.norm(off))


def diagonal_lift(u: np.ndarray) -> np.ndarray:
    """D[k, i] = <phi_k| mu_i |phi_k> for measurement vectors phi_k = row k of u.

    The lifted matrix is D^T D and the coefficient matrix C is D itself.
    """
    m = u.shape[0]
    return np.einsum("ka,iab,kb->ki", u.conj(), gell_mann_stack(m), u).real


def matrix_to_pairs(a: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).ravel()]
