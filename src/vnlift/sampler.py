"""Deterministic sampling of unitaries and states, plus the brute-force
measurement-invariance search used to cross-check rank verdicts."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import as_state
from .measurement import VonNeumannMeasurement, from_unitary

_DEGENERACY_GAP = 1e-6


def _checked_seed(seed: int, trials: int = 1) -> int:
    """``seed`` as an int; refuses a negative or non-integer seed and trials < 1."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # operator.index, not int, so that a float seed such as 1.7 raises
    # TypeError instead of drawing seed 1's stream; numpy integers pass.
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_checked_seed(seed), *key]))


def _gaussian_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary_from_gaussian(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    return q * phase[..., None, :]


def _unitaries_by_gram_schmidt(z: np.ndarray) -> np.ndarray:
    """`_unitary_from_gaussian(z[:, 0] + 1j * z[:, 1])` to round-off, for a
    `(trials, 2, m, m)` draw, with no LAPACK call per matrix.

    QR with the phase fix makes diag(R) real and positive, which is what
    Gram-Schmidt on the columns gives; this is classical Gram-Schmidt with one
    re-orthogonalisation pass, on length-`trials` arrays. Trial t's unitary
    must not depend on `trials`, so every step is elementwise: each sum over
    rows runs in a fixed order (an axis reduction changes its order with the
    batch size), and products are in real arithmetic, since numpy's complex
    multiply fuses multiply-adds on some loops and not on others."""
    re = z[:, 0].transpose(2, 1, 0).copy()  # re[column, row, trial]
    im = z[:, 1].transpose(2, 1, 0).copy()
    m = re.shape[0]
    for j in range(m):
        vr, vi, qr, qi = re[j], im[j], re[:j], im[:j]
        for _ in range(2 if j else 0):
            # c_k = <q_k|v> for every earlier column k, then v -= sum_k c_k q_k.
            cr = qr[:, 0] * vr[0] + qi[:, 0] * vi[0]
            ci = qr[:, 0] * vi[0] - qi[:, 0] * vr[0]
            for r in range(1, m):
                cr += qr[:, r] * vr[r] + qi[:, r] * vi[r]
                ci += qr[:, r] * vi[r] - qi[:, r] * vr[r]
            for k in range(j):
                vr -= qr[k] * cr[k] - qi[k] * ci[k]
                vi -= qr[k] * ci[k] + qi[k] * cr[k]
        norm = vr[0] * vr[0] + vi[0] * vi[0]
        for r in range(1, m):
            norm += vr[r] * vr[r] + vi[r] * vi[r]
        norm = np.sqrt(norm)
        vr /= norm
        vi /= norm
    u = np.empty(re.shape, dtype=complex)
    u.real, u.imag = re, im
    return u.transpose(2, 1, 0)


def random_unitary(m: int, seed: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian matrix with phase fix."""
    if m < 1:
        raise ValueError(f"dimension must be positive, got {m}")
    return _unitary_from_gaussian(_gaussian_complex(_rng(seed), (m, m)))


def random_density(d: int, seed: int) -> np.ndarray:
    """G G^dag normalized to unit trace, for complex Gaussian G."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    g = _gaussian_complex(_rng(seed), (d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# _GAP * (0, 1, ..., k - 1) is added to sorted weights before renormalising, so
# sorted neighbours differ by at least _GAP / (1 + _GAP k(k-1)/2): 0.0128 at k = 8,
# 0.0086 at k = 12. The gap keeps the reduced state's eigenbasis well defined.
_GAP = 0.02


def _gapped_simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    """Probability vector whose sorted entries are pairwise gapped, in random order."""
    p = np.sort(rng.dirichlet(np.ones(k))) + _GAP * np.arange(k)
    return rng.permutation(p / p.sum())


def random_classical_quantum(m: int, n: int, seed: int) -> np.ndarray:
    """sum_i p_i |phi_i><phi_i| (x) rho_i, invariant under the measurement
    built from the generating basis; marginal spectrum on side A is gapped."""
    if m < 2 or n < 2:
        raise ValueError("both local dimensions must be at least 2")
    rng = _rng(seed, 0)
    u = _unitary_from_gaussian(_gaussian_complex(rng, (m, m)))
    p = _gapped_simplex(rng, m)
    g = _gaussian_complex(rng, (m, n, n))
    blocks = g @ g.conj().transpose(0, 2, 1)
    blocks /= np.trace(blocks, axis1=1, axis2=2).real[:, None, None]
    rho = np.einsum("i,ia,ic,ibd->abcd", p, u, u.conj(), blocks)
    return rho.reshape(m * n, m * n)


def swap_subsystems(rho, m: int, n: int) -> np.ndarray:
    rho = as_state(rho, m, n)
    return rho.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)


def random_quantum_classical(m: int, n: int, seed: int) -> np.ndarray:
    """Swap image of a classical-quantum state on n (x) m."""
    return swap_subsystems(random_classical_quantum(n, m, seed), n, m)


def random_classical_classical(m: int, n: int, seed: int) -> np.ndarray:
    """sum_ij p_ij |phi_i><phi_i| (x) |psi_j><psi_j| with both marginals gapped.

    p = pa pb^T * (1 + t g) for a Gaussian g centred so that pa^T g = 0 and
    g pb = 0 keeps the marginals pa and pb; t is a random fraction of
    1 / -min(g), so p is non-negative, and p generically has rank min(m, n)."""
    if m < 2 or n < 2:
        raise ValueError("both local dimensions must be at least 2")
    rng = _rng(seed, 1)
    ua = _unitary_from_gaussian(_gaussian_complex(rng, (m, m)))
    ub = _unitary_from_gaussian(_gaussian_complex(rng, (n, n)))
    pa, pb = _gapped_simplex(rng, m), _gapped_simplex(rng, n)
    g = rng.standard_normal((m, n))
    g -= pa @ g
    g -= (g @ pb)[:, None]
    p = np.outer(pa, pb) * (1.0 + rng.uniform() * g / -g.min())
    rho = np.einsum("ij,ia,ic,jb,jd->abcd", p, ua, ua.conj(), ub, ub.conj())
    return rho.reshape(m * n, m * n)


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    best_residual: float
    best_measurement: VonNeumannMeasurement
    trials: int
    reduced_spectrum_degenerate: bool
    # None when the reduced-state eigenbasis candidate won, else the 0-based trial.
    best_trial: int | None
    # The eigenbasis candidate's own residual: the one-sided
    # measurement-induced disturbance (Luo, 2008).
    eigenbasis_residual: float


# Complex entries per temporary of `_measured_residuals` (256 kB). It bounds
# the peak memory for any number of candidates; of 2**13 to 2**16 it was the
# fastest at 4x4 and close to the fastest at 2x2 and 3x3 on 2 vCPUs.
_BLOCK_ELEMENTS = 1 << 14

# Random trials drawn, orthonormalised and scored together in one chunk of an
# invariance search, so that its peak memory does not grow with `trials`. The
# default 2000-trial search is one chunk.
_CHUNK_TRIALS = 4096

# A trial is skipped when its Pythagoras estimate of residual^2 exceeds the
# cut by this multiple of ||H||_F^2. The estimate differs from the square of
# what `_measured_residuals` returns by at most about
# ((m n)^2 + 4 m^2.5 + 4 m^2) eps ||H||_F^2, from the sum of squares that forms
# ||H||_F^2 and the products with m^2 terms in each, plus 2 ||U U^dag - I||_2
# ||H||_F^2, since a candidate is unitary only to Gram-Schmidt round-off (below
# 1e-13 at m <= 8). That is about 1.3e-12 ||H||_F^2 at 8 x 8, and below half
# the margin for m n <= 1000 and m <= 100. So a skipped trial's residual^2
# exceeds another's by at least the margin, and its residual by at least
# 5e-10 ||H||_F: it cannot tie after the square root either.
_ESTIMATE_MARGIN = 1e-9

# A trial is skipped only when its lower bound exceeds the best residual by
# this multiple of ||rho||_F. The bound's variance loses about
# m * eps * ||rho||_F^2 to cancellation, so its square root is off by at most
# about sqrt(m * eps) * ||rho||_F, 3e-8 at m = 4, and a residual by about
# m^2 * eps * ||rho||_F; a trial within the margin is scored.
_PRUNE_MARGIN = 1e-6


@functools.lru_cache(maxsize=None)
def _upper_pairs(m: int) -> tuple:
    """Read-only `np.triu_indices(m, 1)`: the pairs i < k of measurement rows."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=1)
def _one_chunk_candidates(seed: int, m: int, trials: int) -> np.ndarray:
    """The random candidates of a search that fits in one chunk, read-only.

    They depend on (seed, m, trials) alone, so the left and right searches of
    an m x m state with one seed share them. One set is kept, so the cache
    holds at most one chunk. Trial t's candidate is the same bits as in a
    chunked search, since every Gram-Schmidt step is per trial."""
    units = _unitaries_by_gram_schmidt(_rng(seed, 2).standard_normal((trials, 2, m, m)))
    units.flags.writeable = False
    return units


def _measured_residuals(rho4: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Frobenius residual || channel(rho) - rho || for a batch of measurement
    unitaries (rows are measurement vectors) acting on the left factor.

    The channel is the orthogonal projection onto the diagonal blocks
    <phi_i| rho |phi_i>, so the residual is the norm of the off-diagonal
    blocks B_ik[b, d] = sum_ac conj(u_ia) u_kc rho[(a, b), (c, d)] of the
    rotated state. Since B_ki = B_ik^dag, only the pairs i < k are formed,
    as one product of their Kronecker rows with rho, and the norm is doubled.
    Nothing is subtracted, so a small residual carries no cancellation error."""
    count, m = units.shape[:2]
    n = rho4.shape[1]
    i, k = _upper_pairs(m)
    p = rho4.transpose(0, 2, 1, 3).reshape(m * m, n * n)
    block = max(1, _BLOCK_ELEMENTS // (len(i) * max(m, n) ** 2))
    out = np.empty(count)
    for start in range(0, count, block):
        u = units[start:start + block]
        # C order, so that the reshape to one row per (candidate, pair) is a view.
        kron = np.multiply(u[:, i, :, None].conj(), u[:, k, None, :], order="C")
        kron = kron.reshape(-1, m * m)
        # numpy sends a one-row product (one candidate at m = 2) to gemv, which
        # rounds differently from gemm; a repeated row keeps it on gemm, so a
        # candidate's bits do not depend on the batch it is scored in.
        off = (kron if len(kron) > 1 else kron.repeat(2, axis=0)) @ p
        off = off[:len(kron)].view(np.float64).reshape(len(u), -1)
        out[start:start + block] = np.einsum("zj,zj->z", off, off)
    return np.sqrt(2.0 * out)


def _weight_matrix(rho4: np.ndarray) -> np.ndarray:
    """Real matrix Y, m^2 x min(m, n)^2, with ||p_s Y||^2 = ||<phi_s| H |phi_s>||_F^2
    for the coordinates p_s that `_kept_weights` forms of P_s = |phi_s><phi_s|.

    Row j is the block K_j = Tr_A[(E_j (x) I) H] of the j-th element of the
    Hermitian basis {|a><a|, |a><c| + |c><a|, i(|a><c| - |c><a|)} (a < c), in the
    orthonormal Hermitian basis {|b><b|, (|b><d| + |d><b|)/sqrt2,
    i(|b><d| - |d><b|)/sqrt2} of side B. The off-diagonal elements on side A
    carry sqrt2 beyond the orthonormal ones, which the coordinates of P_s
    leave out, so those need no scaling."""
    m, n = rho4.shape[:2]
    a, c = _upper_pairs(m)
    b, d = _upper_pairs(n)
    blocks = rho4.transpose(0, 2, 1, 3)  # blocks[a, c] = <a| H |c> on side B
    upper, lower = blocks[a, c], blocks[c, a]
    k = np.concatenate([blocks[range(m), range(m)], upper + lower, 1j * (lower - upper)])
    off = np.sqrt(2.0) * k[:, b, d]
    y = np.concatenate([k[:, range(n), range(n)].real, off.real, off.imag], axis=1)
    # For n > m, R^T from Y^T = QR has Y's Gram matrix in m^2 columns.
    return np.linalg.qr(y.T, mode="r").T if n > m else y


def _kept_weights(y: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """||channel(H)||_F^2 = sum_s ||<phi_s| H |phi_s>||_F^2 for each candidate,
    from `cols[a, s, t]`, entry a of candidate t's measurement vector phi_s:
    the trial-innermost layout that `_unitaries_by_gram_schmidt` leaves.

    P_s's coordinates (|phi_sa|^2, Re phi_sa conj(phi_sc), Im phi_sa conj(phi_sc))
    are elementwise products of rows, and one real product with Y per block
    gives every p_s Y: m^3 min(m, n)^2 multiply-adds per candidate."""
    m, count = cols.shape[1], cols.shape[2]
    pairs = m * (m - 1) // 2
    # Real temporaries of at most 2 * _BLOCK_ELEMENTS entries, the bytes of
    # those of `_measured_residuals`.
    block = max(1, 2 * _BLOCK_ELEMENTS // m ** 3)
    out = np.empty(count)
    for start in range(0, count, block):
        part = cols[:, :, start:start + block]
        coords = np.empty((m * m, *part.shape[1:]))
        row = m
        for a in range(m):
            w = part[a] * part[a:].conj()  # w[c - a] = phi_a conj(phi_c), c >= a
            end = row + m - 1 - a
            coords[a] = w[0].real
            coords[row:end], coords[pairs + row:pairs + end] = w[1:].real, w[1:].imag
            row = end
        kept = y.T @ coords.reshape(m * m, -1)
        out[start:start + block] = np.einsum("ij,ij->j", kept, kept).reshape(m, -1).sum(axis=0)
    return out


def invariance_search(
    rho,
    m: int,
    n: int,
    side: str = "left",
    trials: int = 2000,
    seed: int = 0,
) -> InvarianceReport:
    """Minimize ||channel(H) - H||_F over random von Neumann measurements on one
    side, for H = rho/2 + rho^dag/2, the Hermitian part that the screens read,
    with the eigenbasis of the reduced state H_A as a deterministic candidate.
    rho is checked once, by as_state, and the seed and trial count before any
    search runs; the right side is read as a view of H with its factors swapped.
    A state too large to search without overflow raises ValueError.

    The eigenbasis is scored first. A random trial is then scored only if a
    lower bound on its residual does not rule it out. With B_ik the
    off-diagonal blocks <phi_i| H |phi_k>, Tr B_ik = <phi_i| H_A |phi_k>
    and |Tr B|^2 <= n ||B||_F^2, so

        residual^2 >= (2/n) (<phi_0|H_A^2|phi_0> - <phi_0|H_A|phi_0>^2),

    the variance of H_A's eigenvalues under the weights |<v_j|phi_0>|^2 of the
    trial's first measurement vector in their eigenbasis: O(m^2) per trial,
    against O(m^4 n^2) for the residual. A trial is skipped only when its
    bound exceeds the best residual so far by the round-off margin
    `_PRUNE_MARGIN` * ||H||_F.

    The trials the bound keeps are then estimated, except at m = 2 and n <= 3,
    where that costs more than the residuals it saves. The lift of a measurement
    is idempotent, so the channel is an orthogonal projection and, by
    Pythagoras, residual^2 = ||H||_F^2 - sum_s ||<phi_s| H |phi_s>||_F^2: the
    weight the measurement keeps, from `_kept_weights` in O(m^3 n^2) real
    operations, against O(m^4 n^2) complex ones for the residual. The estimate
    subtracts, so it is only used to skip: a trial is scored only when its
    estimate is at most the least of the best residual^2 so far and the
    chunk's least estimate plus `_ESTIMATE_MARGIN` * ||H||_F^2, plus that margin
    again. A skipped trial can neither win nor tie, so the report is what
    scoring every trial gives. The eigenbasis and each new winner are built
    by from_unitary, so the report holds a checked, read-only copy."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if m < 2 or n < 2:
        raise ValueError("both local dimensions must be at least 2")
    rho = as_state(rho, m, n)
    seed = _checked_seed(seed, trials)
    # H as validate_density forms it: rho bit for bit if that is exactly
    # Hermitian, and H_A is exactly Hermitian. The largest values formed below,
    # H_A's squared eigenvalues and spread, are at most half the bound tested.
    rho = rho * 0.5
    rho += rho.conj().T
    norm2 = float(np.vdot(rho, rho).real)
    if not 4.0 * max(m, n) * norm2 < np.inf:
        raise ValueError("state too large for the invariance search: ||rho||_F^2 nears overflow")
    rho4 = rho.reshape(m, n, m, n)
    if side == "right":
        rho4, m, n = rho4.transpose(1, 0, 3, 2), n, m
    evals, evecs = np.linalg.eigh(np.einsum("abcb->ac", rho4))
    degenerate = bool(np.min(np.diff(evals)) < _DEGENERACY_GAP)
    # Row i of a measurement unitary is the coefficient vector of |phi_i>.
    best_meas = from_unitary(evecs.T)
    eigenbasis_residual = float(_measured_residuals(rho4, best_meas.unitary[None])[0])
    best, best_residual = None, eigenbasis_residual
    margin = _PRUNE_MARGIN * np.sqrt(norm2)
    # Y is formed when a chunk first has trials to estimate; on a classical
    # side the bound skips them all.
    y, delta = None, _ESTIMATE_MARGIN * norm2
    # The bound's variance is moments @ w minus its mean squared, for w_j the
    # weights |<v_j|phi_0>|^2 of each trial's first measurement vector.
    moments, evecs_h = np.array([evals, evals * evals]), evecs.conj().T
    # Every chunk draws from one generator and every step is per trial, so
    # trial t's candidate and residual do not depend on the chunking, on
    # `trials` or on which other trials are scored with it. A one-chunk search
    # takes its candidates from the shared read-only set.
    rng = None if trials <= _CHUNK_TRIALS else _rng(seed, 2)
    for first in range(0, trials, _CHUNK_TRIALS):
        if rng is None:
            units = _one_chunk_candidates(seed, m, trials)
        else:
            count = min(_CHUNK_TRIALS, trials - first)
            units = _unitaries_by_gram_schmidt(rng.standard_normal((count, 2, m, m)))
        # A trial is skipped when bound^2 = (2/n) (second - mean^2) exceeds the
        # best residual plus the margin, squared. The variance is at most a
        # quarter of the squared eigenvalue spread, so when that is within the
        # limit no trial can be skipped and the bounds are not computed.
        limit = n / 2.0 * (best_residual + margin) ** 2
        if (evals[-1] - evals[0]) ** 2 / 4.0 > limit:
            z = evecs_h @ units[:, 0].T
            mean, second = moments @ (z.real * z.real + z.imag * z.imag)
            # Not `<=`, so that a NaN (from an overflowing state) is scored.
            keep = np.flatnonzero(~(second - mean * mean > limit))
        else:
            keep = np.arange(len(units))
        # Paired searches with the estimate were slower at 2 x 2 and 2 x 3, and
        # faster at 2 x 4 and 3 x 2.
        if len(keep) and (m > 2 or n > 3):
            if y is None:
                y = _weight_matrix(rho4)
            # The trial-innermost layout of the Gram-Schmidt, read in place
            # when the bound kept every trial.
            cols = units.transpose(2, 1, 0)
            if len(keep) < len(units):
                cols = cols[..., keep]
            estimates = norm2 - _kept_weights(y, cols)
            # A trial's residual^2 lies within delta of its estimate, so one
            # whose estimate is above the cut is worse than the best so far or
            # than the trial of least estimate. Not `<=`, as above.
            cut = np.minimum(best_residual ** 2, estimates.min() + delta) + delta
            keep = keep[~(estimates > cut)]
        if len(keep) < len(units):
            units = units[keep]
        if len(keep):
            residuals = _measured_residuals(rho4, units)
            k = int(np.argmin(residuals))
            # Strictly smaller, so a tie keeps the earliest candidate, as one
            # argmin over all of them would.
            if residuals[k] < best_residual:
                best, best_residual = first + int(keep[k]), float(residuals[k])
                best_meas = from_unitary(units[k])
        # Released before the next chunk is drawn.
        del units
    return InvarianceReport(
        best_residual=best_residual,
        best_measurement=best_meas,
        trials=trials,
        reduced_spectrum_degenerate=degenerate,
        best_trial=best,
        eigenbasis_residual=eigenbasis_residual,
    )
