import itertools
import tracemalloc

import numpy as np
import pytest

from vnlift import (
    ShapeError,
    Tolerance,
    check_classical_classical,
    decompose,
    from_unitary,
    gell_mann_basis,
    invariance_search,
    random_classical_classical,
    random_classical_quantum,
    random_density,
    random_quantum_classical,
    random_unitary,
    validate_density,
)
from vnlift import sampler
from vnlift.sampler import (
    _DEGENERACY_GAP,
    _rng,
    _unitaries_by_gram_schmidt,
    _unitary_from_gaussian,
)
from tests.bases import swap_subsystems
from tests.conftest import bell_diagonal_state, near_hermitian


def partial_trace(rho, m, n, keep):
    """The reduced state of rho on the m-dimensional factor ("a") or the n-dimensional one ("b")."""
    return np.einsum("abcb->ac" if keep == "a" else "abad->bd", rho.reshape(m, n, m, n))


def channel_on_left(rho, u, m, n):
    rho4 = rho.reshape(m, n, m, n)
    d = np.einsum("ia,abcd,ic->ibd", u.conj(), rho4, u)
    return np.einsum("ia,ibd,ic->abcd", u, d, u.conj()).reshape(m * n, m * n)


def test_random_unitary_determinism_and_unitarity():
    a = random_unitary(3, 99)
    b = random_unitary(3, 99)
    assert np.array_equal(a, b)
    from_unitary(a)  # raises if not unitary
    assert not np.allclose(a, random_unitary(3, 100))


def test_random_unitary_m1_is_phase():
    z = random_unitary(1, 0)
    assert z.shape == (1, 1)
    assert abs(abs(z[0, 0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("m", range(1, 9))
def test_gram_schmidt_unitaries_match_qr_and_ignore_batch_size(m):
    z = _rng(m, 2).standard_normal((2000, 2, m, m))
    u = _unitaries_by_gram_schmidt(z)
    assert u.shape == (2000, m, m)
    # QR with the phase fix is the reference.
    assert np.abs(u - _unitary_from_gaussian(z[:, 0] + 1j * z[:, 1])).max() <= 1e-12
    gram = u @ u.conj().transpose(0, 2, 1)
    assert np.linalg.norm(gram - np.eye(m), axis=(1, 2)).max() <= 1e-13
    # Candidate t is the same bits in a batch of 1, of t + 1 and of 2000.
    for t in (0, 1, 2, 7, 8, 15, 16, 17, 100, 1999):
        assert np.array_equal(_unitaries_by_gram_schmidt(z[t:t + 1])[0], u[t]), t
        assert np.array_equal(_unitaries_by_gram_schmidt(z[:t + 1])[t], u[t]), t


def _drawn(seed, m, trials):
    """A search's random candidates, chunk by chunk as it draws them."""
    chunk = sampler._CHUNK_TRIALS
    return np.concatenate([sampler._candidates(seed, m, first, min(chunk, trials - first))
                           for first in range(0, trials, chunk)])


def _hermitian(rho):
    """The state the search scores: rho's Hermitian part, formed as it forms it."""
    return rho / 2 + rho.conj().T / 2


def _eigenbasis(rho, m, n):
    """The search's eigenbasis candidate: rows are the eigenvectors of the
    measured side's reduced state of rho's Hermitian part."""
    return np.linalg.eigh(partial_trace(_hermitian(rho), m, n, keep="a"))[1].T.copy()


def test_invariance_search_trial_residual_ignores_trial_count():
    # The search scores the eigenbasis alone, then whichever trials its bound
    # keeps, so a candidate's residual must be the same bits in a batch of any
    # length and at any offset. A classical side's eigenbasis residual is pure
    # round-off, the case where a different summation order shows.
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4)):
        for rho in (random_classical_quantum(m, n, 47), random_density(m * n, 47)):
            rho4 = rho.reshape(m, n, m, n)
            trial = sampler._candidates(5, m, 0, 2000)
            units = np.concatenate([_eigenbasis(rho, m, n)[None], trial])
            want = sampler._measured_residuals(rho4, units)
            for length in [*range(1, 41), 2001]:
                for offset in sorted({0, 1, length // 2, 2001 - length}):
                    if offset + length <= 2001:
                        got = sampler._measured_residuals(rho4, units[offset:offset + length])
                        assert np.array_equal(got, want[offset:offset + length]), \
                            (m, n, length, offset)
                # The eigenbasis at each offset of a prefix of trials.
                for offset in sorted({0, length // 2, length - 1}):
                    batch = np.concatenate([trial[:offset], units[:1], trial[offset:length - 1]])
                    got = sampler._measured_residuals(rho4, batch)[offset]
                    assert got == want[0], (m, n, length, offset)
    rho = random_density(16, 47)
    for side in ("left", "right"):
        one = invariance_search(rho, 4, 4, side=side, trials=1, seed=5)
        full = invariance_search(rho, 4, 4, side=side, trials=2000, seed=5)
        assert one.eigenbasis_residual == full.eigenbasis_residual, side


def _pruning_states(m, n):
    d = m * n
    states = {
        "density": random_density(d, 71),
        "cq": random_classical_quantum(m, n, 71),
        "qc": random_quantum_classical(m, n, 71),
        "cc": random_classical_classical(m, n, 71),
        "maximally mixed": np.eye(d, dtype=complex) / d,
        "density x1e6": 1e6 * random_density(d, 72),
        "cq x1e6": 1e6 * random_classical_quantum(m, n, 72),
        "density x1e-6": 1e-6 * random_density(d, 73),
        "cq x1e-6": 1e-6 * random_classical_quantum(m, n, 73),
        "near-Hermitian cq": near_hermitian(random_classical_quantum(m, n, 74), 74),
        "non-Hermitian cq": near_hermitian(random_classical_quantum(m, n, 75), 75, 1e8),
    }
    if m == n:
        phi = np.eye(m).ravel() / np.sqrt(m)
        states["entangled"] = 0.6 * np.outer(phi, phi) + 0.4 * random_density(d, 76)
    if (m, n) == (2, 2):
        states["bell-diagonal"] = bell_diagonal_state(0.5, 0.3, 0.0)
    return states


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (3, 2), (2, 4), (8, 2)])
def test_invariance_search_pruning_is_exact(m, n):
    # The reference scores every candidate on rho's Hermitian part: the
    # eigenbasis, then all trials in one batch, and takes the first argmin, so
    # the eigenbasis wins ties. Trial t is the same candidate for every trial
    # count, so one draw of 5000, chunk by chunk, serves 50, 2000 (one chunk)
    # and 5000 (two chunks).
    seed = m + 10 * n
    # At 8 x 2 the searches stay in one chunk, which keeps the reference quick;
    # the other shapes check chunking.
    counts = (50, 2000) if m > 2 * n else (50, 2000, 5000)
    drawn = {k: _drawn(seed, k, counts[-1]) for k in {m, n}}
    for kind, rho in _pruning_states(m, n).items():
        herm = _hermitian(rho)
        for side in ("left", "right"):
            state, a, b = (herm, m, n) if side == "left" else (swap_subsystems(herm, m, n), n, m)
            units = np.concatenate([_eigenbasis(state, a, b)[None], drawn[a]])
            residuals = sampler._measured_residuals(state.reshape(a, b, a, b), units)
            for trials in counts:
                best = int(np.argmin(residuals[:trials + 1]))
                report = invariance_search(rho, m, n, side=side, trials=trials, seed=seed)
                where = (kind, side, trials)
                assert report.best_trial == (best - 1 if best else None), where
                assert report.best_residual == residuals[best], where
                assert report.eigenbasis_residual == residuals[0], where
                assert np.array_equal(report.best_measurement.unitary, units[best]), where


def test_invariance_search_pruning_keeps_near_ties(monkeypatch):
    # Trials whose bound lies at or near their residual, which must still be
    # scored: the reference is again the first argmin over all candidates.
    def check(rho, m, n, trials):
        monkeypatch.setattr(sampler, "_candidates", lambda *key: trials)
        units = np.concatenate([_eigenbasis(rho, m, n)[None], trials])
        residuals = sampler._measured_residuals(_hermitian(rho).reshape(m, n, m, n), units)
        best = int(np.argmin(residuals))
        report = invariance_search(rho, m, n, trials=len(trials), seed=0)
        assert report.best_trial == (best - 1 if best else None)
        assert report.best_residual == residuals[best]
        return best

    # The eigenbasis reordered and rephased ties it to round-off, where the
    # bound's cancellation error exceeds the residual: the margin keeps them.
    rng = np.random.default_rng(3)
    winners = []
    for seed in range(10):
        rho = random_classical_quantum(3, 3, seed)
        eigen = _eigenbasis(rho, 3, 3)
        tied = [np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 1))) * eigen[list(order)]
                for order in itertools.permutations(range(3)) for _ in range(3)]
        drawn = _unitaries_by_gram_schmidt(_rng(seed, 2).standard_normal((20, 2, 3, 3)))
        trials = np.concatenate([tied, drawn])
        winners.append(check(rho, 3, 3, trials[rng.permutation(len(trials))]))
    # Searches that a reordered eigenbasis won.
    assert sum(w > 0 for w in winners) >= 5, winners

    # On a quantum side the Pythagoras estimate decides. The best of 40 drawn
    # trials, reordered and rephased, ties with itself to round-off, and the
    # estimate margin keeps every copy, so the first least residual wins.
    moved = []
    for seed in range(10):
        rho = random_density(9, seed)
        drawn = _unitaries_by_gram_schmidt(_rng(seed, 2).standard_normal((40, 2, 3, 3)))
        top = drawn[np.argmin(sampler._measured_residuals(_hermitian(rho).reshape(3, 3, 3, 3),
                                                          drawn))]
        tied = [np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 1))) * top[list(order)]
                for order in itertools.permutations(range(3)) for _ in range(3)]
        trials = np.concatenate([tied, drawn])[rng.permutation(58)]
        drawn_top = np.flatnonzero(np.all(trials == top, axis=(1, 2)))[0]
        moved.append(check(rho, 3, 3, trials) != 1 + drawn_top)
    # Searches that a reordered copy, not the drawn trial itself, won.
    assert sum(moved) >= 5, moved


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_invariance_search_refuses_a_state_that_would_overflow(m, n):
    # The search either refuses a huge state with one ValueError or scores it
    # with finite residuals; pytest turns a numpy RuntimeWarning into an error.
    rho = random_density(m * n, 3)
    for exponent in np.arange(150.0, 156.0, 0.25):
        state = rho * 10.0 ** exponent
        for side in ("left", "right"):
            try:
                report = invariance_search(state, m, n, side=side, trials=50, seed=1)
            except ValueError as exc:
                assert exponent > 153 and "too large" in str(exc), (exponent, side)
            else:
                assert exponent < 155 and np.isfinite(report.best_residual), (exponent, side)
    for side in ("left", "right"):
        report = invariance_search(rho * 1e150, m, n, side=side, trials=50, seed=1)
        assert 0.0 < report.best_residual <= report.eigenbasis_residual < np.inf
        with pytest.raises(ValueError, match="too large for the invariance search"):
            invariance_search(rho * 1e200, m, n, side=side, trials=50, seed=1)


@pytest.mark.parametrize("m", [3, 4])
def test_invariance_search_skips_almost_every_trial_on_a_classical_side(monkeypatch, m):
    measured_residuals = sampler._measured_residuals
    scored = []

    def counting(rho4, units):
        scored.append(len(units))
        return measured_residuals(rho4, units)

    monkeypatch.setattr(sampler, "_measured_residuals", counting)
    for seed in range(5):
        scored.clear()
        report = invariance_search(random_classical_quantum(m, m, seed), m, m, trials=2000,
                                   seed=seed)
        assert report.best_trial is None and report.best_residual <= 1e-10, seed
        # The eigenbasis first, alone; then fewer than 1% of the trials.
        assert scored[0] == 1 and sum(scored[1:]) < 20, (seed, scored)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (3, 2), (2, 4), (8, 2), (2, 8)])
def test_pythagoras_estimate_matches_the_residual(m, n):
    # ||H||_F^2 minus the weight a measurement keeps is its residual^2, to
    # within half the margin the search allows, for the eigenbasis and 500
    # trials, on both sides and at any scale.
    states = {
        "density": random_density(m * n, 81),
        "cq": random_classical_quantum(m, n, 81),
        "density x1e6": 1e6 * random_density(m * n, 82),
        "density x1e-6": 1e-6 * random_density(m * n, 83),
        "cq x1e-6": 1e-6 * random_classical_quantum(m, n, 83),
        "near-Hermitian density": near_hermitian(random_density(m * n, 84), 84),
        "non-Hermitian cq": near_hermitian(random_classical_quantum(m, n, 85), 85, 1e8),
    }
    for kind, rho in states.items():
        herm = _hermitian(rho)
        norm2 = np.vdot(herm, herm).real
        for side in ("left", "right"):
            state, a, b = (herm, m, n) if side == "left" else (swap_subsystems(herm, m, n), n, m)
            rho4 = state.reshape(a, b, a, b)
            drawn = _unitaries_by_gram_schmidt(_rng(9, 2).standard_normal((500, 2, a, a)))
            units = np.concatenate([_eigenbasis(state, a, b)[None], drawn])
            kept = sampler._kept_weights(sampler._weight_matrix(rho4), units.transpose(2, 1, 0))
            residuals = sampler._measured_residuals(rho4, units)
            error = np.abs(norm2 - kept - residuals ** 2).max()
            assert error <= sampler._ESTIMATE_MARGIN / 2 * norm2, (kind, side, error / norm2)


def test_invariance_search_scores_a_handful_of_trials_on_a_quantum_side(monkeypatch):
    # The row-0 bound rules out no trial on either side of a random 4x4 state;
    # the Pythagoras estimate rules out all but the few that can win.
    measured_residuals = sampler._measured_residuals
    scored = []

    def counting(rho4, units):
        scored.append(len(units))
        return measured_residuals(rho4, units)

    monkeypatch.setattr(sampler, "_measured_residuals", counting)
    for seed in range(5):
        for side in ("left", "right"):
            scored.clear()
            report = invariance_search(random_density(16, seed), 4, 4, side=side, trials=2000,
                                       seed=seed)
            assert report.best_residual > 1e-3, (seed, side)
            # The eigenbasis first, alone; then at most 5 of the 2000 trials.
            assert scored[0] == 1 and sum(scored[1:]) <= 5, (seed, side, scored)


def test_random_density_properties():
    assert np.allclose(random_density(1, 0), [[1.0]])
    rho = random_density(4, 17)
    assert validate_density(rho).ok
    assert np.array_equal(rho, random_density(4, 17))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (8, 8), (8, 4)])
def test_classical_quantum_construction(m, n):
    rho = random_classical_quantum(m, n, 5)
    assert validate_density(rho).ok
    # Fixed point of the generating measurement: recover it from the A marginal.
    reduced = partial_trace(rho, m, n, keep="a")
    _, evecs = np.linalg.eigh(reduced)
    residual = np.linalg.norm(channel_on_left(rho, evecs.T, m, n) - rho)
    assert residual <= 1e-12


def test_classical_classical_construction():
    for m, n in ((2, 3), (8, 8), (8, 4)):
        rho = random_classical_classical(m, n, 8)
        assert validate_density(rho).ok
        _, evecs = np.linalg.eigh(partial_trace(rho, m, n, keep="a"))
        residual = np.linalg.norm(channel_on_left(rho, evecs.T, m, n) - rho)
        assert residual <= 1e-12, (m, n)
        swapped = swap_subsystems(rho, m, n)
        _, evecs = np.linalg.eigh(partial_trace(rho, m, n, keep="b"))
        residual = np.linalg.norm(channel_on_left(swapped, evecs.T, n, m) - swapped)
        assert residual <= 1e-12, (m, n)


@pytest.mark.parametrize("m,n", [(2, 2), (4, 3), (6, 6), (8, 4), (8, 8), (12, 3)])
def test_classical_samplers_always_succeed_with_gapped_marginals(m, n):
    # Each classical side's marginal spectrum is gapped by construction, so its
    # eigenbasis, the generating measurement, is well defined at every shape.
    for seed in range(50):
        for rho, sides in (
            (random_classical_quantum(m, n, seed), ("a",)),
            (random_quantum_classical(m, n, seed), ("b",)),
            (random_classical_classical(m, n, seed), ("a", "b")),
        ):
            assert validate_density(rho).ok, (m, n, seed)
            for keep in sides:
                k = m if keep == "a" else n
                gap = np.min(np.diff(np.linalg.eigvalsh(partial_trace(rho, m, n, keep=keep))))
                assert gap > _DEGENERACY_GAP, (m, n, seed, keep)
                assert k > 8 or gap >= 0.01, (m, n, seed, keep)


@pytest.mark.parametrize("m,n", [(3, 3), (8, 4)])
def test_classical_classical_correlation_rank_reaches_bound(m, n):
    # The CC screen's bound is min(m, n); a sampled joint table of lower rank
    # would let an off-by-one threshold pass the soundness checks unseen.
    ba, bb = gell_mann_basis(m), gell_mann_basis(n)
    for seed in range(50):
        rho = random_classical_classical(m, n, seed)
        verdict = check_classical_classical(decompose(rho, ba, bb))
        assert verdict.computed_rank == min(m, n), (m, n, seed)


def test_classical_samplers_are_deterministic():
    samplers = (random_classical_quantum, random_quantum_classical, random_classical_classical)
    for sampler in samplers:
        for m, n in ((2, 2), (8, 4)):
            assert np.array_equal(sampler(m, n, 3), sampler(m, n, 3))
            assert not np.allclose(sampler(m, n, 3), sampler(m, n, 4))


def test_state_functions_reject_wrong_shape():
    # A 2x8 array has the right number of entries for a 2x2 (x) 2x2 state.
    for side in ("left", "right"):
        with pytest.raises(ShapeError, match="state must be 4x4"):
            invariance_search(np.ones((2, 8)), 2, 2, side=side)


def test_samplers_reject_invalid_arguments():
    for make, args in ((random_unitary, (0, 0)), (random_density, (0, 0)),
                       (random_classical_quantum, (1, 2, 0)),
                       (random_classical_classical, (1, 2, 0))):
        with pytest.raises(ValueError, match="dimension"):
            make(*args)


def test_swap_subsystems_involution():
    rho = random_density(6, 2)
    assert np.allclose(swap_subsystems(swap_subsystems(rho, 2, 3), 3, 2), rho)
    a, b = random_density(2, 3), random_density(3, 4)
    assert np.allclose(swap_subsystems(np.kron(a, b), 2, 3), np.kron(b, a))


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (4, 2), (3, 3)])
def test_quantum_classical_is_the_swap_of_classical_quantum(m, n):
    for seed in range(5):
        want = swap_subsystems(random_classical_quantum(n, m, seed), n, m)
        assert np.array_equal(random_quantum_classical(m, n, seed), want), seed


def test_invariance_search_finds_generating_basis():
    rho = random_classical_quantum(2, 2, 13)
    report = invariance_search(rho, 2, 2, side="left", trials=5, seed=3)
    assert report.best_residual <= 1e-10
    assert not report.reduced_spectrum_degenerate


def test_invariance_search_maximally_mixed_any_side():
    rho = np.eye(4, dtype=complex) / 4.0
    for side in ("left", "right"):
        report = invariance_search(rho, 2, 2, side=side, trials=3, seed=0)
        assert report.best_residual <= 1e-12
    assert report.reduced_spectrum_degenerate


def test_invariance_search_floor_on_quantum_state():
    rho = bell_diagonal_state(0.5, 0.3, 0.0)
    report = invariance_search(rho, 2, 2, side="left", trials=2000, seed=0)
    assert report.best_residual > 0.01


def test_invariance_search_determinism():
    rho = random_density(4, 31)
    a = invariance_search(rho, 2, 2, side="right", trials=25, seed=7)
    b = invariance_search(rho, 2, 2, side="right", trials=25, seed=7)
    assert a.best_residual == b.best_residual
    assert np.array_equal(a.best_measurement.unitary, b.best_measurement.unitary)


def test_invariance_search_residual_matches_direct_channel():
    # For the right side the direct channel acts on the left factor of the
    # swapped state.
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4)):
        rho = random_density(m * n, 41)
        for side, state, a, b in (
            ("left", rho, m, n),
            ("right", swap_subsystems(rho, m, n), n, m),
        ):
            report = invariance_search(rho, m, n, side=side, trials=10, seed=1)
            u = report.best_measurement.unitary
            direct = np.linalg.norm(channel_on_left(state, u, a, b) - state)
            assert abs(direct - report.best_residual) <= 1e-12, (side, m, n)


def test_invariance_search_more_trials_never_worse():
    # Trial t's candidate does not depend on the trial count, so a longer
    # search only adds candidates. At 4x4 the residuals are computed in
    # blocks of fewer than 200 candidates, so 1000 and 5000 trials span several.
    for (m, n), counts in (((2, 3), (1, 10, 100, 1000)), ((4, 4), (10, 1000, 5000))):
        rho = random_density(m * n, 43)
        for side in ("left", "right"):
            best = [
                invariance_search(rho, m, n, side=side, trials=t, seed=9).best_residual
                for t in counts
            ]
            assert best == sorted(best, reverse=True), (m, n, side, best)


def test_invariance_search_reports_winning_candidate():
    rho = random_classical_quantum(3, 3, 21)
    report = invariance_search(rho, 3, 3, side="left", trials=20, seed=2)
    assert report.best_trial is None
    assert report.eigenbasis_residual == report.best_residual
    rho = bell_diagonal_state(0.5, 0.3, 0.0)
    report = invariance_search(rho, 2, 2, side="left", trials=50, seed=0)
    assert report.best_trial is not None and 0 <= report.best_trial < 50
    assert report.best_residual < report.eigenbasis_residual
    # Trial t is the (t + 1)-th candidate drawn, so a search cut just after
    # it finds the same winner.
    shorter = invariance_search(rho, 2, 2, side="left", trials=report.best_trial + 1, seed=0)
    assert shorter.best_trial == report.best_trial
    assert shorter.best_residual == report.best_residual


def test_invariance_search_winner_owns_its_data():
    # The report holds the m x m winner, not the chunk of candidates it came from.
    eigen = invariance_search(random_classical_quantum(3, 3, 21), 3, 3, trials=20, seed=2)
    trial = invariance_search(bell_diagonal_state(0.5, 0.3, 0.0), 2, 2, trials=50, seed=0)
    assert eigen.best_trial is None and trial.best_trial is not None
    for report, m in ((eigen, 3), (trial, 2)):
        unitary = report.best_measurement.unitary
        assert unitary.base is None and unitary.nbytes == 16 * m * m


@pytest.mark.parametrize("m,n", list(itertools.product((2, 3, 4), repeat=2)))
def test_invariance_search_winners_are_unitary(m, n):
    # The winner passed from_unitary at the default tolerance; eigh's
    # eigenvectors and a Gram-Schmidt candidate are unitary to round-off.
    tol = Tolerance(eq_abs=1e-12)
    winners = set()
    for rho in (random_classical_quantum(m, n, 31), random_quantum_classical(m, n, 32),
                random_density(m * n, 33)):
        for side in ("left", "right"):
            report = invariance_search(rho, m, n, side=side, trials=2000, seed=3)
            from_unitary(report.best_measurement.unitary, tol)
            winners.add(report.best_trial is None)
    assert winners == {True, False}


def test_invariance_reports_hold_only_their_winners():
    states = [random_density(16, seed) for seed in range(50)]
    sampler._candidates.cache_clear()
    tracemalloc.start()
    try:
        reports = [invariance_search(rho, 4, 4, trials=2000) for rho in states]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The shared candidate set is 0.5 MB; a report holding its 2001-candidate
    # chunk would add 0.5 MB each.
    assert len(reports) == 50 and held < 3 * 2**20


def test_invariance_search_classical_sides_at_round_off():
    # A formulation that subtracts (||rho||^2 minus the diagonal blocks) lands
    # near 1e-8 here; the off-diagonal norm stays at round-off.
    for m, n in ((3, 3), (4, 4)):
        for k in range(5):
            for kind, rho, sides in (
                ("cq", random_classical_quantum(m, n, 500 + k), ("left",)),
                ("qc", random_quantum_classical(m, n, 600 + k), ("right",)),
                ("cc", random_classical_classical(m, n, 700 + k), ("left", "right")),
            ):
                for side in sides:
                    report = invariance_search(rho, m, n, side=side, trials=10, seed=k)
                    assert report.best_residual <= 1e-10, (kind, m, n, k, side)
                    assert report.eigenbasis_residual <= 1e-10, (kind, m, n, k, side)


def test_invariance_search_chunking_keeps_every_result(monkeypatch):
    # In twelve chunks, the search finds the first argmin over the eigenbasis
    # and every chunk's candidates scored at once, for each side.
    monkeypatch.setattr(sampler, "_CHUNK_TRIALS", 777)
    winners = []
    for m, n in ((4, 4), (3, 2)):
        rho = random_density(m * n, 40 + m)
        herm = _hermitian(rho)
        for side in ("left", "right"):
            state, a, b = (herm, m, n) if side == "left" else (swap_subsystems(herm, m, n), n, m)
            units = np.concatenate([_eigenbasis(state, a, b)[None], _drawn(m, a, 9000)])
            residuals = sampler._measured_residuals(state.reshape(a, b, a, b), units)
            best = int(np.argmin(residuals))
            report = invariance_search(rho, m, n, side=side, trials=9000, seed=m)
            where = (m, n, side)
            assert report.best_trial == best - 1, where
            assert report.best_residual == residuals[best], where
            assert report.eigenbasis_residual == residuals[0], where
            assert np.array_equal(report.best_measurement.unitary, units[best]), where
            winners.append(report.best_trial)
    # Three of the four winners lie past the first chunk.
    assert sum(w >= 777 for w in winners) == 3, winners


def test_invariance_search_memory_is_bounded_by_one_chunk():
    rho = random_density(16, 3)
    invariance_search(rho, 4, 4, trials=10)

    def peak(trials):
        tracemalloc.start()
        try:
            invariance_search(rho, 4, 4, trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A 4096-trial search, one chunk, peaks near 3.2 MB at 4x4, and a chunked
    # 20 000-trial search near 4.3 MB, as does one of 200 000, since the report
    # copies out its winner; an unchunked 20 000-trial search peaks near 15.7 MB.
    assert peak(20_000) < peak(4096) + 2 * 2**20


def test_invariance_search_validates_arguments():
    rho = random_density(4, 1)
    with pytest.raises(ValueError):
        invariance_search(rho, 2, 2, side="up")
    with pytest.raises(ValueError):
        invariance_search(rho, 2, 2, trials=0)
    # A one-dimensional measured or unmeasured side is rejected up front.
    for m, n, side in ((1, 4, "left"), (4, 1, "right"), (4, 1, "left")):
        with pytest.raises(ValueError, match="both local dimensions must be at least 2"):
            invariance_search(rho, m, n, side=side)


@pytest.fixture
def as_state_calls(monkeypatch):
    """The (m, n) of every as_state call the search makes."""
    calls = []
    as_state = sampler.as_state

    def counted(rho, m, n):
        calls.append((m, n))
        return as_state(rho, m, n)

    monkeypatch.setattr(sampler, "as_state", counted)
    return calls


def test_a_search_checks_its_state_once(as_state_calls):
    # The right side is read as a view of the checked state, not through
    # a swapped copy and a partial trace that would each check it again.
    rho = random_density(6, 3)
    for side in ("left", "right"):
        as_state_calls.clear()
        invariance_search(rho, 2, 3, side=side, trials=20, seed=1)
        assert as_state_calls == [(2, 3)], side


def test_a_float_trial_count_is_refused_before_the_search(as_state_calls):
    # A float count used to pass the check and fail in range(), after the
    # state was checked and its eigenbasis built.
    rho = random_density(4, 1)
    with pytest.raises(TypeError):
        invariance_search(rho, 2, 2, trials=2.0, seed=1)
    assert as_state_calls == []
    report = invariance_search(rho, 2, 2, trials=np.int64(50), seed=1)
    want = invariance_search(rho, 2, 2, trials=50, seed=1)
    assert report.trials == want.trials == 50
    assert type(report.trials) is int
    assert type(invariance_search(rho, 2, 2, trials=True, seed=1).trials) is int
    assert report.best_trial == want.best_trial
    assert report.best_residual == want.best_residual
    assert np.array_equal(report.best_measurement.unitary, want.best_measurement.unitary)


def test_a_float_dimension_is_refused_before_the_search(as_state_calls):
    # 2.0 used to pass as_state, since (4, 4) == (4.0, 4.0), and fail at the
    # reshape, after the state was checked and its Hermitian part formed.
    rho = random_density(4, 1)
    for m, n in ((2.0, 2), (2, 2.0)):
        for side in ("left", "right"):
            with pytest.raises(TypeError):
                invariance_search(rho, m, n, side=side, trials=50, seed=1)
    assert as_state_calls == []
    report = invariance_search(rho, np.int64(2), np.int64(2), trials=50, seed=1)
    want = invariance_search(rho, 2, 2, trials=50, seed=1)
    assert report.best_residual == want.best_residual
    assert report.best_trial == want.best_trial
    assert type(report.trials) is int


def test_invariance_search_rejects_negative_seed():
    rho = random_density(4, 1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        invariance_search(rho, 2, 2, seed=-1)


def test_seeds_must_be_integers():
    # A float seed used to be truncated, so 1.7 drew seed 1's stream.
    rho = random_density(4, 1)
    for make, args in ((random_unitary, (2,)), (random_density, (4,))):
        with pytest.raises(TypeError):
            make(*args, 1.7)
        assert np.array_equal(make(*args, np.int64(1)), make(*args, 1))
    for trials in (50, sampler._CHUNK_TRIALS + 1):
        with pytest.raises(TypeError):
            invariance_search(rho, 2, 2, trials=trials, seed=1.7)
    report = invariance_search(rho, 2, 2, trials=50, seed=np.int64(1))
    assert report.best_residual == invariance_search(rho, 2, 2, trials=50, seed=1).best_residual


def test_candidates_of_the_first_chunk_read_the_seed_2_stream():
    # The first chunk's stream is the one every search of up to _CHUNK_TRIALS
    # trials has drawn from, so those searches keep their candidates.
    for seed, m, count in ((0, 2, 1), (3, 2, 2000), (9, 4, 4096), (7, 8, 50)):
        want = _unitaries_by_gram_schmidt(_rng(seed, 2).standard_normal((count, 2, m, m)))
        assert np.array_equal(sampler._candidates(seed, m, 0, count), want), (seed, m, count)
    # Each later chunk draws afresh, not the first chunk's candidates again.
    first = sampler._candidates(3, 2, 0, 50)
    for start in (50, 4096, 8192):
        assert not np.isin(sampler._candidates(3, 2, start, 50), first).any(), start


def test_one_chunk_candidates_are_drawn_once_for_both_sides(monkeypatch):
    sampler._candidates.cache_clear()
    gram_schmidt = sampler._unitaries_by_gram_schmidt
    calls = []

    def counting(z):
        calls.append(z.shape)
        return gram_schmidt(z)

    monkeypatch.setattr(sampler, "_unitaries_by_gram_schmidt", counting)
    for m, state_seed in ((3, 63), (4, 64)):
        rho = random_density(m * m, state_seed)
        calls.clear()
        warm = {side: invariance_search(rho, m, m, side=side, trials=2000, seed=9)
                for side in ("left", "right")}
        assert calls == [(2000, 2, m, m)], m
        cached = sampler._candidates(9, m, 0, 2000)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 0.0
        # On a classical-classical state the eigenbasis wins on both sides, and
        # the search reads the same cached set.
        cc = random_classical_classical(m, m, state_seed)
        eigen = [invariance_search(cc, m, m, side=side, trials=2000, seed=9)
                 for side in ("left", "right")]
        assert calls == [(2000, 2, m, m)], m
        assert [r.best_trial for r in eigen] == [None, None], m
        for report in (*warm.values(), *eigen):
            winner = report.best_measurement.unitary
            assert not winner.flags.writeable and not np.shares_memory(winner, cached)
        for side, report in warm.items():
            # A random trial wins, so the winner comes from the candidate set.
            assert report.best_trial is not None, (m, side)
            sampler._candidates.cache_clear()
            cold = invariance_search(rho, m, m, side=side, trials=2000, seed=9)
            assert cold.best_residual == report.best_residual, (m, side)
            assert cold.best_trial == report.best_trial, (m, side)
            assert cold.eigenbasis_residual == report.eigenbasis_residual, (m, side)
            assert np.array_equal(cold.best_measurement.unitary,
                                  report.best_measurement.unitary), (m, side)


def test_one_chunk_candidates_miss_on_another_key():
    sampler._candidates.cache_clear()
    info = sampler._candidates.cache_info
    states = {(3, 3): random_density(9, 5), (2, 3): random_density(6, 5)}
    invariance_search(states[3, 3], 3, 3, trials=100, seed=4)
    # Each call changes one part of the key: seed, m, trials, seed.
    for m, n, trials, seed in ((3, 3, 100, 5), (2, 3, 100, 5), (2, 3, 101, 5),
                               (2, 3, 101, 4)):
        misses = info().misses
        invariance_search(states[m, n], m, n, trials=trials, seed=seed)
        assert info().misses == misses + 1
    # The same key again is a hit.
    hits = info().hits
    invariance_search(states[2, 3], 2, 3, trials=101, seed=4)
    assert info().hits == hits + 1
    # A two-chunk search draws each chunk, and keeps the second.
    misses, chunk = info().misses, sampler._CHUNK_TRIALS
    invariance_search(states[2, 3], 2, 3, trials=chunk + 1, seed=4)
    assert info().misses == misses + 2
    hits = info().hits
    sampler._candidates(4, 2, chunk, 1)
    assert info().hits == hits + 1
