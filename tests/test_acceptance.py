"""End-to-end acceptance suite.

Each test prints one PASS line with its measured runtime; run with -s (or
read the captured output) to see the table.
"""

import time

import numpy as np
import pytest

from vnlift import (
    BellDiagonalSpec,
    build_C,
    build_C0,
    check_classical_classical,
    check_classical_quantum,
    check_quantum_classical,
    classify_bell_diagonal,
    consistency_check,
    dakic_condition,
    decompose,
    from_unitary,
    gell_mann_basis,
    invariance_search,
    lift_matrix,
    numerical_rank,
    pauli_gell_mann_basis,
    random_classical_classical,
    random_classical_quantum,
    random_density,
    random_quantum_classical,
    random_unitary,
    reconstruct,
)
from tests.conftest import bell_diagonal_state, rho_zero

N_UNITARIES = 1000


def report(criterion, elapsed, budget):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed * 1e3:.1f} ms, budget {budget * 1e3:.0f} ms)")
    assert elapsed < budget


def best_of(fn, repeats=10):
    fn()  # warm-up
    best = min(_timed(fn) for _ in range(repeats))
    return best


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_1_m2_computational_lift():
    basis = pauli_gell_mann_basis(2)
    meas = from_unitary(np.eye(2))

    def run():
        lifted = lift_matrix(meas, basis)
        assert np.max(np.abs(lifted.matrix - np.diag([0.0, 0.0, 1.0]))) <= 1e-12
        assert numerical_rank(lifted.matrix) == 1

    report(1, best_of(run), 1e-3)


def test_criterion_2_m3_computational_lift():
    basis = pauli_gell_mann_basis(3)
    meas = from_unitary(np.eye(3))
    expected = np.diag([0.0, 0, 1, 0, 0, 0, 0, 1])

    def run():
        lifted = lift_matrix(meas, basis)
        assert np.max(np.abs(lifted.matrix - expected)) <= 1e-12
        assert numerical_rank(lifted.matrix) == 2

    report(2, best_of(run), 1e-3)


def test_criterion_3_lift_property_suite():
    start = time.perf_counter()
    for m in (2, 3, 4):
        basis = gell_mann_basis(m)
        for k in range(N_UNITARIES):
            meas = from_unitary(random_unitary(m, 10_000 * m + k))
            lifted = lift_matrix(meas, basis)
            assert lifted.idempotency_defect <= 1e-9
            assert numerical_rank(lifted.matrix) == m - 1
    report(3, time.perf_counter() - start, 30.0)


def test_criterion_4_coefficient_matrix_suite():
    start = time.perf_counter()
    for m in (2, 3, 4):
        basis = gell_mann_basis(m)
        for k in range(N_UNITARIES):
            u = random_unitary(m, 10_000 * m + k)
            c = build_C(u)
            c0 = build_C0(u)
            assert numerical_rank(c) == m - 1
            assert numerical_rank(c0) == m - 1
            assert np.linalg.norm(c.sum(axis=0)) <= 1e-10
            assert np.linalg.norm(c0.sum(axis=0)) <= 1e-10
            assert consistency_check(from_unitary(u), basis) <= 1e-10
    report(4, time.perf_counter() - start, 30.0)


def test_criterion_5_rho_zero_strength_separation():
    basis = pauli_gell_mann_basis(2)
    states = [rho_zero(x) for x in (np.sqrt(2.0), 2.0, 10.0)]

    def run():
        for rho in states:
            bf = decompose(rho, basis, basis)
            cq = check_classical_quantum(bf)
            qc = check_quantum_classical(bf)
            dk = dakic_condition(bf)
            assert cq.computed_rank == 2 and cq.ruled_out
            assert qc.computed_rank == 2 and qc.ruled_out
            assert dk.computed_rank == 2 and not dk.ruled_out

    report(5, best_of(run, repeats=5), 10e-3)


def test_criterion_6_bell_diagonal_suite():
    start = time.perf_counter()
    basis = pauli_gell_mann_basis(2)
    # The seven states with at most one nonzero correlation (octahedron
    # vertices and the origin) pass all three screens.
    classical_points = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0),
    ]
    for t in classical_points:
        bf = decompose(bell_diagonal_state(*t), basis, basis)
        assert not check_classical_quantum(bf).ruled_out
        assert not check_quantum_classical(bf).ruled_out
        assert not check_classical_classical(bf).ruled_out
        assert not classify_bell_diagonal(BellDiagonalSpec(*t)).quantum_quantum
    # 100 interior points with at least two substantial correlations are
    # ruled out on both sides.
    rng = np.random.default_rng(606)
    found = 0
    while found < 100:
        t = rng.uniform(-1.0, 1.0, size=3)
        spec = BellDiagonalSpec(*t)
        if np.min(spec.eigenvalues()) < 0.01:
            continue
        if np.count_nonzero(np.abs(t) > 0.05) < 2:
            continue
        found += 1
        bf = decompose(bell_diagonal_state(*t), basis, basis)
        assert check_classical_quantum(bf).ruled_out
        assert check_quantum_classical(bf).ruled_out
        assert classify_bell_diagonal(spec).quantum_quantum
    report(6, time.perf_counter() - start, 5.0)


def test_criterion_7_soundness_corpus():
    start = time.perf_counter()
    for m, n in ((2, 2), (2, 3), (3, 3), (3, 2), (4, 3), (6, 6), (8, 4), (8, 8)):
        ba, bb = gell_mann_basis(m), gell_mann_basis(n)
        for k in range(500):
            bf = decompose(random_classical_quantum(m, n, 70_000 + k), ba, bb)
            assert not check_classical_quantum(bf).ruled_out
            assert not dakic_condition(bf).ruled_out
            bf = decompose(random_quantum_classical(m, n, 80_000 + k), ba, bb)
            assert not check_quantum_classical(bf).ruled_out
            bf = decompose(random_classical_classical(m, n, 90_000 + k), ba, bb)
            assert not check_classical_quantum(bf).ruled_out
            assert not check_quantum_classical(bf).ruled_out
            assert not check_classical_classical(bf).ruled_out
    report(7, time.perf_counter() - start, 120.0)


def test_criterion_8_oracle_agreement():
    start = time.perf_counter()
    trials = 2000
    b2 = gell_mann_basis(2)
    corpus = []
    for k in range(25):
        corpus.append(("cq", random_classical_quantum(2, 2, 1_000 + k)))
    for k in range(25):
        corpus.append(("cc", random_classical_classical(2, 2, 2_000 + k)))
    for k in range(50):
        corpus.append(("random", random_density(4, 3_000 + k)))
    for kind, rho in corpus:
        bf = decompose(rho, b2, b2)
        cq = check_classical_quantum(bf)
        qc = check_quantum_classical(bf)
        if cq.ruled_out:
            rep = invariance_search(rho, 2, 2, side="left", trials=trials, seed=4)
            assert rep.best_residual > 0.01
        if qc.ruled_out:
            rep = invariance_search(rho, 2, 2, side="right", trials=trials, seed=5)
            assert rep.best_residual > 0.01
        if kind in ("cq", "cc"):
            rep = invariance_search(rho, 2, 2, side="left", trials=trials, seed=6)
            assert rep.best_residual <= 1e-10
            assert not rep.reduced_spectrum_degenerate
        if kind == "cc":
            rep = invariance_search(rho, 2, 2, side="right", trials=trials, seed=7)
            assert rep.best_residual <= 1e-10
    report(8, time.perf_counter() - start, 300.0)


@pytest.mark.xfail(strict=True, reason="the oracle cannot certify a classical state whose "
                   "reduced state is degenerate; ROADMAP direction 1 adds the candidate that can")
def test_oracle_certifies_a_classical_state_with_degenerate_marginals():
    # The Bell-diagonal state with t = (0.3, 0, 0) is classical-classical, and
    # both its reduced states are I/2, so the eigenbasis candidate is arbitrary.
    # Every screen passes it and the exact classifier finds no quantum
    # correlation, yet 2000 random trials at seed 0 read 0.0109 on each side,
    # above the 0.01 that criterion 8 reads as ruled out.
    rho = bell_diagonal_state(0.3, 0.0, 0.0)
    bf = decompose(rho, gell_mann_basis(2), gell_mann_basis(2))
    for screen in (check_classical_quantum, check_quantum_classical,
                   check_classical_classical, dakic_condition):
        assert not screen(bf).ruled_out
    assert not classify_bell_diagonal(BellDiagonalSpec(0.3, 0.0, 0.0)).quantum_quantum
    for side in ("left", "right"):
        rep = invariance_search(rho, 2, 2, side=side, trials=2000, seed=0)
        assert rep.reduced_spectrum_degenerate
        assert rep.best_residual <= 1e-10, side


def test_criterion_9_round_trip():
    start = time.perf_counter()
    for m, n in ((2, 2), (2, 3), (3, 3)):
        ba, bb = gell_mann_basis(m), gell_mann_basis(n)
        for k in range(200):
            rho = random_density(m * n, 40_000 + 17 * k + m * 3 + n)
            bf = decompose(rho, ba, bb)
            assert np.max(np.abs(reconstruct(bf) - rho)) <= 1e-12
    report(9, time.perf_counter() - start, 10.0)
