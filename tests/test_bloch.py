import dataclasses

import numpy as np
import pytest

from vnlift import (
    BlochForm,
    ShapeError,
    decompose,
    gell_mann_basis,
    numerical_rank,
    random_density,
    reconstruct,
    validate_density,
)
from tests.bases import pauli_gell_mann_basis
from tests.conftest import bell_diagonal_state, bloch_form, near_hermitian, rho_zero

B2 = gell_mann_basis(2)
P2 = pauli_gell_mann_basis(2)


def test_maximally_mixed_has_zero_components():
    bf = decompose(np.eye(4) / 4.0, B2, B2)
    assert np.max(np.abs(bf.R)) <= 1e-12
    assert np.max(np.abs(bf.S)) <= 1e-12
    assert np.max(np.abs(bf.T)) <= 1e-12


def test_bell_diagonal_components():
    # In the unit-norm Pauli-scaled basis the diagonal correlations come out
    # as twice the conventional (t1, t2, t3).
    t = (0.4, -0.2, 0.1)
    bf = decompose(bell_diagonal_state(*t), P2, P2)
    assert np.max(np.abs(bf.R)) <= 1e-12
    assert np.max(np.abs(bf.S)) <= 1e-12
    assert np.allclose(bf.T, np.diag([2 * x for x in t]), atol=1e-12)


@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 3), (3, 2), (4, 2), (6, 6), (8, 4), (8, 8)]
)
@pytest.mark.parametrize("make_basis", [gell_mann_basis, pauli_gell_mann_basis])
def test_decompose_matches_trace_reference(m, n, make_basis):
    # Each coefficient as its own trace against a Kronecker product,
    # Tr(rho K) = sum(rho * K^T), independent of decompose's matrix layout.
    rho = random_density(m * n, 4321 + 10 * m + n)
    ba, bb = make_basis(m), make_basis(n)
    eye_a, eye_b = np.eye(m), np.eye(n)
    r = [m * np.sum(rho * np.kron(mu, eye_b).T) for mu in ba.elements]
    s = [n * np.sum(rho * np.kron(eye_a, nu).T) for nu in bb.elements]
    t = [[m * n * np.sum(rho * np.kron(mu, nu).T) for nu in bb.elements] for mu in ba.elements]
    bf = decompose(rho, ba, bb)
    assert np.max(np.abs(bf.R - np.array(r))) <= 1e-12
    assert np.max(np.abs(bf.S - np.array(s))) <= 1e-12
    assert np.max(np.abs(bf.T - np.array(t))) <= 1e-12


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (4, 2), (8, 4), (8, 8)])
def test_round_trip_random_state(m, n):
    rho = random_density(m * n, 1234 + 10 * m + n)
    bf = decompose(rho, gell_mann_basis(m), gell_mann_basis(n))
    assert np.max(np.abs(reconstruct(bf) - rho)) <= 1e-12


def test_reconstruct_zero_components_is_maximally_mixed():
    bf = bloch_form(np.zeros(3), np.zeros(3), np.zeros((3, 3)), B2, B2)
    assert np.allclose(reconstruct(bf), np.eye(4) / 4.0)


def test_reconstruct_rho_zero_coefficients_is_valid_density():
    x = 2.0
    local = np.array([0.0, 0.0, np.sqrt(2) / x])
    bf = bloch_form(local, local, np.diag([2 / x**2, 0.0, 2 / x**2]), P2, P2)
    rho = reconstruct(bf)
    assert validate_density(rho).ok
    assert np.max(np.abs(rho - rho_zero(x))) <= 1e-12


def test_decompose_linearity():
    rho_a = random_density(4, 1)
    rho_b = random_density(4, 2)
    mix = 0.3 * rho_a + 0.7 * rho_b
    bf_a = decompose(rho_a, B2, B2)
    bf_b = decompose(rho_b, B2, B2)
    bf_mix = decompose(mix, B2, B2)
    assert np.allclose(bf_mix.R, 0.3 * bf_a.R + 0.7 * bf_b.R, atol=1e-12)
    assert np.allclose(bf_mix.T, 0.3 * bf_a.T + 0.7 * bf_b.T, atol=1e-12)


def test_product_state_correlations_factorize():
    for seed in range(5):
        rho_a = random_density(2, 100 + seed)
        rho_b = random_density(3, 200 + seed)
        bf = decompose(np.kron(rho_a, rho_b), gell_mann_basis(2), gell_mann_basis(3))
        assert np.allclose(bf.T, np.outer(bf.R, bf.S), atol=1e-10)
        assert numerical_rank(bf.correlation) == 1


def test_decompose_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.1
    # Just past the entrywise eq_abs criterion that validate_density applies.
    barely = near_hermitian(random_density(4, 7), 7, fraction=1.1)
    for rho in (bad, barely):
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose(rho, B2, B2)


def test_decompose_rejects_a_state_of_the_wrong_shape():
    with pytest.raises(ShapeError, match="state must be 4x4, got"):
        decompose(np.eye(3) / 3.0, B2, B2)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 4), (8, 4)])
def test_decompose_reads_the_hermitian_part(m, n):
    # An anti-Hermitian part within eq_abs adds only imaginary coefficients,
    # so C is the Bloch form of (rho + rho^dag) / 2.
    ba, bb = gell_mann_basis(m), gell_mann_basis(n)
    for seed in range(5):
        rho = near_hermitian(random_density(m * n, seed), seed)
        sym = (rho + rho.conj().T) / 2.0
        diff = decompose(rho, ba, bb).correlation - decompose(sym, ba, bb).correlation
        assert np.max(np.abs(diff)) <= 1e-15


@pytest.mark.parametrize("m,n", [(2, 2), (8, 8)])
def test_decompose_accepts_a_large_exactly_hermitian_matrix(m, n):
    # Entries of order 1e7 leave imaginary round-off far above eq_abs in C;
    # the state is Hermitian, so only the real part is read.
    ba, bb = gell_mann_basis(m), gell_mann_basis(n)
    for seed in range(5):
        rho = random_density(m * n, seed)
        big = (rho + rho.conj().T) / 2.0 * 1e7
        c, ref = decompose(big, ba, bb).correlation, decompose(rho, ba, bb).correlation
        assert np.allclose(c, 1e7 * ref, rtol=1e-9, atol=1e-3)


def random_hermitian(d: int, seed: int, trace: float) -> np.ndarray:
    """Seeded Hermitian d x d matrix with the given trace, not a state."""
    g = np.random.default_rng(seed).standard_normal((2, d, d))
    h = g[0] + 1j * g[1]
    h = h + h.conj().T
    return h + (trace - np.trace(h).real) / d * np.eye(d)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 4), (4, 4)])
def test_decompose_is_linear_and_reconstruct_inverts_it_for_any_trace(m, n):
    # C[0, 0] is Tr H, so C(a H1 + b H2) = a C(H1) + b C(H2) holds on the whole
    # matrix, and reconstruct recovers H whatever its trace.
    ba, bb = gell_mann_basis(m), gell_mann_basis(n)
    traces = (0.0, 1.0, -2.5, 7.0)
    hs = [random_hermitian(m * n, 30 + seed, t) for seed, t in enumerate(traces)]
    for h, t in zip(hs, traces):
        bf = decompose(h, ba, bb)
        assert abs(bf.correlation[0, 0] - t) <= 1e-12
        assert np.max(np.abs(reconstruct(bf) - h)) <= 1e-12
    for (h1, h2), (a, b) in zip(zip(hs, hs[1:] + hs[:1]), ((0.3, 0.7), (2.0, -1.5),
                                                          (-4.0, 0.25), (1e3, 0.0))):
        c1, c2 = decompose(h1, ba, bb).correlation, decompose(h2, ba, bb).correlation
        mix = decompose(a * h1 + b * h2, ba, bb).correlation
        assert np.allclose(mix, a * c1 + b * c2, rtol=1e-12, atol=1e-12)


def test_correlation_matrix_rho_zero():
    x = 2.0
    bf = decompose(rho_zero(x), P2, P2)
    r3 = np.sqrt(2) / x
    t = 2 / x**2
    expected = np.array(
        [
            [1.0, 0, 0, r3],
            [0, t, 0, 0],
            [0, 0, 0, 0],
            [r3, 0, 0, t],
        ]
    )
    assert np.allclose(bf.correlation, expected, atol=1e-12)
    assert numerical_rank(bf.correlation) == 2


def test_correlation_matrix_maximally_mixed():
    bf = decompose(np.eye(4) / 4.0, B2, B2)
    cm = bf.correlation
    assert cm[0, 0] == 1.0
    assert numerical_rank(cm) == 1


def test_bloch_form_keeps_one_read_only_copy():
    c = np.array([[1.0, 0, 0, 2], [0, 3, 0, 0], [0, 0, 0, 0], [4, 0, 0, 5]])
    bf = BlochForm(correlation=c, basis_a=B2, basis_b=B2)
    c[1, 1] = 9.0
    assert bf.correlation[1, 1] == 3.0
    ints = BlochForm(correlation=c.astype(int), basis_a=B2, basis_b=B2)
    assert ints.correlation.dtype == np.float64
    assert np.array_equal(bf.R, [0, 0, 4]) and np.array_equal(bf.S, [0, 0, 2])
    assert np.array_equal(bf.T, np.diag([3, 0, 5]))
    for view in (bf.R, bf.S, bf.T):
        assert np.shares_memory(view, bf.correlation)
    for arr in (bf.correlation, bf.R, bf.S, bf.T):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_bloch_form_reads_its_dimensions_from_the_bases():
    bf = BlochForm(correlation=np.zeros((9, 4)), basis_a=gell_mann_basis(3), basis_b=B2)
    assert (bf.m, bf.n) == (3, 2)
    assert ([f.name for f in dataclasses.fields(BlochForm)]
            == ["correlation", "basis_a", "basis_b"])


@pytest.mark.parametrize(
    "c,match",
    [
        (np.eye(4, 3), "must be 4x4"),
        (np.eye(9), "must be 4x4"),
        (np.ones(16), "2-D"),
        (np.ones((1, 4, 4)), "2-D"),
        (np.eye(4, dtype=complex), "real"),
    ],
    ids=["4x3", "9x9", "1d", "3d", "complex"],
)
def test_bloch_form_rejects_a_malformed_correlation(c, match):
    # A complex C is refused even with zero imaginary part, rather than cast.
    with pytest.raises(ShapeError, match=match):
        BlochForm(correlation=c, basis_a=B2, basis_b=B2)
