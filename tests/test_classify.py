import dataclasses

import numpy as np
import pytest

from vnlift import (
    BasisError,
    BellDiagonalSpec,
    BellDiagonalVerdict,
    BlochForm,
    HermitianBasis,
    InvalidStateError,
    ShapeError,
    check_classical_classical,
    check_classical_quantum,
    check_quantum_classical,
    classify_bell_diagonal,
    classify_state,
    dakic_condition,
    decompose,
    gell_mann_basis,
    numerical_rank,
    pauli_gell_mann_basis,
    random_classical_classical,
    random_classical_quantum,
    random_density,
    random_quantum_classical,
    random_unitary,
    validate_density,
)
from vnlift import classify
from tests.conftest import bell_diagonal_state, bloch_form, near_hermitian, rho_zero

B2 = gell_mann_basis(2)
P2 = pauli_gell_mann_basis(2)

OCTAHEDRON_VERTICES = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]


def bloch(rho, m, n):
    return decompose(rho, gell_mann_basis(m), gell_mann_basis(n))


def test_rho_zero_separates_screens():
    for x in (np.sqrt(2), 2.0, 10.0):
        bf = decompose(rho_zero(x), P2, P2)
        cq = check_classical_quantum(bf)
        qc = check_quantum_classical(bf)
        dk = dakic_condition(bf)
        assert cq.ruled_out and cq.computed_rank == 2 and cq.threshold == 1
        assert qc.ruled_out and qc.computed_rank == 2
        assert not dk.ruled_out and dk.computed_rank == 2 and dk.threshold == 2


def test_maximally_mixed_is_inconclusive_everywhere():
    bf = bloch(np.eye(4) / 4.0, 2, 2)
    assert check_classical_quantum(bf).computed_rank == 0
    assert not check_classical_quantum(bf).ruled_out
    assert not check_quantum_classical(bf).ruled_out
    assert not check_classical_classical(bf).ruled_out
    assert not dakic_condition(bf).ruled_out


@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 3), (3, 3), (3, 2), (4, 2), (4, 3), (6, 6), (8, 4), (8, 8)]
)
def test_sampled_classical_states_never_ruled_out(m, n):
    for seed in range(30):
        bf = bloch(random_classical_quantum(m, n, seed), m, n)
        v = check_classical_quantum(bf)
        assert not v.ruled_out and v.computed_rank <= m - 1
        assert not dakic_condition(bf).ruled_out
        bf = bloch(random_quantum_classical(m, n, seed), m, n)
        assert not check_quantum_classical(bf).ruled_out
        bf = bloch(random_classical_classical(m, n, seed), m, n)
        assert not check_classical_quantum(bf).ruled_out
        assert not check_quantum_classical(bf).ruled_out
        assert not check_classical_classical(bf).ruled_out
        assert not dakic_condition(bf).ruled_out


def passes_one_sided_screen(m, n, t=0.1):
    """(I + t sum_k mu_k (x) nu_k)/mn over the first min(m-1, 3) symmetric and
    antisymmetric Gell-Mann elements on A: rank(R|T) = min(m-1, 3) <= m-1,
    and for m >= 3 the mu_k do not commute, so the state is not
    classical-quantum.  t = 0.1 keeps every eigenvalue positive."""
    ba, bb = gell_mann_basis(m), gell_mann_basis(n)
    labels = ("symmetric(0,1)", "antisymmetric(0,1)", "symmetric(0,2)")[: m - 1]
    mus = [ba.elements[ba.labels.index(lab)] for lab in labels]
    out = np.eye(m * n, dtype=complex)
    for mu, nu in zip(mus, bb.elements):
        out += t * np.kron(mu, nu)
    return out / (m * n)


def test_dakic_implication():
    # A state passing the one-sided screen always passes the baseline screen.
    for m, n in ((2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (4, 4)):
        states = [random_density(m * n, 5000 + seed) for seed in range(40)]
        states.append(passes_one_sided_screen(m, n))
        assert validate_density(states[-1]).ok
        checked = 0
        for i, rho in enumerate(states):
            bf = bloch(rho, m, n)
            if not check_classical_quantum(bf).ruled_out:
                assert not dakic_condition(bf).ruled_out, (m, n, i)
                checked += 1
        assert checked >= 1, (m, n)
    # The separation is witnessed by the benchmark state.
    bf = decompose(rho_zero(2.0), P2, P2)
    assert check_classical_quantum(bf).ruled_out
    assert not dakic_condition(bf).ruled_out


def test_local_unitary_covariance_of_verdicts():
    for seed in range(10):
        rho = random_density(4, 800 + seed)
        u = random_unitary(2, 2 * seed)
        w = random_unitary(2, 2 * seed + 1)
        uv = np.kron(u, w)
        rotated = uv @ rho @ uv.conj().T
        bf = bloch(rho, 2, 2)
        bf_rot = bloch(rotated, 2, 2)
        assert check_classical_quantum(bf).ruled_out == check_classical_quantum(bf_rot).ruled_out
        assert check_quantum_classical(bf).ruled_out == check_quantum_classical(bf_rot).ruled_out
        assert check_classical_classical(bf).ruled_out == check_classical_classical(bf_rot).ruled_out


def test_bell_diagonal_octahedron_vertices_and_origin():
    for t in OCTAHEDRON_VERTICES + [(0, 0, 0)]:
        verdict = classify_bell_diagonal(BellDiagonalSpec(*t))
        assert not verdict.quantum_quantum
        assert verdict.separable


def test_bell_diagonal_tetrahedron_vertices_are_quantum():
    # Maximally entangled corners: all three correlations nonzero.
    for t in [(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]:
        verdict = classify_bell_diagonal(BellDiagonalSpec(*t))
        assert verdict.quantum_quantum
        assert not verdict.separable


def test_bell_diagonal_interior_point():
    verdict = classify_bell_diagonal(BellDiagonalSpec(0.5, 0.3, 0.0))
    assert verdict.quantum_quantum
    assert verdict.separable


def test_bell_diagonal_rejects_outside_tetrahedron():
    with pytest.raises(InvalidStateError):
        classify_bell_diagonal(BellDiagonalSpec(1.0, 1.0, 1.0))


def test_bell_diagonal_rejects_non_finite_correlations():
    for t in ((np.nan, 0, 0), (0, np.nan, 0.5), (0, 0, np.inf), (-np.inf, 0, 0)):
        with pytest.raises(InvalidStateError, match="finite"):
            classify_bell_diagonal(BellDiagonalSpec(*t))


def test_bell_diagonal_consistent_with_rank_checks():
    grid = [
        (0, 0, 0), (0.5, 0, 0), (0, 0.7, 0), (0.5, 0.3, 0), (0.3, 0.3, 0.3),
        (-0.4, 0.4, 0.1), (1, 0, 0), (0.9, -0.05, 0.0), (0.2, -0.2, 0.5),
    ]
    for t in grid:
        verdict = classify_bell_diagonal(BellDiagonalSpec(*t))
        bf = decompose(bell_diagonal_state(*t), P2, P2)
        both_ruled_out = (
            check_classical_quantum(bf).ruled_out and check_quantum_classical(bf).ruled_out
        )
        assert verdict.quantum_quantum == both_ruled_out


@pytest.mark.parametrize(
    "t,ruled_out",
    [
        ([0.3, 0.4, 0.0], True),
        ([0.2, 0, 0, 0.1, 0, 0, 0, 0], False),
        ([0.2, 0, 0, 0.1, 0, 0, 0.15, 0], True),
    ],
    ids=["m2", "m3_inconclusive", "m3_ruled_out"],
)
def test_rho2_family(t, ruled_out):
    # R = S = 0 and T = diag(t): more than m-1 nonzero correlations rule out
    # the classical-quantum class.
    m = {3: 2, 8: 3}[len(t)]
    b = gell_mann_basis(m)
    zero = np.zeros(m * m - 1)
    bf = bloch_form(zero, zero, np.diag(t), b, b)
    assert check_classical_quantum(bf).ruled_out == ruled_out


SCREENS = (check_classical_quantum, check_quantum_classical, check_classical_classical,
           dakic_condition)


def corpus(m, n, seeds):
    for seed in seeds:
        yield random_classical_quantum(m, n, seed)
        yield random_quantum_classical(m, n, seed)
        yield random_classical_classical(m, n, seed)
        yield random_density(m * n, seed)


@pytest.mark.parametrize(
    "m,n", [(2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (3, 2), (4, 2), (8, 4)]
)
def test_screens_read_one_correlation_matrix(m, n, monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for rho in corpus(m, n, range(3)):
        bf = bloch(rho, m, n)
        calls.clear()
        cq, qc, cc, dk = (screen(bf) for screen in SCREENS)
        # (R|T) and (S|T^T) are blocks of C, and one batched SVD gives all three spectra.
        assert len(calls) == 1
        c = bf.correlation
        assert np.array_equal(c[1:, :], np.column_stack((bf.R, bf.T)))
        assert np.array_equal(c[:, 1:].T, np.column_stack((bf.S, bf.T.T)))
        assert cq.computed_rank == numerical_rank(c[1:, :])
        assert qc.computed_rank == numerical_rank(c[:, 1:].T)
        assert cc.computed_rank == dk.computed_rank == numerical_rank(c)
        for arr in (c, bf.R, bf.S, bf.T, bf.correlation_spectrum, bf.screen_spectra):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


@pytest.mark.parametrize(
    "m,n",
    [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (6, 6), (8, 4), (8, 8), (2, 8)],
)
def test_screen_spectra_are_the_spectra_of_the_evidence(m, n):
    for rho in corpus(m, n, range(3)):
        bf = bloch(rho, m, n)
        spectra = bf.screen_spectra
        assert spectra.shape == (3, min(m * m, n * n))
        assert not spectra.flags.writeable
        verdicts = [screen(bf) for screen in SCREENS]
        # The screened blocks (R|T), (S|T^T), C and C, read from C.
        c = bf.correlation
        blocks = (c[1:, :], c[:, 1:].T, c, c)
        # Zeroing C's first row or column adds one zero singular value where
        # the block has fewer singular values than C.
        for row, block in zip(spectra[:2], blocks[:2]):
            exact = np.linalg.svd(block, compute_uv=False)
            k = len(exact)
            assert np.allclose(row[:k], exact, rtol=0, atol=1e-13 * exact[0])
            assert np.all(row[k:] <= 1e-13 * exact[0])
        assert np.array_equal(spectra[2], np.linalg.svd(bf.correlation, compute_uv=False))
        assert bf.correlation_spectrum.base is spectra
        for v, block in zip(verdicts, blocks):
            assert v.computed_rank == numerical_rank(block)


def trace_correlation(rho, m, n):
    """C[i, j] = mn Tr(rho (mu_i (x) nu_j)) with mu_0 = I/m and nu_0 = I/n, from
    the basis elements by one einsum, independent of decompose's product chain."""
    mu = np.concatenate((np.eye(m)[np.newaxis] / m, gell_mann_basis(m).stack()))
    nu = np.concatenate((np.eye(n)[np.newaxis] / n, gell_mann_basis(n).stack()))
    c = m * n * np.einsum("abcd,ica,jdb->ij", rho.reshape(m, n, m, n), mu, nu)
    assert np.max(np.abs(c.imag)) <= 1e-12
    return c.real


@pytest.mark.parametrize(
    "m,n",
    [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (6, 6), (8, 4), (8, 8), (2, 8)],
)
def test_verdicts_match_the_trace_definition(m, n):
    # Each rank counted by its own SVD of a block of the reference C.
    for rho in corpus(m, n, range(3)):
        c = trace_correlation(rho, m, n)
        assert np.max(np.abs(bloch(rho, m, n).correlation - c)) <= 1e-12
        expected = [(numerical_rank(c[1:, :]), m - 1), (numerical_rank(c[:, 1:]), n - 1),
                    (numerical_rank(c), min(m, n)), (numerical_rank(c), m)]
        got = [(v.computed_rank, v.threshold) for v in classify_state(rho, m, n).values()]
        assert got == expected


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 2), (4, 2), (4, 3), (8, 4)])
def test_classify_state_matches_the_screens_in_order(m, n):
    assert list(classify.SCREENS) == [
        "classical_quantum", "quantum_classical", "classical_classical", "dakic"]
    assert tuple(classify.SCREENS.values()) == SCREENS
    for rho in corpus(m, n, range(3)):
        verdicts = classify_state(rho, m, n)
        assert list(verdicts) == list(classify.SCREENS)
        bf = bloch(rho, m, n)
        for v, screen in zip(verdicts.values(), SCREENS):
            direct = screen(bf)
            assert (v.ruled_out, v.computed_rank, v.threshold) == (
                direct.ruled_out, direct.computed_rank, direct.threshold)


def test_classify_state_validates_unless_told_not_to():
    rho = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(InvalidStateError, match="psd=False"):
        classify_state(rho, 2, 2)
    assert list(classify_state(rho, 2, 2, validate=False)) == list(classify.SCREENS)


def ranks(verdicts):
    return [(name, v.computed_rank, v.ruled_out) for name, v in verdicts.items()]


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (8, 4)])
def test_unvalidated_ranks_do_not_depend_on_the_trace(m, n):
    # C is linear in rho, so k rho has the ranks of rho for every k != 0.
    product = np.kron(random_density(m, 70 + m), random_density(n, 80 + n))
    for rho in (product, *corpus(m, n, range(2))):
        expected = ranks(classify_state(rho, m, n, validate=False))
        assert expected == ranks(classify_state(rho, m, n))
        for k in (0.5, 3.0, 4.0, 1e3):
            assert ranks(classify_state(k * rho, m, n, validate=False)) == expected, (m, n, k)
    assert classify_state(product, m, n)["classical_classical"].computed_rank == 1


def test_rho_zero_without_its_quarter_keeps_the_baseline_inconclusive():
    # 4 rho_0(2) is the Pauli expansion of the benchmark state without its 1/4.
    verdicts = classify_state(4.0 * rho_zero(2.0), 2, 2, validate=False)
    for name in ("classical_classical", "dakic"):
        v = verdicts[name]
        assert not v.ruled_out and v.computed_rank == 2, name


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 4), (8, 4)])
def test_a_state_that_validates_is_classified_as_its_hermitian_part(m, n):
    # One Hermiticity criterion: a state within eq_abs of Hermitian passes
    # validation and decomposition alike, and gets the symmetrised state's verdicts.
    for seed, rho in enumerate(corpus(m, n, range(2))):
        near = near_hermitian(rho, seed)
        report = validate_density(near)
        assert report.ok
        got, expected = classify_state(near, m, n), classify_state(report.symmetrized, m, n)
        for v, w in zip(got.values(), expected.values()):
            assert (v.ruled_out, v.computed_rank, v.threshold) == (
                w.ruled_out, w.computed_rank, w.threshold)


def test_hand_built_bloch_form_runs_every_screen():
    # R = S = 0 and T = diag(0.3, 0.4, 0): C = diag(1, 0.3, 0.4, 0) has rank 3.
    b = gell_mann_basis(2)
    zero = np.zeros(3)
    bf = bloch_form(zero, zero, np.diag([0.3, 0.4, 0.0]), b, b)
    ranks = [screen(bf).computed_rank for screen in SCREENS]
    assert ranks == [2, 2, 3, 3]
    assert [screen(bf).ruled_out for screen in SCREENS] == [True, True, True, True]
    assert np.array_equal(bf.correlation, np.diag([1.0, 0.3, 0.4, 0.0]))
    # m and n are the bases' dimensions, and a C whose shape does not match
    # the bases is refused when it is built.
    assert (bf.m, bf.n) == (2, 2)
    with pytest.raises(ShapeError, match=r"must be 4x4, got \(9, 4\)"):
        BlochForm(correlation=np.zeros((9, 4)), basis_a=b, basis_b=b)


def test_bell_diagonal_verdict_derives_its_outcome():
    # More than one nonzero correlation makes a Bell-diagonal state quantum-quantum.
    assert ([BellDiagonalVerdict(True, k).quantum_quantum for k in range(4)]
            == [False, False, True, True])
    assert ([f.name for f in dataclasses.fields(BellDiagonalVerdict)]
            == ["separable", "nonzero_correlations"])


def test_one_sided_screens_refuse_an_empty_block():
    # At m = 1, (R|T) would have no rows; at n = 1, (S|T^T) none. No such form
    # reaches a screen: m and n are the dimensions of its bases, a basis has
    # dimension at least 2, and a C whose shape does not match the bases is
    # refused when it is built.
    b = gell_mann_basis(2)
    with pytest.raises(ShapeError, match=r"must be 4x4, got \(1, 4\)"):
        BlochForm(correlation=np.zeros((1, 4)), basis_a=b, basis_b=b)
    with pytest.raises(ShapeError, match=r"must be 4x4, got \(4, 1\)"):
        BlochForm(correlation=np.zeros((4, 1)), basis_a=b, basis_b=b)
    with pytest.raises(BasisError, match="one square shape"):
        HermitianBasis(elements=(), labels=())
    with pytest.raises(BasisError, match="dim 1 needs 0 elements"):
        HermitianBasis(elements=(np.eye(1),), labels=("identity",))
    with pytest.raises(ValueError, match="dimension >= 2"):
        gell_mann_basis(1)


def test_screens_refuse_non_finite_correlations():
    # The form is refused when it is built, so no screen sees a NaN or Inf.
    b = gell_mann_basis(2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or Inf"):
            bloch_form(np.zeros(3), np.zeros(3), np.diag([0.3, bad, 0.0]), b, b)


@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (6, 6), (8, 4)]
)
def test_screen_ranks_do_not_depend_on_basis_ordering(m, n):
    for rho in corpus(m, n, range(10)):
        canonical = bloch(rho, m, n)
        textbook = decompose(rho, pauli_gell_mann_basis(m), pauli_gell_mann_basis(n))
        for screen in SCREENS:
            assert screen(canonical).computed_rank == screen(textbook).computed_rank


def test_rho_zero_just_below_validity_boundary():
    # Record-only check slightly below x = sqrt(2): the state stays Hermitian
    # with unit trace; positivity is reported, not asserted.
    report_below = np.linalg.eigvalsh(rho_zero(1.40))
    assert report_below[0] < 0.01
    from vnlift import validate_density

    report = validate_density(rho_zero(1.40))
    assert report.hermitian and report.unit_trace
