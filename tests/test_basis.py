import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vnlift import DEFAULT_TOL, BasisError, HermitianBasis, gell_mann_basis, pauli_gell_mann_basis
from tests.conftest import SIGMA

S2 = np.sqrt(2.0)


def assert_gram_identity(b):
    stack = b.stack()
    gram = np.einsum("iab,jab->ij", stack.conj(), stack)
    assert np.max(np.abs(gram - np.eye(len(b.elements)))) <= 1e-12


def test_canonical_order_m2():
    b = gell_mann_basis(2)
    assert b.labels == ("diagonal(1)", "symmetric(0,1)", "antisymmetric(0,1)")
    assert np.allclose(b.elements[0], SIGMA[3] / S2)
    assert np.allclose(b.elements[1], SIGMA[1] / S2)
    assert np.allclose(b.elements[2], -SIGMA[2] / S2)


def test_diagonal_element_value():
    w1 = gell_mann_basis(2).elements[0]
    expected = np.sqrt(0.5) * np.diag([1.0, -1.0])
    assert np.allclose(w1, expected)


def test_pauli_order_m2():
    b = pauli_gell_mann_basis(2)
    for el, s in zip(b.elements, (SIGMA[1], SIGMA[2], SIGMA[3])):
        assert np.allclose(el, s / S2)


def test_pauli_order_m3_matches_standard_gell_mann():
    b = pauli_gell_mann_basis(3)
    lam3 = np.diag([1.0, -1.0, 0.0])
    lam8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    assert np.allclose(b.elements[2], lam3 / S2)
    assert np.allclose(b.elements[7], lam8 / S2)
    lam2 = np.zeros((3, 3), dtype=complex)
    lam2[0, 1], lam2[1, 0] = -1j, 1j
    assert np.allclose(b.elements[1], lam2 / S2)


def reference_gell_mann(m):
    """Canonical elements from their definitions, one matrix at a time."""
    ket = np.eye(m)
    out = []
    for p in range(1, m):
        d = sum(np.outer(ket[a], ket[a]) for a in range(p)) - p * np.outer(ket[p], ket[p])
        out.append(d / np.sqrt(p * (p + 1)))
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    for k, l in pairs:
        out.append((np.outer(ket[k], ket[l]) + np.outer(ket[l], ket[k])) / S2)
    for k, l in pairs:
        out.append(1j * (np.outer(ket[k], ket[l]) - np.outer(ket[l], ket[k])) / S2)
    return out


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gell_mann_matches_definition(m):
    for el, ref in zip(gell_mann_basis(m).elements, reference_gell_mann(m), strict=True):
        assert np.max(np.abs(el - ref)) <= 1e-15


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_basis_invariants(m):
    b = gell_mann_basis(m)
    assert len(b.elements) == m * m - 1
    for el in b.elements:
        assert np.allclose(el, el.conj().T, atol=1e-12)
        assert abs(np.trace(el)) <= 1e-12
    assert_gram_identity(b)


@pytest.mark.parametrize("m", [2, 3])
def test_pauli_basis_orthonormal(m):
    assert_gram_identity(pauli_gell_mann_basis(m))


def test_rejects_m_below_two():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


def test_gell_mann_basis_is_memoized():
    assert gell_mann_basis(3) is gell_mann_basis(3)
    assert pauli_gell_mann_basis(3) is pauli_gell_mann_basis(3)


def test_basis_arrays_are_read_only():
    b = gell_mann_basis(2)
    with pytest.raises(ValueError):
        b.elements[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        b.stack()[0, 0, 0] = 5.0
    assert b.elements[0][0, 0] == pytest.approx(1 / S2)


@pytest.mark.parametrize("make_basis", [gell_mann_basis, pauli_gell_mann_basis])
@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_augmented_matrix(make_basis, m):
    # A' = [vec I; vec mu_1; ...]: the bases' one stored array, which decompose
    # and reconstruct read.
    b = make_basis(m)
    a = b.augmented()
    assert a.shape == (m * m, m * m) and not a.flags.writeable
    assert np.array_equal(a[0], np.eye(m).ravel())
    assert np.array_equal(a[1:], b.stack().reshape(m * m - 1, m * m))
    assert np.shares_memory(b.stack(), a) and np.shares_memory(b.elements[-1], a)
    gram = np.eye(m * m)
    gram[0, 0] = m
    assert np.max(np.abs(a.conj() @ a.T - gram)) <= 1e-12
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 5.0


def _replace_first(b, element):
    return (element,) + b.elements[1:]


def _invalid_elements(case):
    b = gell_mann_basis(2)
    if case == "mixed":
        # Unit norm, Hermitian and traceless, but not orthogonal to elements[1].
        return _replace_first(b, (b.elements[0] + b.elements[1]) / S2), "orthonormal"
    if case == "non_hermitian":
        return _replace_first(b, np.array([[0, 1], [0, 0]], dtype=complex)), "Hermitian"
    if case == "non_traceless":
        return _replace_first(b, np.eye(2) / S2), "traceless"
    assert case == "wrong_shape"
    return _replace_first(b, np.eye(3) / np.sqrt(3.0)), "shape"


@pytest.mark.parametrize(
    "case", ["mixed", "non_hermitian", "non_traceless", "wrong_shape"]
)
def test_construction_rejects_invalid_element(case):
    elements, property_name = _invalid_elements(case)
    with pytest.raises(BasisError, match=property_name):
        HermitianBasis(elements=elements, labels=gell_mann_basis(2).labels)


def test_construction_rejects_an_overflowing_non_hermitian_element():
    # mu - mu^dag overflows for these entries; the check halves first, as the
    # state checks do, so it refuses the element with no warning.
    b = gell_mann_basis(2)
    huge = np.array([[0, 1e308 + 1e308j], [-1e308 + 1e308j, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BasisError, match="Hermitian"):
            HermitianBasis(elements=_replace_first(b, huge), labels=b.labels)


@pytest.mark.parametrize("fraction,hermitian", [(0.9, True), (1.1, False)])
def test_hermiticity_cutoff_is_eq_abs(fraction, hermitian):
    # Element 0 plus i eps X, with max|mu - mu^dag| = 2 eps = fraction * eq_abs;
    # it stays traceless and orthonormal within eq_abs, so only Hermiticity decides.
    b = gell_mann_basis(2)
    eps = fraction * DEFAULT_TOL.eq_abs / 2
    element = b.elements[0] + 1j * eps * SIGMA[1]
    if hermitian:
        HermitianBasis(elements=_replace_first(b, element), labels=b.labels)
    else:
        with pytest.raises(BasisError, match="Hermitian"):
            HermitianBasis(elements=_replace_first(b, element), labels=b.labels)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dimension_is_read_from_the_elements(m):
    b = gell_mann_basis(m)
    rebuilt = HermitianBasis(elements=b.elements, labels=b.labels)
    assert b.dim == rebuilt.dim == m
    assert np.array_equal(rebuilt.augmented(), b.augmented())
    assert [f.name for f in dataclasses.fields(HermitianBasis) if f.init] == ["elements", "labels"]


def test_verify_rejects_doubled_element():
    b = gell_mann_basis(2)
    with pytest.raises(BasisError, match="orthonormal"):
        HermitianBasis(elements=_replace_first(b, 2 * b.elements[0]), labels=b.labels)


def test_construction_rejects_wrong_counts():
    b = gell_mann_basis(2)
    with pytest.raises(BasisError):
        HermitianBasis(elements=b.elements[:2], labels=b.labels[:2])
    with pytest.raises(BasisError):
        HermitianBasis(elements=b.elements, labels=b.labels[:2])


def householder(v):
    v = v / np.linalg.norm(v)
    return np.eye(len(v)) - 2.0 * np.outer(v, v)


@given(st.integers(0, 2**32 - 1))
def test_householder_rotated_basis_constructs(seed):
    # Any orthogonal mix of a basis is again a basis, and construction accepts it.
    rng = np.random.default_rng(seed)
    o = householder(rng.standard_normal(8))
    rotated = np.einsum("iab,ij->jab", gell_mann_basis(3).stack(), o)
    b = HermitianBasis(elements=tuple(rotated), labels=tuple(map(str, range(8))))
    assert_gram_identity(b)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
def test_completeness_reconstruction(seed, m):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = g + g.conj().T
    h -= np.trace(h) * np.eye(m) / m
    stack = gell_mann_basis(m).stack()
    coeffs = np.einsum("iab,ab->i", stack.conj(), h)
    recon = np.einsum("i,iab->ab", coeffs, stack)
    assert np.max(np.abs(recon - h)) <= 1e-10
