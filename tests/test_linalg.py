import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vnlift import (
    ShapeError,
    Tolerance,
    UnitarityError,
    classify_state,
    from_unitary,
    numerical_rank,
    random_unitary,
    validate_density,
)
from vnlift.linalg import _hermitian_half
from tests.conftest import SIGMA, rho_zero

TOL = Tolerance()


def test_rank_examples():
    assert numerical_rank(np.diag([0, 0, 1.0])) == 1
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.diag([0, 0, 1, 0, 0, 0, 0, 1.0])) == 2


def test_rank_of_empty_matrix_rejected():
    with pytest.raises(ShapeError):
        numerical_rank(np.zeros((0, 3)))


def test_rank_product_inequality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        # Well-separated singular values so the cutoff is unambiguous.
        ra, rb = rng.integers(1, 4), rng.integers(1, 4)
        a = (rng.standard_normal((4, ra)) @ rng.standard_normal((ra, 4))).astype(complex)
        b = (rng.standard_normal((4, rb)) @ rng.standard_normal((rb, 4))).astype(complex)
        assert numerical_rank(a @ b) <= min(numerical_rank(a), numerical_rank(b))


def test_rank_unitary_invariance():
    rng = np.random.default_rng(11)
    for k in range(100):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(4, 2 * k)
        w = random_unitary(4, 2 * k + 1)
        assert numerical_rank(u @ a @ w) == numerical_rank(a)


def test_is_hermitian_examples():
    assert _hermitian_half(SIGMA[2], TOL)[0]
    assert not _hermitian_half(np.array([[0, 1], [0, 0]], dtype=complex), TOL)[0]


def test_is_hermitian_reads_a_stack_as_its_matrices():
    # The dagger is over the last two axes: a stack passes when each matrix does.
    stack = np.array([SIGMA[1], SIGMA[2], SIGMA[3]])
    assert _hermitian_half(stack, TOL)[0]
    stack[1, 0, 1] += 2 * TOL.eq_abs
    assert not _hermitian_half(stack, TOL)[0]
    assert np.array_equal(_hermitian_half(stack, TOL)[1], stack / 2)


@given(st.integers(0, 2**32 - 1))
def test_is_hermitian_by_construction(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert _hermitian_half(b + b.conj().T, TOL)[0]
    assert validate_density(b + b.conj().T).hermitian


def test_is_hermitian_requires_square():
    with pytest.raises(ShapeError):
        validate_density(np.zeros((2, 3)))


# The unitarity check: from_unitary alone makes it, and raises linalg's
# UnitarityError.


def test_check_unitary_returns_complex_matrix():
    out = from_unitary(np.eye(2, dtype=int)).unitary
    assert out.dtype == complex and np.array_equal(out, np.eye(2))
    u = random_unitary(3, 4)
    assert np.array_equal(from_unitary(u).unitary, u)


def test_check_unitary_uses_eq_abs():
    near = np.diag([1.0, 1.0 + 1e-8])
    with pytest.raises(UnitarityError):
        from_unitary(near)
    assert np.array_equal(from_unitary(near, Tolerance(eq_abs=1e-6)).unitary, near)


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(eq_abs=1e-6)], ids=["1e-10", "1e-6"])
def test_check_unitary_cutoff_is_eq_abs(tol, m):
    # U diag(1, ..., 1, sqrt(1 + x)) has ||AA^dag - I||_F = x exactly, up to
    # round-off far below the 1e-3 relative margin on either side of eq_abs.
    u = random_unitary(m, m)
    for x in (tol.eq_abs * (1 - 1e-3), tol.eq_abs * (1 + 1e-3)):
        a = u @ np.diag([1.0] * (m - 1) + [np.sqrt(1 + x)])
        if x < tol.eq_abs:
            assert np.array_equal(from_unitary(a, tol).unitary, a)
        else:
            with pytest.raises(UnitarityError):
                from_unitary(a, tol)


def test_check_unitary_rejects():
    with pytest.raises(ShapeError):
        from_unitary(np.zeros((2, 3)))
    # The dimension test comes before the unitarity test, and refuses 0 x 0.
    for a in (np.zeros((0, 0)), np.zeros((1, 1))):
        with pytest.raises(ValueError, match=f"dimension >= 2, got {len(a)}") as info:
            from_unitary(a)
        assert type(info.value) is ValueError
    with pytest.raises(UnitarityError, match="AA"):
        from_unitary(np.array([[1, 1], [0, 1]]))


@pytest.mark.parametrize(
    "a", [np.diag([1e308, 1e308]), np.diag([1e200, 1e-200])], ids=["1e308", "1e200_1e-200"]
)
def test_check_unitary_rejects_overflowing_defect(a):
    # A A^dag overflows, so the defect is NaN or Inf: that fails the test too,
    # and raises without a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnitarityError, match="not unitary"):
            from_unitary(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_unitary_rejects_non_finite_entries(bad):
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN or Inf") as info:
            from_unitary(u)
    assert not isinstance(info.value, UnitarityError)
    # The finite-entry scan still comes before the shape check.
    with pytest.raises(ValueError, match="NaN or Inf"):
        from_unitary(np.full((2, 3), bad))


def _rotated_spectrum(kind: str, d: int, eq_abs: float, seed: int) -> np.ndarray:
    """U diag(lam) U^dag for a random unitary U and a spectrum of the given kind."""
    rng = np.random.default_rng(seed)
    lam = np.zeros(d)
    if kind == "pure":
        lam[0] = 1.0
    elif kind == "half_rank":
        lam[: d // 2] = rng.dirichlet(np.ones(d // 2))
    else:
        lam[1:] = rng.dirichlet(np.ones(d - 1))
        lam[0] = {"below_cutoff": -eq_abs * (1 + 1e-3), "above_cutoff": -eq_abs * (1 - 1e-3),
                  "round_off": -1e-14}[kind]
    u = random_unitary(d, 1000 + seed)
    return (u * lam) @ u.conj().T


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(eq_abs=1e-6)], ids=["default", "eq1e-6"])
@pytest.mark.parametrize("d", [4, 9, 36, 64])
@pytest.mark.parametrize(
    "kind", ["below_cutoff", "above_cutoff", "round_off", "pure", "half_rank"]
)
def test_psd_decision_matches_the_smallest_eigenvalue(kind, d, tol):
    for seed in range(4):
        rho = _rotated_spectrum(kind, d, tol.eq_abs, seed)
        expected = np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -tol.eq_abs
        assert expected == (kind != "below_cutoff")
        report = validate_density(rho, tol)
        assert report.psd == expected


def test_validate_density_rejects_an_empty_matrix():
    # A 0 x 0 report would have no smallest eigenvalue to read, so
    # classify_state would fail later with an IndexError.
    with pytest.raises(ShapeError, match="must not be empty"):
        validate_density(np.zeros((0, 0)))
    with pytest.raises(ShapeError, match="must not be empty"):
        classify_state(np.zeros((0, 0)), 0, 3)


def test_validate_density_maximally_mixed():
    report = validate_density(np.eye(4) / 4.0)
    assert report.ok and report.min_eigenvalue >= 0.24


def test_validate_density_rho_zero_boundary():
    report = validate_density(rho_zero(np.sqrt(2)))
    assert report.hermitian and report.unit_trace and report.psd


def test_validate_density_negative_eigenvalue():
    report = validate_density(np.diag([1.5, -0.5]).astype(complex))
    assert report.unit_trace
    assert not report.psd
    # The eigenvalue is computed on first read only, from the read-only
    # symmetrised state.
    assert "min_eigenvalue" not in vars(report)
    assert not report.symmetrized.flags.writeable
    assert report.min_eigenvalue == pytest.approx(-0.5)
    assert "min_eigenvalue" in vars(report)


@pytest.mark.parametrize("d", [4, 9, 64])
def test_symmetrized_is_the_hermitian_part_bit_for_bit(d):
    rng = np.random.default_rng(d)
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for a in (rho, rho + rho.conj().T, random_unitary(d, d)):
        report = validate_density(a)
        assert np.array_equal(report.symmetrized, (a + a.conj().T) / 2)
        assert report.hermitian == _hermitian_half(a, TOL)[0]


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(eq_abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=1.5)
    # An infinite eq_abs would zero every rank; a NaN one fails every comparison.
    for eq_abs in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="eq_abs must be positive and finite"):
            Tolerance(eq_abs=eq_abs)
