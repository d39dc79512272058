import copy
import dataclasses
import pickle
import sys
import threading
import types

import numpy as np
import pytest

from vnlift import (
    DEFAULT_TOL,
    BasisError,
    HermitianBasis,
    LiftedMeasurement,
    ShapeError,
    Tolerance,
    UnitarityError,
    VonNeumannMeasurement,
    build_C,
    build_C0,
    consistency_check,
    from_unitary,
    gell_mann_basis,
    lift_matrix,
    numerical_rank,
    random_unitary,
)
from vnlift import measurement
from vnlift.measurement import MAX_CONSISTENCY_RESIDUAL, MAX_IDEMPOTENCY_DEFECT
from tests.bases import pauli_gell_mann_basis

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def closed_form_C(a):
    """The paper's (C1, C2, C3): cumulative |a|^2 differences, then
    sqrt(2) Re(a*_k a_l) and -sqrt(2) Im(a*_k a_l) over k < l lexicographic."""
    m = a.shape[0]
    absq = np.abs(a) ** 2
    cols = []
    for p in range(1, m):
        cols.append((absq[:, :p].sum(axis=1) - p * absq[:, p]) * np.sqrt(1.0 / (p * (p + 1))))
    pairs = [(k, l) for k in range(m) for l in range(k + 1, m)]
    for k, l in pairs:
        cols.append(np.sqrt(2.0) * (a[:, k].conj() * a[:, l]).real)
    for k, l in pairs:
        # i(a*_k a_l - a*_l a_k)/sqrt(2) evaluates to -sqrt(2) Im(a*_k a_l)
        cols.append(-np.sqrt(2.0) * (a[:, k].conj() * a[:, l]).imag)
    return np.column_stack(cols)


def closed_form_C0(a):
    """alpha_i = |a_0|^2 - |a_i|^2, then beta_kl = a*_k a_l over ordered k != l."""
    m = a.shape[0]
    absq = np.abs(a) ** 2
    cols = [absq[:, 0] - absq[:, i] for i in range(1, m)]
    for k in range(m):
        for l in range(m):
            if k != l:
                cols.append(a[:, k].conj() * a[:, l])
    return np.column_stack(cols).astype(complex)


def projectors(meas):
    """(m, m, m) array whose slice i is |phi_i><phi_i| for the rows phi_i of the unitary."""
    u = meas.unitary
    return u[:, :, np.newaxis] * u.conj()[:, np.newaxis, :]


def test_from_unitary_computational_basis():
    meas = from_unitary(np.eye(2))
    proj = projectors(meas)
    assert np.allclose(proj[0], np.diag([1.0, 0.0]))
    assert np.allclose(proj[1], np.diag([0.0, 1.0]))


def test_from_unitary_hadamard():
    proj = projectors(from_unitary(HADAMARD))
    plus = np.full((2, 2), 0.5)
    assert np.allclose(proj[0], plus)
    assert np.allclose(proj[1], np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_from_unitary_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        from_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_from_unitary_keeps_what_it_checked():
    # The measurement holds a read-only copy, so editing the input afterwards
    # cannot make the lift of a checked measurement lose idempotency.
    u = random_unitary(2, 0)
    meas = from_unitary(u)
    before, defect = meas.unitary.copy(), lift_matrix(meas, gell_mann_basis(2)).idempotency_defect
    u[0, 0] = 5
    assert np.array_equal(meas.unitary, before) and not np.shares_memory(meas.unitary, u)
    assert lift_matrix(meas, gell_mann_basis(2)).idempotency_defect == defect
    assert defect <= MAX_IDEMPOTENCY_DEFECT


def test_hadamard_measurement_annihilates_sigma3():
    # In the basis (sigma_1, sigma_2, sigma_3)/sqrt(2) the lift maps sigma_3 to zero.
    lifted = lift_matrix(from_unitary(HADAMARD), pauli_gell_mann_basis(2))
    assert np.max(np.abs(lifted.matrix[:, 2])) <= 1e-12


def test_lift_m2_computational_pauli_order():
    lifted = lift_matrix(from_unitary(np.eye(2)), pauli_gell_mann_basis(2))
    assert np.max(np.abs(lifted.matrix - np.diag([0.0, 0.0, 1.0]))) <= 1e-12
    assert numerical_rank(lifted.matrix) == 1


def test_lift_m3_computational_gell_mann_order():
    lifted = lift_matrix(from_unitary(np.eye(3)), pauli_gell_mann_basis(3))
    expected = np.diag([0.0, 0, 1, 0, 0, 0, 0, 1])
    assert np.max(np.abs(lifted.matrix - expected)) <= 1e-12
    assert numerical_rank(lifted.matrix) == 2


def test_lift_random_unitary_m4():
    lifted = lift_matrix(from_unitary(random_unitary(4, 42)), gell_mann_basis(4))
    assert lifted.idempotency_defect < 1e-10
    assert numerical_rank(lifted.matrix) == 3


def test_lift_rejects_dimension_mismatch():
    with pytest.raises(ShapeError):
        lift_matrix(from_unitary(np.eye(2)), gell_mann_basis(3))


def test_measurement_reads_its_dimension_from_the_unitary():
    # A measurement has its unitary's dimension, so a basis of another
    # dimension is refused by name before numpy sees the two shapes.
    meas = from_unitary(np.eye(2))
    assert meas.dim == 2
    for apply in (lift_matrix, consistency_check):
        with pytest.raises(ShapeError, match="basis dim 3 != measurement dim 2"):
            apply(meas, gell_mann_basis(3))
    assert [f.name for f in dataclasses.fields(VonNeumannMeasurement)] == ["unitary"]
    assert [f.name for f in dataclasses.fields(LiftedMeasurement)] == ["matrix"]


def test_measurement_records_have_one_constructor_each():
    # from_unitary and lift_matrix are the only ways in: calling either class
    # or dataclasses.replace would skip the checks behind them.
    meas = from_unitary(HADAMARD)
    lifted = lift_matrix(meas, gell_mann_basis(2))
    for record, cls, field in ((meas, VonNeumannMeasurement, "unitary"),
                               (lifted, LiftedMeasurement, "matrix")):
        value = getattr(record, field)
        for build in (cls, lambda: cls(value), lambda: cls(**{field: value}),
                      lambda: cls(np.array([[1, 2], [3, 4]])),
                      lambda: dataclasses.replace(record),
                      lambda: dataclasses.replace(record, **{field: value})):
            with pytest.raises(TypeError):
                build()
        # A shallow copy shares the checked, read-only array.
        twin = copy.copy(record)
        assert type(twin) is cls and twin is not record and getattr(twin, field) is value
    assert copy.copy(meas).dim == 2


def test_copied_and_pickled_records_stay_checked_and_read_only():
    meas = from_unitary(random_unitary(3, 5))
    lifted = lift_matrix(meas, gell_mann_basis(3))
    from_unitary(HADAMARD)  # meas is no longer from_unitary's last measurement
    for twin in (pickle.loads(pickle.dumps(meas)), copy.deepcopy(meas)):
        assert type(twin) is VonNeumannMeasurement and twin.unitary is not meas.unitary
        assert np.array_equal(twin.unitary, meas.unitary)
        assert not twin.unitary.flags.writeable and twin.unitary.flags.c_contiguous
    for twin in (pickle.loads(pickle.dumps(lifted)), copy.deepcopy(lifted)):
        assert type(twin) is LiftedMeasurement and twin.matrix is not lifted.matrix
        assert np.array_equal(twin.matrix, lifted.matrix) and not twin.matrix.flags.writeable
    # A shallow copy still shares the read-only array.
    assert copy.copy(meas).unitary is meas.unitary
    assert copy.copy(lifted).matrix is lifted.matrix and not lifted.matrix.flags.writeable


def test_an_unpickled_measurement_is_checked_again(monkeypatch):
    # A record that skipped from_unitary, as a pickle from elsewhere could
    # hold, is refused when it is loaded or deep-copied.
    forged = object.__new__(VonNeumannMeasurement)
    object.__setattr__(forged, "unitary", np.array([[1.0, 2.0], [3.0, 4.0]]))
    data = pickle.dumps(forged)
    with pytest.raises(UnitarityError, match="not unitary"):
        pickle.loads(data)
    with pytest.raises(UnitarityError, match="not unitary"):
        copy.deepcopy(forged)
    # A valid one is checked once on loading, by the one gate.
    data = pickle.dumps(from_unitary(random_unitary(4, 6)))
    from_unitary(HADAMARD)
    checks = []

    def counted(x):
        checks.append(x)
        return np.sqrt(x)

    monkeypatch.setattr(measurement, "math", types.SimpleNamespace(sqrt=counted))
    loaded = pickle.loads(data)
    assert len(checks) == 1 and measurement._last[1] is loaded
    assert loaded.dim == 4 and not loaded.unitary.flags.writeable


def test_lift_rejects_non_orthonormal_basis():
    # A non-orthonormal basis never reaches lift_matrix: construction rejects it.
    b = gell_mann_basis(2)
    with pytest.raises(BasisError):
        bad = HermitianBasis(elements=(2 * b.elements[0],) + b.elements[1:], labels=b.labels)
        lift_matrix(from_unitary(np.eye(2)), bad)


@pytest.mark.parametrize("m", [4, 8])
def test_lift_accepts_every_basis_that_construction_accepts(m):
    # i eps (J - I) is anti-Hermitian with |a - a^dag| = 2 eps <= eq_abs, so the
    # basis is built. D's imaginary part then reaches eps (m - 1) on a row of
    # the Fourier matrix, above eq_abs, and the lift reads D's real part.
    eps = 4.9e-11
    b = gell_mann_basis(m)
    tilted = b.elements[0] + 1j * eps * (np.ones((m, m)) - np.eye(m))
    near = HermitianBasis(elements=(tilted,) + b.elements[1:], labels=b.labels)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
    d = measurement._coefficients(from_unitary(fourier), near)
    assert np.abs(d.imag).max() > DEFAULT_TOL.eq_abs
    for u in (fourier, random_unitary(m, 5), random_unitary(m, 6)):
        meas = from_unitary(u)
        lifted = lift_matrix(meas, near)
        assert lifted.idempotency_defect <= MAX_IDEMPOTENCY_DEFECT
        assert numerical_rank(lifted.matrix) == m - 1
        assert consistency_check(meas, near) <= MAX_CONSISTENCY_RESIDUAL


def test_lift_takes_no_tolerance():
    # The basis was checked when it was built; the lift has nothing to tolerate.
    with pytest.raises(TypeError):
        lift_matrix(from_unitary(HADAMARD), gell_mann_basis(2), DEFAULT_TOL)


def test_lift_basis_covariance():
    rng = np.random.default_rng(3)
    meas = from_unitary(random_unitary(3, 21))
    b = gell_mann_basis(3)
    m_canonical = lift_matrix(meas, b).matrix
    v = rng.standard_normal(8)
    o = np.eye(8) - 2.0 * np.outer(v, v) / (v @ v)
    rotated = HermitianBasis(
        elements=tuple(np.einsum("iab,ij->jab", b.stack(), o)),
        labels=tuple(f"rotated({j})" for j in range(8)),
    )
    m_rotated = lift_matrix(meas, rotated).matrix
    assert np.allclose(m_rotated, o.T @ m_canonical @ o, atol=1e-10)


def test_build_C_identity_m2():
    c = build_C(np.eye(2))
    expected = np.array([[1 / np.sqrt(2), 0, 0], [-1 / np.sqrt(2), 0, 0]])
    assert np.allclose(c, expected)
    assert numerical_rank(c) == 1


def test_build_C0_identity_m2():
    c0 = build_C0(np.eye(2))
    expected = np.array([[1.0, 0, 0], [-1.0, 0, 0]], dtype=complex)
    assert c0.dtype == np.complex128 and np.allclose(c0, expected)
    assert numerical_rank(c0) == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_C_and_C0_rank_and_row_sums(m):
    for k in range(25):
        u = random_unitary(m, 100 * m + k)
        c = build_C(u)
        c0 = build_C0(u)
        assert c.shape == (m, m * m - 1)
        assert c0.shape == (m, m * m - 1)
        assert numerical_rank(c) == m - 1
        assert numerical_rank(c0) == m - 1
        assert np.max(np.abs(c.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(c0.sum(axis=0))) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_coefficient_matrices_match_closed_form(m):
    basis = gell_mann_basis(m)
    for k in range(25):
        u = random_unitary(m, 1000 * m + k)
        c = build_C(u)
        assert np.max(np.abs(c - closed_form_C(u))) <= 1e-12
        assert np.array_equal(build_C0(u), closed_form_C0(u))
        lifted = lift_matrix(from_unitary(u), basis).matrix
        assert np.max(np.abs(lifted - c.T @ c)) <= 1e-12


def test_coefficient_matrices_reject_dimension_one():
    # from_unitary is the one gate, and the coefficient matrices go through it.
    for build in (from_unitary, build_C, build_C0):
        with pytest.raises(ValueError, match="dimension >= 2, got 1"):
            build(np.eye(1))


def test_coefficient_matrices_take_no_tolerance():
    # They check through from_unitary at its default tolerance.
    for build in (build_C, build_C0):
        with pytest.raises(TypeError):
            build(HADAMARD, DEFAULT_TOL)


def test_build_C_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        build_C(np.ones((2, 2)))
    with pytest.raises(UnitarityError):
        build_C0(np.ones((2, 2)))


def test_consistency_check_fixed_bases():
    b = gell_mann_basis(2)
    assert consistency_check(from_unitary(np.eye(2)), b) <= 1e-12
    assert consistency_check(from_unitary(HADAMARD), b) <= 1e-12


def test_consistency_check_rejects_a_basis_of_another_dimension():
    with pytest.raises(ShapeError, match="basis dim 3 != measurement dim 2"):
        consistency_check(from_unitary(HADAMARD), gell_mann_basis(3))


def test_consistency_check_random_m4():
    meas = from_unitary(random_unitary(4, 77))
    assert consistency_check(meas, gell_mann_basis(4)) <= 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_consistency_check_any_orthonormal_basis(m):
    basis = pauli_gell_mann_basis(m)
    for k in range(10):
        meas = from_unitary(random_unitary(m, 300 * m + k))
        assert consistency_check(meas, basis) <= 1e-10


def test_consistency_check_does_not_read_coefficients(monkeypatch):
    # The definition side must not go through D, or a wrong D would agree with itself.
    meas = from_unitary(random_unitary(3, 11))
    basis = gell_mann_basis(3)
    assert consistency_check(meas, basis) <= 1e-10
    exact = measurement._coefficients

    def perturbed(meas, elements):
        d = exact(meas, elements).copy()
        d[0, 0] += 1e-6
        return d

    monkeypatch.setattr(measurement, "_coefficients", perturbed)
    assert consistency_check(meas, basis) >= 1e-7


def test_from_unitary_serves_a_byte_identical_input_its_last_measurement(monkeypatch):
    monkeypatch.setattr(measurement, "_last", None)
    u = random_unitary(3, 31)
    meas = from_unitary(u)
    assert from_unitary(u.copy()) is meas and from_unitary(u.tolist()) is meas
    assert from_unitary(u, Tolerance(eq_abs=DEFAULT_TOL.eq_abs)) is meas


def test_one_unitary_is_checked_once_across_the_measurement_functions(monkeypatch):
    # Each unitarity check takes the square root of the defect ||AA^dag - I||_F^2 once.
    monkeypatch.setattr(measurement, "_last", None)
    checks = []

    def counted(x):
        checks.append(x)
        return np.sqrt(x)

    monkeypatch.setattr(measurement, "math", types.SimpleNamespace(sqrt=counted))
    u = random_unitary(4, 35)
    meas = from_unitary(u)
    build_C(u), build_C0(u)
    assert len(checks) == 1 and from_unitary(u) is meas
    from_unitary(random_unitary(4, 36))
    assert len(checks) == 2


def test_from_unitary_checks_any_other_input_afresh(monkeypatch):
    monkeypatch.setattr(measurement, "_last", None)
    u = random_unitary(2, 32)
    meas = from_unitary(u)
    edited = u.copy()
    edited[0, 0] *= 2
    with pytest.raises(UnitarityError):
        from_unitary(edited)
    # The key is the content, not the layout: a Fortran-ordered copy is served
    # the same measurement, whose unitary is C-ordered.
    assert from_unitary(np.asfortranarray(u)) is meas and meas.unitary.flags.c_contiguous
    # -0.0 equals 0.0 but has other bytes, so it is checked again.
    eye = from_unitary(np.eye(2))
    signed = np.eye(2, dtype=complex)
    signed[0, 1] = -0.0
    assert from_unitary(signed) is not eye
    assert from_unitary(u) is not meas
    # A matrix accepted at a looser eq_abs is still refused at the default
    # right after, and one accepted at the default is refused at a stricter one.
    for defect, loose, strict in ((1e-8, 1e-6, DEFAULT_TOL.eq_abs),
                                  (1e-11, DEFAULT_TOL.eq_abs, 1e-12)):
        near = np.diag([1.0 + defect, 1.0])
        assert from_unitary(near, Tolerance(eq_abs=loose)).dim == 2
        with pytest.raises(UnitarityError):
            from_unitary(near, Tolerance(eq_abs=strict))


def test_from_unitary_never_serves_a_refused_matrix(monkeypatch):
    monkeypatch.setattr(measurement, "_last", None)
    u = random_unitary(2, 33)
    meas = from_unitary(u)
    bad = np.array([[1, 1], [0, 1]], dtype=complex)
    for build in (from_unitary, build_C, build_C0, from_unitary):
        with pytest.raises(UnitarityError):
            build(bad)
    assert from_unitary(u) is meas


def test_coefficients_are_formed_once_per_measurement_and_basis(monkeypatch):
    monkeypatch.setattr(measurement, "_last", None)
    calls = []
    outer_rows = measurement._outer_rows

    def counted(u):
        calls.append(len(u))
        return outer_rows(u)

    monkeypatch.setattr(measurement, "_outer_rows", counted)
    u = random_unitary(3, 34)
    meas = from_unitary(u)
    canonical, textbook = gell_mann_basis(3), pauli_gell_mann_basis(3)
    for _ in range(2):
        lift_matrix(meas, canonical)
        c = build_C(u)
        consistency_check(meas, canonical)
    assert calls == [3]
    lift_matrix(meas, textbook)
    consistency_check(meas, textbook)
    lift_matrix(meas, canonical)
    assert calls == [3, 3]
    # C is a read-only view of the shared D.
    d = measurement._coefficients(meas, canonical)
    assert not d.flags.writeable and not c.flags.writeable and np.shares_memory(c, d)
    assert calls == [3, 3]


def test_an_evicted_measurement_forms_its_coefficients_afresh(monkeypatch):
    monkeypatch.setattr(measurement, "_last", None)
    calls = []
    outer_rows = measurement._outer_rows

    def counted(u):
        calls.append(len(u))
        return outer_rows(u)

    monkeypatch.setattr(measurement, "_outer_rows", counted)
    basis = gell_mann_basis(3)
    meas = from_unitary(random_unitary(3, 36))
    kept = lift_matrix(meas, basis).matrix.tobytes(), consistency_check(meas, basis)
    assert calls == [3]
    from_unitary(np.eye(3))
    for _ in range(2):
        assert lift_matrix(meas, basis).matrix.tobytes() == kept[0]
        assert consistency_check(meas, basis) == kept[1]
    assert calls == [3] * 5


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_kept_results_match_a_fresh_evaluation_bit_for_bit(monkeypatch, m):
    monkeypatch.setattr(measurement, "_last", None)
    basis = gell_mann_basis(m)

    def evaluate(u):
        meas = from_unitary(u)
        return (lift_matrix(meas, basis).matrix, build_C(u), build_C0(u),
                consistency_check(meas, basis))

    for k in range(5):
        u = random_unitary(m, 400 * m + k)
        first, kept = evaluate(u), evaluate(u)
        from_unitary(np.eye(m))
        fresh = evaluate(u)
        for a, b, c in zip(first, kept, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes() == np.asarray(c).tobytes()
        # A measurement the slot does not hold keeps nothing, and forms the
        # same M and deviation.
        plain = from_unitary(u)
        from_unitary(np.eye(m))
        assert lift_matrix(plain, basis).matrix.tobytes() == first[0].tobytes()
        assert consistency_check(plain, basis) == first[3]


def test_from_unitary_serves_each_thread_its_own_matrix(monkeypatch):
    # The kept measurement and its D are shared by every caller in the process;
    # a race may cost a second check or product but must never hand one thread
    # another's matrix or C.
    monkeypatch.setattr(measurement, "_last", None)
    unitaries = [random_unitary(3, 500 + k) for k in range(4)]
    expected = [build_C(u).tobytes() for u in unitaries]
    wrong = []

    def work(u, c):
        for _ in range(300):
            if not np.array_equal(from_unitary(u).unitary, u) or build_C(u).tobytes() != c:
                wrong.append(u)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(u, c))
                   for u, c in zip(unitaries * 2, expected * 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong
