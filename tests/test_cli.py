import dataclasses
import glob
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from vnlift import (__version__, BellDiagonalVerdict, basis, cli, gell_mann_basis,
                    pauli_gell_mann_basis, random_classical_quantum, random_density, sampler)
from vnlift.cli import main, matrix_to_pairs, pairs_to_matrix
from tests.conftest import near_hermitian

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXDIR = os.path.join(ROOT, "fixtures")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(list(argv))
    return status, buf.getvalue()


def test_pairs_round_trip():
    a = np.array([[1 + 2j, 0], [3, -4j]], dtype=complex)
    assert np.array_equal(pairs_to_matrix(matrix_to_pairs(a), 2, 2), a)


def test_basis_subcommand_matches_generator():
    status, out = run_cli("basis", "2")
    assert status == 0
    doc = json.loads(out)
    b = gell_mann_basis(2)
    assert [e["label"] for e in doc["elements"]] == list(b.labels)
    for entry, el in zip(doc["elements"], b.elements):
        assert np.allclose(pairs_to_matrix(entry["matrix"], 2, 2), el)


def test_basis_too_large_to_allocate_exits_2(monkeypatch, capsys):
    # What gell_mann_basis(1500) raises, without allocating anything.
    def unallocatable(m):
        raise MemoryError(f"Unable to allocate 73.7 TiB for the basis of dimension {m}")

    monkeypatch.setattr(cli, "gell_mann_basis", unallocatable)
    status, out = run_cli("basis", "1500")
    assert status == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: Unable to allocate 73.7 TiB for the basis of dimension 1500\n")


def test_basis_into_a_closed_pipe_exits_141_silently():
    # basis 8 prints about 208 KB, more than a pipe holds, so closing the read
    # end after a few bytes always fails a write.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "vnlift", "basis", "8"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141 and err == b""


def test_small_output_into_a_closed_pipe_exits_141_silently():
    # lift's report fits in stdout's buffer, so the broken pipe surfaces only
    # when that buffer is flushed; the read end is closed before the start.
    # PYTHONUNBUFFERED would make print itself fail, so it is dropped.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "vnlift", "lift",
                               os.path.join(FIXDIR, "hadamard2.json")], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


def test_lift_subcommand_hadamard():
    status, out = run_cli("lift", os.path.join(FIXDIR, "hadamard2.json"))
    assert status == 0
    doc = json.loads(out)
    assert doc["rank"] == 1
    assert doc["idempotency_defect"] <= 1e-12


def test_classify_text_output():
    path = os.path.join(FIXDIR, "rho0_x_2.json")
    status, out = run_cli("classify", path)
    assert status == 0
    assert out.splitlines() == [
        f"state: {path} (2 x 2)",
        "classical-quantum   : RULED-OUT    (rank 2 > 1)",
        "quantum-classical   : RULED-OUT    (rank 2 > 1)",
        "classical-classical : INCONCLUSIVE (rank 2 <= 2)",
        "dakic baseline      : INCONCLUSIVE (rank 2 <= 2)",
        "tolerances: rank_rel=1e-09 eq_abs=1e-10",
    ]


def test_classify_json_deterministic():
    path = os.path.join(FIXDIR, "rho0_x_sqrt2.json")
    _, first = run_cli("classify", path, "--json")
    _, second = run_cli("classify", path, "--json")
    assert first == second


def test_classify_with_oracle():
    status, out = run_cli(
        "classify", os.path.join(FIXDIR, "bell_t_0.5_0.3_0.json"),
        "--oracle", "50", "--json",
    )
    assert status == 0
    doc = json.loads(out)
    for side in ("left", "right"):
        rep = doc["oracle"][side]
        assert rep["best_residual"] > 0.01
        assert rep["trials"] == 50
        assert rep["best_trial"] is None or 0 <= rep["best_trial"] < 50
        assert rep["eigenbasis_residual"] >= rep["best_residual"]
        if rep["best_trial"] is None:
            assert rep["eigenbasis_residual"] == rep["best_residual"]
    status, out = run_cli(
        "classify", os.path.join(FIXDIR, "bell_t_0.5_0.3_0.json"), "--oracle", "50",
    )
    assert status == 0
    assert "won by" in out and "eigenbasis residual" in out


def test_golden_reports_round_trip(tmp_path):
    goldens = sorted(glob.glob(os.path.join(FIXDIR, "golden", "*.report.json")))
    assert goldens
    for golden in goldens:
        name = os.path.basename(golden).replace(".report", "")
        state = os.path.join(FIXDIR, name)
        with open(golden) as fh:
            expected = fh.read()
        # Every golden state is valid, so skipping validation changes no byte.
        for options in ((), ("--no-validate",)):
            _, out = run_cli("classify", state, "--json", *options)
            assert out == expected
        # Multiplying by 4 is exact and C is linear in rho, so the state with its
        # pairs x4, under the same name, reads the same ranks unvalidated.
        with open(state) as fh:
            doc = json.load(fh)
        doc["rho"] = [[4 * x for x in pair] for pair in doc["rho"]]
        scaled = tmp_path / name
        scaled.write_text(json.dumps(doc))
        _, out = run_cli("classify", str(scaled), "--json", "--no-validate")
        assert out == expected, name


def test_bell_subcommand():
    status, out = run_cli("bell", "0.5", "0.3", "0")
    assert status == 0
    assert "quantum-quantum      : True" in out
    assert "separable            : True" in out


def test_bell_subcommand_invalid_state_exits_2():
    status, _ = run_cli("bell", "1", "1", "1")
    assert status == 2


@pytest.mark.parametrize("t", [("nan", "0", "0"), ("0", "0", "inf")])
def test_bell_subcommand_non_finite_exits_2(capsys, t):
    status, _ = run_cli("bell", *t)
    assert status == 2
    assert "finite" in capsys.readouterr().err


def test_classify_missing_file_exits_2():
    status, _ = run_cli("classify", "does_not_exist.json")
    assert status == 2


def test_classify_invalid_density_exits_2(tmp_path, capsys):
    rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "rho": matrix_to_pairs(rho)}))
    status, _ = run_cli("classify", str(path))
    assert status == 2
    assert capsys.readouterr().err == (
        "error: state fails density validation: hermitian=True unit_trace=True "
        "psd=False (min eigenvalue -5.000e-01)\n"
    )
    # The escape hatch admits deliberately invalid inputs.
    status, _ = run_cli("classify", str(path), "--no-validate")
    assert status == 0


def test_classify_overflowing_state_fails_density_validation(tmp_path, capsys):
    # Finite entries whose sum rho + rho^dag, and whose trace, would overflow
    # to inf. pytest turns a numpy RuntimeWarning into an error, so neither
    # may warn before the CLI's one error line.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "rho": [[1e308, 0.0]] * 16}))
    status, out = run_cli("classify", str(path))
    assert status == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: state fails density validation: hermitian=True unit_trace=False ")
    assert err.count("\n") == 1


# Finite 2 x 2-system states whose entries are near the float limit: all 1e308,
# and zero but for rho[0, 1] = 1e308 + 1e308j and rho[1, 0] = -1e308 + 1e308j,
# whose rho - rho^dag overflows. A Hermitian state at 1e200 screens, unvalidated,
# but its oracle search would overflow.
HUGE_PAIRS = [[1e308, 0.0]] * 16
NON_HERMITIAN_HUGE_PAIRS = [[1e308, 1e308] if k == 1 else [-1e308, 1e308] if k == 4
                            else [0.0, 0.0] for k in range(16)]
HUGE_HERMITIAN_PAIRS = matrix_to_pairs(1e200 * random_density(4, 3))


@pytest.mark.parametrize(
    "pairs,flags,error",
    [
        (HUGE_PAIRS, ["--no-validate"], "matrix contains NaN or Inf entries\n"),
        (NON_HERMITIAN_HUGE_PAIRS, [], "state fails density validation: hermitian=False "),
        (NON_HERMITIAN_HUGE_PAIRS, ["--no-validate"], "state is not Hermitian within tolerance\n"),
        (HUGE_HERMITIAN_PAIRS, ["--no-validate", "--oracle", "50", "--json"],
         "state too large for the invariance search: "),
    ],
    ids=["huge_no_validate", "non_hermitian", "non_hermitian_no_validate", "oracle_json"],
)
def test_classify_huge_state_exits_2_with_one_error_line(tmp_path, capsys, pairs, flags, error):
    # pytest turns a numpy RuntimeWarning into an error, so nothing may warn
    # before the CLI's one error line.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "rho": pairs}))
    status, out = run_cli("classify", str(path), *flags)
    assert status == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: " + error) and err.count("\n") == 1


def test_classify_reads_a_near_hermitian_state_as_its_hermitian_part(tmp_path):
    # Within eq_abs of Hermitian, so it validates; the report, oracle included,
    # is that of the symmetrised state, written to a file of the same name.
    near = near_hermitian(random_density(4, 11), 11)
    paths = []
    for name, rho in (("near", near), ("sym", (near + near.conj().T) / 2.0)):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "state.json")
        paths[-1].write_text(json.dumps({"m": 2, "n": 2, "rho": matrix_to_pairs(rho)}))
    for flags in ([], ["--oracle", "50"]):
        outputs = []
        for path in paths:
            status, out = run_cli("classify", str(path), "--json", *flags)
            assert status == 0
            outputs.append(out)
        assert outputs[0] == outputs[1], flags


def test_classify_oracle_agrees_with_the_screens_off_hermitian(tmp_path):
    # A classical-quantum state plus an anti-Hermitian part of order 1e-2,
    # unvalidated under a loose eq_abs: the screens read its Hermitian part and
    # pass it, and the oracle finds that part's generating basis.
    rho = near_hermitian(random_classical_quantum(2, 2, 75), 75, 1e8)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "rho": matrix_to_pairs(rho)}))
    status, out = run_cli("classify", str(path), "--no-validate", "--tol-eq", "0.1",
                          "--oracle", "2000", "--json")
    assert status == 0
    doc = json.loads(out)
    assert not doc["checks"]["classical_quantum"]["ruled_out"]
    assert doc["oracle"]["left"]["best_residual"] <= 1e-10


def test_dump_refuses_a_non_finite_number():
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._dump({"best_residual": float("inf")})


def test_lift_non_unitary_exits_2(tmp_path):
    path = tmp_path / "nonunitary.json"
    path.write_text(json.dumps({"m": 2, "u": matrix_to_pairs(np.ones((2, 2)))}))
    status, _ = run_cli("lift", str(path))
    assert status == 2


def test_lift_violating_the_invariants_exits_1(tmp_path, capsys):
    # Unitary within a loose --tol-eq, but its lift is not a rank-1 projector.
    path = tmp_path / "near_identity.json"
    path.write_text(json.dumps({"m": 2, "u": matrix_to_pairs(np.array([[1, 0.01], [0, 1]]))}))
    status, out = run_cli("lift", str(path), "--tol-eq", "0.1")
    assert status == 1 and json.loads(out)["rank"] == 2
    assert capsys.readouterr().err == (
        "error: lifted matrix violates structural invariants (defect 9.999e-05, rank 2)\n")
    status, _ = run_cli("lift", str(path))
    assert status == 2


def test_lift_one_by_one_unitary_names_the_measurement(tmp_path, capsys):
    path = tmp_path / "phase.json"
    path.write_text(json.dumps({"m": 1, "u": [[1.0, 0.0]]}))
    status, out = run_cli("lift", str(path))
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: a measurement needs dimension >= 2, got 1\n"


def test_lift_overflowing_unitary_exits_2(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"m": 2, "u": matrix_to_pairs(np.diag([1e308, 1e308]))}))
    status, out = run_cli("lift", str(path))
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: matrix is not unitary: ||AA^dag - I||_F = nan\n"


DEEP = "[" * 100_000 + "]" * 100_000 + "}"
TRUNCATED_STATE = '{"m": 2, "n": 2, "rho": [[1, 0]'


@pytest.mark.parametrize(
    "command,text,flags",
    [("classify", '{"m": 2, "n": 2, "rho": ' + DEEP, ()),
     ("classify", '{"m": 2, "n": 2, "rho": ' + DEEP, ("--no-validate",)),
     ("lift", '{"m": 2, "u": ' + DEEP, ()),
     ("classify", TRUNCATED_STATE, ()),
     ("lift", TRUNCATED_STATE, ())],
    ids=["classify", "classify_no_validate", "lift", "classify_truncated", "lift_truncated"],
)
def test_deeply_nested_json_exits_2_with_one_error_line(tmp_path, capsys, command, text, flags):
    # json.load raises RecursionError on a document nested this deep, and
    # JSONDecodeError on a truncated one; either error line names the file.
    path = tmp_path / "refused.json"
    path.write_text(text)
    status, out = run_cli(command, str(path), *flags)
    assert status == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "command,path", [("classify", "rho0_x_2.json"), ("lift", "hadamard2.json")])
def test_non_finite_tol_eq_exits_2(capsys, command, path, value):
    status, out = run_cli(command, os.path.join(FIXDIR, path), "--tol-eq", value)
    assert status == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: eq_abs must be positive and finite, got {value}\n")


MAXIMALLY_MIXED_PAIRS = matrix_to_pairs(np.eye(4) / 4.0)


@pytest.mark.parametrize(
    "command,doc,named",
    [
        ("classify", [1, 2], "JSON object"),
        ("classify", {"m": None, "n": 2, "rho": MAXIMALLY_MIXED_PAIRS}, "'m'"),
        ("classify", {"m": 2.5, "n": 2, "rho": MAXIMALLY_MIXED_PAIRS}, "'m'"),
        ("classify", {"m": 2, "n": True, "rho": MAXIMALLY_MIXED_PAIRS}, "'n'"),
        ("classify", {"m": 2, "n": 2, "rho": [{}] * 16}, "pairs"),
        ("classify", {"m": -1, "n": 2, "rho": MAXIMALLY_MIXED_PAIRS}, "'m'"),
        ("classify", {"m": 0, "n": 2, "rho": []}, "'m'"),
        ("classify", {"m": 2, "n": -2, "rho": MAXIMALLY_MIXED_PAIRS}, "'n'"),
        ("lift", [1, 2], "JSON object"),
        ("lift", {"m": -1, "u": matrix_to_pairs(np.eye(2))}, "'m'"),
        ("lift", {"m": 0, "u": []}, "'m'"),
    ],
    ids=["state_array", "m_null", "m_float", "n_bool", "rho_objects", "m_negative", "m_zero",
         "n_negative", "lift_array", "lift_m_negative", "lift_m_zero"],
)
def test_malformed_document_exits_2(tmp_path, capsys, command, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    status, _ = run_cli(*command.split(), str(path))
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_lift_dim_is_an_unknown_option(capsys):
    # lift reads the dimension from the file's 'm' only.
    status, out = run_cli("lift", os.path.join(FIXDIR, "hadamard2.json"), "--dim", "2")
    assert status == 2 and out == ""
    assert "error: unrecognized arguments: --dim 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,doc,key",
    [("classify", {"m": 2, "n": 2}, "rho"), ("lift", {"m": 2}, "u")],
    ids=["classify", "lift"],
)
@pytest.mark.parametrize(
    "spoil",
    [
        lambda pairs: [[str(x) for x in pair] for pair in pairs],
        lambda pairs: [[bool(x) for x in pair] for pair in pairs],
        lambda pairs: [[str(pairs[0][0]), pairs[0][1]]] + pairs[1:],
        lambda pairs: [[10**400, pairs[0][1]]] + pairs[1:],
    ],
    ids=["strings", "booleans", "mixed", "int_beyond_float"],
)
def test_pairs_that_are_not_numbers_exit_2(tmp_path, capsys, command, doc, key, spoil):
    # Read as numbers, each spoilt document but the last is a valid state or
    # unitary.
    pairs = MAXIMALLY_MIXED_PAIRS if command == "classify" else matrix_to_pairs(np.eye(2))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**doc, key: spoil(pairs)}))
    status, out = run_cli(command, str(path))
    assert status == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: [re, im] pairs must hold numbers")


def test_classify_names_a_wrong_number_of_pairs(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "rho": MAXIMALLY_MIXED_PAIRS[:15]}))
    status, _ = run_cli("classify", str(path))
    assert status == 2
    assert capsys.readouterr().err == "error: expected 16 [re, im] pairs, got shape (15, 2)\n"


def test_parser_exits_are_returned(capsys):
    status, _ = run_cli("classify", os.path.join(FIXDIR, "rho0_x_2.json"), "--no-such-option")
    assert status == 2
    assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
    status, out = run_cli("--version")
    assert status == 0 and out == f"vnlift {__version__}\n"


@pytest.mark.parametrize(
    "command,doc,missing",
    [
        ("classify", {"n": 2, "rho": MAXIMALLY_MIXED_PAIRS}, "m"),
        ("classify", {"m": 2, "rho": MAXIMALLY_MIXED_PAIRS}, "n"),
        ("classify", {"m": 2, "n": 2}, "rho"),
        ("lift", {"m": 2}, "u"),
    ],
)
def test_missing_key_is_named(tmp_path, capsys, command, doc, missing):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    status, _ = run_cli(command, str(path))
    assert status == 2
    assert capsys.readouterr().err == f"error: {path}: missing key {missing!r}\n"


def test_tight_tol_eq_does_not_reject_the_library_basis():
    # Basis validity is checked once at DEFAULT_TOL, independent of --tol-eq.
    status, _ = run_cli(
        "classify", os.path.join(FIXDIR, "maximally_mixed_2x2.json"), "--tol-eq", "1e-20"
    )
    assert status == 0


def test_tolerance_flags_are_echoed():
    _, out = run_cli(
        "classify", os.path.join(FIXDIR, "rho0_x_2.json"),
        "--tol-rank", "1e-6", "--json",
    )
    assert json.loads(out)["tolerances"]["rank_rel"] == 1e-6


@pytest.mark.slow
def test_selftest_passes():
    status, out = run_cli("selftest", "--seed", "1")
    assert status == 0
    assert "FAIL" not in out and out.endswith("9/9 checks passed\n")


@pytest.mark.slow
def test_selftest_fails_when_one_dimension_fails(monkeypatch):
    real_rank = cli.numerical_rank

    def rank_wrong_at_m2(a, *args, **kwargs):
        # The m = 2 lift is the only 3x3 matrix that selftest ranks.
        return 0 if np.shape(a) == (3, 3) else real_rank(a, *args, **kwargs)

    monkeypatch.setattr(cli, "numerical_rank", rank_wrong_at_m2)
    status, out = run_cli("selftest")
    assert status == 1
    lift_rows = [line for line in out.splitlines() if line.startswith("lift ")]
    assert [row.split(":")[0] for row in lift_rows] == [
        f"lift m={m}, 500 unitaries" for m in (2, 3, 4, 6, 8)]
    assert [row.split()[-1] for row in lift_rows] == ["FAIL", "PASS", "PASS", "PASS", "PASS"]


@pytest.fixture
def broken_basis(monkeypatch):
    # Off-diagonal elements of norm sqrt(2): gell_mann_basis now builds a
    # basis that is not orthonormal.
    gell_mann_basis.cache_clear()
    pauli_gell_mann_basis.cache_clear()
    monkeypatch.setattr(basis, "_SQRT2", 1.0)
    yield
    monkeypatch.undo()
    gell_mann_basis.cache_clear()
    pauli_gell_mann_basis.cache_clear()


def test_selftest_fails_on_broken_basis(broken_basis, capsys):
    # The first lift row builds the basis, which refuses itself before the
    # table prints.
    status, out = run_cli("selftest")
    assert status == 2 and out == ""
    err = capsys.readouterr().err
    assert "orthonormal" in err and err.count("\n") == 1


def _ruling_out(name, every=1):
    """cli.classify_state, but with verdict ``name`` ruled out on every
    ``every``-th call, counting from the first."""
    real = cli.classify_state
    calls = itertools.count()

    def fake(*args, **kwargs):
        verdicts = real(*args, **kwargs)
        if next(calls) % every == 0:
            verdicts[name] = dataclasses.replace(verdicts[name], ruled_out=True)
        return verdicts

    return fake


@pytest.mark.parametrize(
    "target,fake,row",
    [
        # selftest classifies a classical-quantum state, then a classical-classical
        # one, in turn; only the classical-classical row reads quantum_classical.
        ("classify_state", lambda: _ruling_out("classical_quantum", every=2),
         "no false rule-outs on constructed classical-quantum states"),
        ("classify_state", lambda: _ruling_out("quantum_classical"),
         "no false rule-outs on constructed classical-classical states"),
        ("invariance_search", lambda: lambda *args, **kwargs: SimpleNamespace(best_residual=1.0),
         "invariance oracle finds the generating basis"),
        ("classify_bell_diagonal",
         lambda: lambda spec, tol: BellDiagonalVerdict(separable=True, nonzero_correlations=3),
         "Bell-diagonal classification on reference points"),
    ],
    ids=["classical_quantum", "classical_classical", "oracle", "bell"],
)
def test_selftest_row_fails_alone(monkeypatch, target, fake, row):
    monkeypatch.setattr(cli, "_LIFT_SAMPLES", 1)
    monkeypatch.setattr(cli, target, fake())
    status, out = run_cli("selftest")
    assert status == 1
    lines = out.splitlines()
    assert [line.rsplit(None, 1)[0] for line in lines if line.endswith("  FAIL")] == [row]
    assert lines[-1] == "8/9 checks passed"


def _never_called(*args, **kwargs):
    raise AssertionError("ran before the seed and trial count were checked")


@pytest.mark.parametrize(
    "argv,target",
    [
        (("classify", os.path.join(FIXDIR, "rho0_x_2.json"), "--oracle", "5", "--seed", "-1"),
         "classify_state"),
        (("selftest", "--seed", "-1"), "lift_matrix"),
        # The seed is refused even when no search would read it.
        (("classify", os.path.join(FIXDIR, "rho0_x_2.json"), "--seed", "-1"), "classify_state"),
    ],
    ids=["classify_oracle", "selftest", "classify_no_oracle"],
)
def test_negative_seed_exits_2(monkeypatch, capsys, argv, target):
    # Refused before any screen, lift or search runs.
    monkeypatch.setattr(cli, target, _never_called)
    status, out = run_cli(*argv)
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


def test_negative_trial_count_exits_2_before_the_screens(monkeypatch, capsys):
    monkeypatch.setattr(cli, "classify_state", _never_called)
    status, out = run_cli("classify", os.path.join(FIXDIR, "rho0_x_2.json"), "--oracle", "-3")
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: trials must be at least 1\n"


def test_oracle_report_is_the_same_from_a_warm_candidate_set(tmp_path):
    path = tmp_path / "state3x3.json"
    path.write_text(json.dumps({"m": 3, "n": 3, "rho": matrix_to_pairs(random_density(9, 63))}))
    sampler._one_chunk_candidates.cache_clear()
    _, cold = run_cli("classify", str(path), "--oracle", "2000", "--json")
    assert sampler._one_chunk_candidates.cache_info().hits == 1
    _, warm = run_cli("classify", str(path), "--oracle", "2000", "--json")
    assert sampler._one_chunk_candidates.cache_info().hits == 3
    assert json.loads(cold)["oracle"]["left"]["best_trial"] is not None
    assert warm == cold
