"""Tests of the benchmark itself: its references, its failure accounting and
its output format. Run from the repository root with

    python3 -m pytest vnbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re

import numpy as np
import pytest

import run

run.import_program()

import inputs  # noqa: E402
import workloads  # noqa: E402
from vnlift import bloch, basis as vbasis, classify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (4, 3), (6, 6), (8, 4)])
@pytest.mark.parametrize("kind", ["cq", "qc", "cc", "generic"])
def test_reference_bloch_coefficients_match_decompose(m, n, kind):
    rng = np.random.default_rng([m, n])
    rho = inputs.STATE_KINDS[kind](rng, m, n)
    bf = bloch.decompose(rho, vbasis.gell_mann_basis(m), vbasis.gell_mann_basis(n))
    r, s, t = inputs.bloch_reference(rho, m, n)
    for got, want in ((bf.R, r), (bf.S, s), (bf.T, t)):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_reference_basis_is_the_canonical_basis(m):
    diff = inputs.gell_mann_stack(m) - vbasis.gell_mann_basis(m).stack()
    assert np.max(np.abs(diff)) <= 1e-15


def test_inputs_depend_only_on_the_seed(tmp_path):
    wl = workloads.ScreenLarge(run.ROOT, tmp_path)
    first, again, other = wl.setup(7), wl.setup(7), wl.setup(8)
    assert all(np.array_equal(a.rho, b.rho) for a, b in zip(first, again))
    assert not all(np.array_equal(a.rho, b.rho) for a, b in zip(first, other))


def one_pass(workload, layers, items):
    tally = run.Tally(workloads.KNOWN_DEFECTS)
    run.measure(workload, layers, items, workload.references(items), 0.0, tally)
    return tally


def test_planted_wrong_verdict_counts_as_failure(tmp_path):
    wl = workloads.ScreenSmall(run.ROOT, tmp_path)
    items = workloads.make_states(np.random.default_rng(0), [(2, 2, "cc", 3), (3, 3, "cq", 2)])
    layers = workloads.Layers()
    assert one_pass(wl, layers, items).failed == 0

    def always_ruled_out(bf):
        return dataclasses.replace(classify.check_classical_quantum(bf), ruled_out=True)

    layers.check_classical_quantum = always_ruled_out
    tally = one_pass(wl, layers, items)
    assert tally.attempted == tally.failed == tally.unexpected == 5
    assert tally.codes["false_ruleout"] == 5


def test_planted_nonzero_exit_counts_as_failure(tmp_path):
    wl = workloads.CliCold(run.ROOT, tmp_path)
    items = [workloads.CliInput("missing", ("classify", "--json", str(tmp_path / "missing.json")))]
    tally = one_pass(wl, workloads.Layers(), items)
    assert tally.attempted == tally.failed == tally.unexpected == 1
    assert tally.codes["exit_code"] == 1


def test_known_defect_is_counted_but_not_unexpected():
    tally = run.Tally(workloads.KNOWN_DEFECTS)
    tally.add([(workloads.DAKIC_N_LT_M, "dakic ruled out a cq state at 3x2")])
    tally.add([(workloads.DAKIC_N_LT_M, "x"), ("rank_mismatch", "y")])
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 2, 1)


def result(trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "lift", "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_the_benchmark_file(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    doc = result(trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names
    assert all(NAME.fullmatch(name) for name in doc["metrics"])
