#!/usr/bin/env python3
"""Regenerate the JSON fixtures and their golden classification reports.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from vnlift.cli import main, matrix_to_pairs  # noqa: E402
from tests.states import bell_diagonal_state, rho_zero  # noqa: E402

FIXDIR = os.path.join(ROOT, "fixtures")
GOLDDIR = os.path.join(FIXDIR, "golden")

CONVERSION_NOTE = (
    "Coefficients in reports use the unit-Hilbert-Schmidt-norm operator basis; "
    "relative to the conventional Pauli expansion, local vectors scale by "
    "sqrt(2) and correlations by 2. Ranks are unaffected."
)


def write_state(name, rho, m=2, n=2, note=None):
    doc = {"m": m, "n": n, "rho": matrix_to_pairs(rho)}
    if note:
        doc["note"] = note
    path = os.path.join(FIXDIR, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_unitary(name, u):
    doc = {"m": u.shape[0], "u": matrix_to_pairs(u)}
    with open(os.path.join(FIXDIR, name), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def golden_report(state_path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(["classify", state_path, "--json"])
    assert status == 0, f"classify failed on {state_path}"
    name = os.path.splitext(os.path.basename(state_path))[0] + ".report.json"
    with open(os.path.join(GOLDDIR, name), "w") as fh:
        fh.write(buf.getvalue())


def run():
    os.makedirs(GOLDDIR, exist_ok=True)
    states = {
        "rho0_x_sqrt2.json": rho_zero(np.sqrt(2.0)),
        "rho0_x_2.json": rho_zero(2.0),
        "rho0_x_10.json": rho_zero(10.0),
        "bell_t_0.5_0.3_0.json": bell_diagonal_state(0.5, 0.3, 0.0),
        "maximally_mixed_2x2.json": np.eye(4, dtype=complex) / 4.0,
    }
    for name, rho in states.items():
        path = write_state(name, rho, note=CONVERSION_NOTE)
        golden_report(path)
    write_unitary("hadamard2.json", np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
    print(f"wrote {len(states)} state fixtures and golden reports to {FIXDIR}")


if __name__ == "__main__":
    run()
