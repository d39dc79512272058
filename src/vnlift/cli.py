"""Command-line interface: JSON matrix I/O and subcommands wiring the
measurement lift, basis dump, classifiers, and self-test together."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .basis import gell_mann_basis
from .classify import BellDiagonalSpec, classify_bell_diagonal, classify_state
from .linalg import DEFAULT_TOL, Tolerance, numerical_rank
from .measurement import (MAX_CONSISTENCY_RESIDUAL, MAX_IDEMPOTENCY_DEFECT, build_C, build_C0,
                          consistency_check, from_unitary, lift_matrix)
from .sampler import (InvarianceReport, _checked_seed, invariance_search,
                      random_classical_classical, random_classical_quantum, random_unitary)


def matrix_to_pairs(a: np.ndarray) -> list:
    """Row-major [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).ravel()]


def pairs_to_matrix(pairs, rows: int, cols: int) -> np.ndarray:
    """Row-major [re, im] pairs of JSON numbers as a rows x cols matrix; a
    string or a JSON true or false is not a number."""
    if not (isinstance(pairs, list) and all(
            isinstance(pair, list) and all(type(x) in (int, float) for x in pair)
            for pair in pairs)):
        raise ValueError("[re, im] pairs must hold numbers")
    try:
        arr = np.asarray(pairs, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"[re, im] pairs must hold numbers: {exc}") from None
    if arr.shape != (rows * cols, 2):
        raise ValueError(f"expected {rows * cols} [re, im] pairs, got shape {arr.shape}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def _load_object(path: str, keys) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def _dimension(value, name: str) -> int:
    """``value`` if it is a positive integer (a JSON true or false is not)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {json.dumps(value)}")
    return value


def load_state(path: str):
    doc = _load_object(path, ("m", "n", "rho"))
    m, n = _dimension(doc["m"], "'m'"), _dimension(doc["n"], "'n'")
    return m, n, pairs_to_matrix(doc["rho"], m * n, m * n)


def load_unitary(path: str) -> np.ndarray:
    doc = _load_object(path, ("m", "u"))
    m = _dimension(doc["m"], "'m'")
    return pairs_to_matrix(doc["u"], m, m)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


# Text-output label of each classify_state verdict.
_LABELS = {"classical_quantum": "classical-quantum", "quantum_classical": "quantum-classical",
           "classical_classical": "classical-classical", "dakic": "dakic baseline"}

# The JSON oracle entry holds every InvarianceReport field but the winning
# measurement, which is a matrix, not a scalar.
_ORACLE_FIELDS = tuple(f.name for f in dataclasses.fields(InvarianceReport)
                       if f.name != "best_measurement")


def _verdict_line(name: str, v) -> str:
    word = "RULED-OUT   " if v.ruled_out else "INCONCLUSIVE"
    rel = ">" if v.ruled_out else "<="
    return f"{_LABELS[name]:<20}: {word} (rank {v.computed_rank} {rel} {v.threshold})"


def cmd_basis(args) -> int:
    b = gell_mann_basis(args.m)
    doc = {
        "m": args.m,
        "elements": [
            {"label": lab, "matrix": matrix_to_pairs(el)}
            for lab, el in zip(b.labels, b.elements)
        ],
    }
    print(_dump(doc))
    return 0


def cmd_lift(args) -> int:
    tol = Tolerance(args.tol_rank, args.tol_eq)
    u = load_unitary(args.unitary)
    meas = from_unitary(u, tol)
    lifted = lift_matrix(meas, gell_mann_basis(meas.dim))
    rank = numerical_rank(lifted.matrix, tol)
    defect = lifted.idempotency_defect
    doc = {
        "dim": meas.dim,
        "matrix": [[float(x) for x in row] for row in lifted.matrix],
        "rank": rank,
        "idempotency_defect": defect,
    }
    print(_dump(doc))
    if defect > MAX_IDEMPOTENCY_DEFECT or rank != meas.dim - 1:
        print(
            f"error: lifted matrix violates structural invariants "
            f"(defect {defect:.3e}, rank {rank})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_classify(args) -> int:
    tol = Tolerance(args.tol_rank, args.tol_eq)
    # Refused by the search's own rules before any screen runs; 0 trials is no search.
    _checked_seed(args.seed, args.oracle or 1)
    m, n, rho = load_state(args.state)
    verdicts = classify_state(rho, m, n, tol, validate=not args.no_validate)
    oracle = {}
    if args.oracle:
        for side in ("left", "right"):
            oracle[side] = invariance_search(rho, m, n, side=side, trials=args.oracle,
                                             seed=args.seed)
    if args.json:
        doc = {
            "input": os.path.basename(args.state),
            "m": m,
            "n": n,
            "tolerances": {"rank_rel": tol.rank_rel, "eq_abs": tol.eq_abs},
            "checks": {
                name: {"ruled_out": v.ruled_out, "rank": v.computed_rank, "threshold": v.threshold}
                for name, v in verdicts.items()
            },
            "oracle": {side: {f: getattr(rep, f) for f in _ORACLE_FIELDS}
                       for side, rep in oracle.items()},
        }
        print(_dump(doc))
    else:
        print(f"state: {args.state} ({m} x {n})")
        for name, v in verdicts.items():
            print(_verdict_line(name, v))
        for side, rep in oracle.items():
            winner = "eigenbasis" if rep.best_trial is None else f"trial {rep.best_trial}"
            print(
                f"oracle {side:<5}: best residual {rep.best_residual:.3e} "
                f"over {rep.trials} trials (won by {winner}; "
                f"eigenbasis residual {rep.eigenbasis_residual:.3e})"
            )
        print(f"tolerances: rank_rel={tol.rank_rel:g} eq_abs={tol.eq_abs:g}")
    return 0


def cmd_bell(args) -> int:
    tol = Tolerance(args.tol_rank, args.tol_eq)
    spec = BellDiagonalSpec(args.t1, args.t2, args.t3)
    verdict = classify_bell_diagonal(spec, tol)
    print(f"t = ({args.t1:g}, {args.t2:g}, {args.t3:g})")
    print(f"nonzero correlations : {verdict.nonzero_correlations}")
    print(f"quantum-quantum      : {verdict.quantum_quantum}")
    print(f"separable            : {verdict.separable}")
    return 0


# Dimensions of the selftest lift rows, and random unitaries per row.
_SELFTEST_DIMS = (2, 3, 4, 6, 8)
_LIFT_SAMPLES = 500


def cmd_selftest(args) -> int:
    tol = DEFAULT_TOL
    seed = _checked_seed(args.seed)
    rows = []

    def record(name, ok):
        rows.append((name, ok))

    # Every lifted measurement M is idempotent, M and the coefficient matrices
    # C and C0 have rank m - 1, and the channel matches C.
    for m in _SELFTEST_DIMS:
        b = gell_mann_basis(m)
        ok = True
        worst_defect = worst_consist = 0.0
        for k in range(_LIFT_SAMPLES):
            u = random_unitary(m, seed + 1_000_000 * m + k)
            meas = from_unitary(u, tol)
            lifted = lift_matrix(meas, b)
            defect = lifted.idempotency_defect
            consist = consistency_check(meas, b)
            ranks = {numerical_rank(a, tol) for a in (lifted.matrix, build_C(u), build_C0(u))}
            ok = (ok and ranks == {m - 1} and defect <= MAX_IDEMPOTENCY_DEFECT
                  and consist <= MAX_CONSISTENCY_RESIDUAL)
            worst_defect = max(worst_defect, defect)
            worst_consist = max(worst_consist, consist)
        record(f"lift m={m}, {_LIFT_SAMPLES} unitaries: ranks M, C, C0 = m-1, "
               f"max defect {worst_defect:.3e}, max consistency {worst_consist:.3e}", ok)

    ok_cq = True
    ok_cc = True
    for k in range(50):
        verdicts = classify_state(random_classical_quantum(2, 2, seed + k), 2, 2, tol)
        if verdicts["classical_quantum"].ruled_out:
            ok_cq = False
        verdicts = classify_state(random_classical_classical(2, 2, seed + 1000 + k), 2, 2, tol)
        if any(verdicts[name].ruled_out
               for name in ("classical_quantum", "quantum_classical", "classical_classical")):
            ok_cc = False
    record("no false rule-outs on constructed classical-quantum states", ok_cq)
    record("no false rule-outs on constructed classical-classical states", ok_cc)

    rho = random_classical_quantum(2, 2, seed + 7)
    rep = invariance_search(rho, 2, 2, side="left", trials=50, seed=seed)
    record("invariance oracle finds the generating basis", rep.best_residual <= 1e-10)

    octahedron = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0)]
    ok_bell = all(
        not classify_bell_diagonal(BellDiagonalSpec(*t), tol).quantum_quantum
        for t in octahedron
    )
    ok_bell = ok_bell and classify_bell_diagonal(BellDiagonalSpec(0.5, 0.3, 0.0), tol).quantum_quantum
    record("Bell-diagonal classification on reference points", ok_bell)

    width = max(len(name) for name, _ in rows)
    failures = 0
    for name, ok in rows:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnlift",
        description="Lift von Neumann measurements to matrix form and screen "
        "bipartite states for nonzero quantum correlation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel,
                       help="relative singular-value cutoff for ranks")
        p.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq_abs,
                       help="absolute cutoff for matrix comparisons")

    p = sub.add_parser("basis", help="dump the canonical basis for dimension m")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("lift", help="lift a measurement unitary and report rank")
    p.add_argument("unitary")
    add_tol(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("classify", help="run the rank screens on a state file")
    p.add_argument("state")
    p.add_argument("--oracle", type=int, default=0, metavar="TRIALS",
                   help="also run the measurement-invariance search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-validate", action="store_true",
                   help="skip density validation of the input state")
    add_tol(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bell", help="classify a Bell-diagonal state by (t1, t2, t3)")
    p.add_argument("t1", type=float)
    p.add_argument("t2", type=float)
    p.add_argument("t3", type=float)
    add_tol(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("selftest", help="run the property corpus and print a table")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout, seen in a write or the flush above: exit 128 +
        # SIGPIPE, as a killed writer would; the final flush then goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, MemoryError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
