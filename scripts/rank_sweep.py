#!/usr/bin/env python3
"""Sweep random measurement unitaries and summarize the structural
properties of their lifted matrices (idempotency defect, rank, and the
coefficient-matrix rank agreement).

Usage:  python3 scripts/rank_sweep.py [--samples N] [--dims 2 3 4] [--seed S]
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from vnlift import (  # noqa: E402
    build_C,
    build_C0,
    consistency_check,
    from_unitary,
    gell_mann_basis,
    lift_matrix,
    numerical_rank,
    random_unitary,
)
from vnlift.measurement import MAX_CONSISTENCY_RESIDUAL, MAX_IDEMPOTENCY_DEFECT  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'m':>3} {'samples':>8} {'max defect':>12} {'rank ok':>8} "
          f"{'C=C0 rank':>10} {'max consist':>12}")
    all_ok = True
    for m in args.dims:
        basis = gell_mann_basis(m)
        defects, consist = [], []
        rank_ok = c_ok = 0
        for k in range(args.samples):
            u = random_unitary(m, args.seed + 1_000_000 * m + k)
            meas = from_unitary(u)
            lifted = lift_matrix(meas, basis)
            defects.append(lifted.idempotency_defect)
            if numerical_rank(lifted.matrix) == m - 1:
                rank_ok += 1
            if numerical_rank(build_C(u)) == numerical_rank(build_C0(u)) == m - 1:
                c_ok += 1
            consist.append(consistency_check(meas, basis))
        print(f"{m:>3} {args.samples:>8} {max(defects):>12.3e} "
              f"{rank_ok:>5}/{args.samples} {c_ok:>7}/{args.samples} {max(consist):>12.3e}")
        all_ok &= (rank_ok == c_ok == args.samples
                   and max(defects) <= MAX_IDEMPOTENCY_DEFECT
                   and max(consist) <= MAX_CONSISTENCY_RESIDUAL)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
