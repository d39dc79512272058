import importlib.util
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_rank_sweep():
    spec = importlib.util.spec_from_file_location(
        "rank_sweep", os.path.join(ROOT, "scripts", "rank_sweep.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_sweep(module, monkeypatch, *dims):
    monkeypatch.setattr(
        sys, "argv", ["rank_sweep.py", "--samples", "3", "--dims", *map(str, dims)]
    )
    return module.main()


def test_rank_sweep_passes_on_the_library(monkeypatch):
    assert run_sweep(load_rank_sweep(), monkeypatch, 2, 3) == 0


def test_rank_sweep_fails_when_any_dimension_fails(monkeypatch):
    module = load_rank_sweep()
    real_rank = module.numerical_rank

    def rank_wrong_at_m2(a, *args, **kwargs):
        # The m = 2 lift is the only 3x3 matrix the sweep ranks.
        if np.shape(a) == (3, 3):
            return 0
        return real_rank(a, *args, **kwargs)

    monkeypatch.setattr(module, "numerical_rank", rank_wrong_at_m2)
    assert run_sweep(module, monkeypatch, 2, 3) == 1
