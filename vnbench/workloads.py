"""The benchmark's five workloads: their seeded inputs, one operation each,
and the checks on every operation's output.

A workload's ``op`` is the timed region; ``check`` runs after it, untimed,
and returns a list of failures as (code, detail) pairs. Codes listed in
KNOWN_DEFECTS are defects of the program that the benchmark reports in
``failed`` but does not treat as a broken run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs as ref

# The public functions the benchmark times, named <module>.<function>.
LAYER_NAMES = (
    "linalg.validate_density",
    "basis.gell_mann_basis",
    "bloch.decompose",
    "classify.check_classical_quantum",
    "classify.check_quantum_classical",
    "classify.check_classical_classical",
    "classify.dakic_condition",
    "sampler.invariance_search",
    "measurement.from_unitary",
    "measurement.lift_matrix",
    "measurement.build_C",
    "measurement.build_C0",
    "measurement.consistency_check",
    "linalg.numerical_rank",
)

SCREENS = ("classical_quantum", "quantum_classical", "classical_classical", "dakic")

# Screens that must not rule out a state classical by construction.
MUST_PASS = {
    "cq": ("classical_quantum", "dakic"),
    "qc": ("quantum_classical",),
    "cc": SCREENS,
    "generic": (),
    "entangled": (),
}

# dakic_condition uses the threshold min(m, n) where the Dakic-Vedral-Brukner
# condition it implements says m, so at n < m it rules out classical-quantum
# states it must pass.
DAKIC_N_LT_M = "dakic_false_ruleout_n_lt_m"
KNOWN_DEFECTS = frozenset({DAKIC_N_LT_M})

PROBES = (
    ("cli.probe.interpreter", "pass"),
    ("cli.probe.numpy", "import numpy"),
    ("cli.probe.vnlift", "import vnlift"),
)

ORACLE_TRIALS = 2000
CLASSICAL_RESIDUAL = 1e-10
RULED_OUT_RESIDUAL = 0.01


def python_process(root: Path, *args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter from ``root`` with vnlift importable from root/src."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          timeout=120)


class Layers:
    """The LAYER_NAMES functions as attributes named by function, plus
    ``python`` for a CLI process (span ``cli.main``), each wrapped in a span
    when a tracer is given."""

    def __init__(self, tracer=None):
        for qualified in LAYER_NAMES:
            module, func = qualified.split(".")
            fn = getattr(importlib.import_module(f"vnlift.{module}"), func)
            setattr(self, func, fn if tracer is None else tracer.wrap(qualified, fn))
        self.python = python_process if tracer is None else tracer.wrap("cli.main", python_process)


@dataclass
class StateInput:
    m: int
    n: int
    kind: str
    rho: np.ndarray
    seed: int = 0

    @property
    def shape(self) -> str:
        return f"{self.m}x{self.n}"


def make_states(rng: np.random.Generator, plan) -> list:
    """States for (m, n, kind, count) rows of ``plan``, in a seeded random order
    so that every stretch of a pass has the workload's mix."""
    states = []
    for m, n, kind, count in plan:
        for _ in range(count):
            rho = ref.STATE_KINDS[kind](rng, m, n)
            states.append(StateInput(m, n, kind, rho, int(rng.integers(2**31))))
    order = rng.permutation(len(states))
    return [states[i] for i in order]


def classify_state(layers: Layers, rho, m: int, n: int):
    """The in-process ``vnlift classify`` pipeline without file I/O."""
    report = layers.validate_density(rho)
    bf = layers.decompose(rho, layers.gell_mann_basis(m), layers.gell_mann_basis(n))
    verdicts = {
        "classical_quantum": layers.check_classical_quantum(bf),
        "quantum_classical": layers.check_quantum_classical(bf),
        "classical_classical": layers.check_classical_classical(bf),
        "dakic": layers.dakic_condition(bf),
    }
    return report, bf, verdicts


@dataclass
class StateReference:
    r: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ranks: dict
    eigen_residual: dict


def state_reference(item: StateInput, with_oracle: bool = False) -> StateReference:
    r, s, t = ref.bloch_reference(item.rho, item.m, item.n)
    eig = {}
    if with_oracle:
        eig = {side: ref.eigenbasis_residual(item.rho, item.m, item.n, side)
               for side in ("left", "right")}
    return StateReference(r, s, t, ref.screen_ranks(r, s, t), eig)


def verdict_failures(item: StateInput, expected_ranks: dict, verdicts: dict) -> list:
    """Ranks against the reference, and no rule-out of a class the state is in.

    ``verdicts`` maps screen name -> (ruled_out, rank, threshold)."""
    failures = []
    for screen in SCREENS:
        ruled_out, rank, threshold = verdicts[screen]
        if rank != expected_ranks[screen]:
            failures.append(("rank_mismatch",
                             f"{screen} rank {rank} != reference {expected_ranks[screen]}"))
        if ruled_out != (rank > threshold):
            failures.append(("verdict_inconsistent",
                             f"{screen} ruled_out={ruled_out} at rank {rank} / {threshold}"))
    for screen in MUST_PASS[item.kind]:
        if verdicts[screen][0]:
            code = "false_ruleout"
            if screen == "dakic" and item.n < item.m:
                code = DAKIC_N_LT_M
            failures.append((code, f"{screen} ruled out a {item.kind} state at {item.shape}"))
    return failures


class Workload:
    """Inputs from a seed, one timed operation per input, untimed checks."""

    name = ""
    # Whose peak resident set is the workload's: this process or the CLI processes.
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir

    def setup(self, seed: int) -> list:
        raise NotImplementedError

    def references(self, items) -> list:
        raise NotImplementedError

    def op(self, layers: Layers, item):
        raise NotImplementedError

    def check(self, item, expected, output) -> list:
        raise NotImplementedError

    def describe(self, items) -> dict:
        """Input counts per shape and kind, for the environment record."""
        return dict(sorted(Counter(f"{s.shape}:{s.kind}" for s in items).items()))

    def eigen_wins(self, expected, output) -> tuple:
        """(useful outcomes, attempts) of the oracle's candidate search."""
        return 0, 0

    def probe(self, tracer) -> None:
        """Extra traced measurement taken after each operation of a traced run."""

    def warm_up(self, layers: Layers, items) -> None:
        """One operation per distinct input shape, so lazy set-up is not timed."""
        seen = set()
        for item in items:
            if item.shape not in seen:
                seen.add(item.shape)
                self.op(layers, item)

    def rng(self, seed: int) -> np.random.Generator:
        """The workload's own stream for ``seed``, keyed by its name."""
        return np.random.default_rng([seed, *self.name.encode()])


class ScreenWorkload(Workload):
    plan: tuple = ()

    def setup(self, seed: int) -> list:
        return make_states(self.rng(seed), self.plan)

    def references(self, items) -> list:
        return [state_reference(item) for item in items]

    def op(self, layers, item):
        return classify_state(layers, item.rho, item.m, item.n)

    def check(self, item, expected, output) -> list:
        report, bf, verdicts = output
        failures = []
        if not report.ok:
            failures.append(("validate_rejected", f"valid {item.kind} state at {item.shape}"))
        err = max(float(np.max(np.abs(got - want), initial=0.0))
                  for got, want in ((bf.R, expected.r), (bf.S, expected.s), (bf.T, expected.t)))
        if not err <= 1e-10:
            failures.append(("bloch_mismatch", f"max |decompose - reference| = {err:.3e}"))
        failures += verdict_failures(item, expected.ranks, {
            name: (v.ruled_out, v.computed_rank, v.threshold) for name, v in verdicts.items()})
        return failures


def _plan(shapes, kinds, count):
    return tuple((m, n, kind, count) for m, n in shapes for kind in kinds)


class ScreenSmall(ScreenWorkload):
    name = "screen_small"
    plan = _plan(((2, 2), (2, 3), (3, 2), (3, 3), (4, 3)), ("cq", "qc", "cc", "generic"), 100)


class ScreenLarge(ScreenWorkload):
    name = "screen_large"
    plan = _plan(((6, 6), (8, 8), (8, 4)), ("cq", "qc", "cc", "generic"), 3)


class Oracle(ScreenWorkload):
    """classify --oracle 2000: the screens, then the invariance search on both sides."""

    name = "oracle"
    plan = _plan(((2, 2), (3, 3), (4, 4)), ("cq", "qc", "cc", "entangled"), 1)

    def references(self, items) -> list:
        return [state_reference(item, with_oracle=True) for item in items]

    def op(self, layers, item):
        screens = classify_state(layers, item.rho, item.m, item.n)
        searches = {
            side: layers.invariance_search(item.rho, item.m, item.n, side=side,
                                           trials=ORACLE_TRIALS, seed=item.seed)
            for side in ("left", "right")
        }
        return screens, searches

    def check(self, item, expected, output) -> list:
        screens, searches = output
        failures = super().check(item, expected, screens)
        verdicts = screens[2]
        side_screen = {"left": "classical_quantum", "right": "quantum_classical"}
        for side, rep in searches.items():
            best = rep.best_residual
            if rep.trials != ORACLE_TRIALS:
                failures.append(("oracle_trials", f"{side}: {rep.trials} trials"))
            if not best <= expected.eigen_residual[side] + 1e-12:
                failures.append(("oracle_missed_eigenbasis",
                                 f"{side}: best {best:.3e} > eigenbasis "
                                 f"{expected.eigen_residual[side]:.3e}"))
            if side in ref.CLASSICAL_SIDES[item.kind] and not best <= CLASSICAL_RESIDUAL:
                failures.append(("oracle_classical_residual",
                                 f"{side} of {item.kind} at {item.shape}: {best:.3e}"))
            if verdicts[side_screen[side]].ruled_out and not best > RULED_OUT_RESIDUAL:
                failures.append(("oracle_ruled_out_residual",
                                 f"{side} of {item.kind} at {item.shape}: {best:.3e}"))
        return failures

    def eigen_wins(self, expected, output) -> tuple:
        """(searches the reduced-state eigenbasis candidate won, searches)."""
        _, searches = output
        wins = sum(
            rep.best_residual >= expected.eigen_residual[side] * (1.0 - 1e-9) - 1e-14
            for side, rep in searches.items()
        )
        return wins, len(searches)


@dataclass
class UnitaryInput:
    m: int
    u: np.ndarray

    @property
    def shape(self) -> str:
        return f"m={self.m}"


class Lift(Workload):
    """Lift property sweep: the checks of acceptance criteria 3 and 4."""

    name = "lift"
    dims = (2, 3, 4, 6)
    per_dim = 100

    def setup(self, seed: int) -> list:
        rng = self.rng(seed)
        items = [UnitaryInput(m, ref.haar_unitary(rng, m))
                 for m in self.dims for _ in range(self.per_dim)]
        return [items[i] for i in rng.permutation(len(items))]

    def describe(self, items) -> dict:
        return dict(sorted(Counter(item.shape for item in items).items()))

    def references(self, items) -> list:
        return [ref.diagonal_lift(item.u) for item in items]

    def op(self, layers, item):
        basis = layers.gell_mann_basis(item.m)
        meas = layers.from_unitary(item.u)
        lifted = layers.lift_matrix(meas, basis)
        c = layers.build_C(item.u)
        c0 = layers.build_C0(item.u)
        ranks = (layers.numerical_rank(lifted.matrix), layers.numerical_rank(c),
                 layers.numerical_rank(c0))
        deviation = layers.consistency_check(meas, basis)
        return lifted.matrix, c, c0, ranks, deviation

    def check(self, item, expected, output) -> list:
        matrix, c, c0, ranks, deviation = output
        m = item.m
        failures = []
        defect = float(np.linalg.norm(matrix @ matrix - matrix))
        if not defect <= 1e-9:
            failures.append(("idempotency", f"m={m}: ||M^2 - M|| = {defect:.3e}"))
        if ranks != (m - 1,) * 3 or (ref.rank(c), ref.rank(c0)) != (m - 1,) * 2:
            failures.append(("lift_rank", f"m={m}: ranks (M, C, C0) = {ranks}"))
        for label, got, want in (("M", matrix, expected.T @ expected), ("C", c, expected)):
            err = float(np.max(np.abs(got - want)))
            if not err <= 1e-10:
                failures.append(("lift_mismatch", f"m={m}: {label} off by {err:.3e}"))
        if not deviation <= 1e-10:
            failures.append(("consistency", f"m={m}: deviation {deviation:.3e}"))
        return failures


@dataclass
class CliInput:
    """One ``python -m vnlift`` command and what its output must be."""

    label: str
    args: tuple
    golden: bytes = b""
    state: StateInput | None = None
    unitary: np.ndarray | None = None

    @property
    def shape(self) -> str:
        return self.label


class CliCold(Workload):
    """Fresh interpreter per command, one at a time."""

    name = "cli_cold"
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, workdir: Path):
        super().__init__(root, workdir)
        self._probes = itertools.cycle(PROBES)

    def setup(self, seed: int) -> list:
        rng = self.rng(seed)
        fixtures = self.root / "fixtures"
        outdir = self.workdir / f"cli-seed{seed}"
        outdir.mkdir(parents=True, exist_ok=True)
        items = []
        for golden in sorted((fixtures / "golden").glob("*.report.json")):
            state = fixtures / golden.name.replace(".report", "")
            items.append(CliInput(state.stem, ("classify", "--json", str(state)),
                                  golden=golden.read_bytes()))
        for m, kind in ((4, "cq"), (8, "generic")):
            item = StateInput(m, m, kind, ref.STATE_KINDS[kind](rng, m, m))
            path = outdir / f"state_{m}x{m}.json"
            path.write_text(json.dumps({"m": m, "n": m, "rho": ref.matrix_to_pairs(item.rho)}))
            items.append(CliInput(path.stem, ("classify", "--json", str(path)), state=item))
        hadamard = fixtures / "hadamard2.json"
        doc = json.loads(hadamard.read_text())
        u = (np.asarray(doc["u"])[:, 0] + 1j * np.asarray(doc["u"])[:, 1]).reshape(doc["m"], doc["m"])
        items.append(CliInput(hadamard.stem, ("lift", str(hadamard)), unitary=u))
        u4 = ref.haar_unitary(rng, 4)
        path = outdir / "unitary_4.json"
        path.write_text(json.dumps({"m": 4, "u": ref.matrix_to_pairs(u4)}))
        items.append(CliInput(path.stem, ("lift", str(path)), unitary=u4))
        return items

    def describe(self, items) -> dict:
        return {item.label: item.args[0] for item in items}

    def warm_up(self, layers, items) -> None:
        self.op(layers, items[0])

    def references(self, items) -> list:
        out = []
        for item in items:
            if item.state is not None:
                out.append(state_reference(item.state).ranks)
            elif item.unitary is not None:
                d = ref.diagonal_lift(item.unitary)
                out.append(d.T @ d)
            else:
                out.append(None)
        return out

    def op(self, layers, item):
        return layers.python(self.root, "-m", "vnlift", *item.args)

    def probe(self, tracer) -> None:
        """The next of interpreter start, numpy import and vnlift import on its
        own, so the traced run can split a cold command's time into those
        parts; interleaved with the commands, so drift affects all alike."""
        name, code = next(self._probes)
        result = tracer.wrap(name, python_process)(self.root, "-c", code)
        if result.returncode != 0:
            raise RuntimeError(f"probe {code!r} exited {result.returncode}")

    def check(self, item, expected, output) -> list:
        if output.returncode != 0:
            return [("exit_code", f"{item.label}: exit {output.returncode}: "
                                  f"{output.stderr.decode(errors='replace').strip()[-200:]}")]
        if item.golden:
            if output.stdout != item.golden:
                return [("golden_mismatch", f"{item.label}: report differs from golden")]
            return []
        try:
            doc = json.loads(output.stdout)
        except json.JSONDecodeError as exc:
            return [("bad_json", f"{item.label}: {exc}")]
        if item.state is not None:
            return verdict_failures(item.state, expected, {
                screen: (v["ruled_out"], v["rank"], v["threshold"])
                for screen, v in doc["checks"].items()})
        m = item.unitary.shape[0]
        failures = []
        if doc["dim"] != m or doc["rank"] != m - 1 or not doc["idempotency_defect"] <= 1e-9:
            failures.append(("lift_report", f"{item.label}: dim {doc['dim']} rank {doc['rank']} "
                                            f"defect {doc['idempotency_defect']}"))
        err = float(np.max(np.abs(np.asarray(doc["matrix"]) - expected)))
        if not err <= 1e-10:
            failures.append(("lift_mismatch", f"{item.label}: matrix off by {err:.3e}"))
        return failures


WORKLOADS = {w.name: w for w in (ScreenSmall, ScreenLarge, Oracle, Lift, CliCold)}
