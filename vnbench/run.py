"""vnlift benchmark: one workload, one seed, one closed-loop single-client run.

Run from the root of a vnlift checkout:

    python3 vnbench/run.py --workload screen_small --seed 1 --seconds 20 --trace 0

The workload's inputs are made from --seed. Operations run one at a time, in
one process (cli_cold starts one interpreter per operation), for --seconds
seconds, finishing the pass over the inputs that is under way. Every
operation's output is checked after its timed region. The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1. The lines before it record the environment, the
inputs, how each figure was taken and the failures found.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".vnbench"
# setup_s is the median of at least SETUP_REPEATS set-ups, repeated until
# SETUP_MIN_S seconds have gone into them, so that sub-second set-ups are
# timed often enough for their median to hold still.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# latency_tail_ms is the highest percentile with at least TAIL_BEYOND of the
# run's operations beyond it, capped at TAIL_MAX, taken in each pass and
# reported as the median over the passes. The percentile moves smoothly with
# the operation count, so runs with a few more or fewer operations do not jump
# between percentiles; the cap and the median keep out bursts of the shared
# machine's noise, which otherwise set the value.
TAIL_BEYOND = 10
TAIL_MAX = 95.0


def import_program():
    """vnlift from this checkout's src/, never from an installed copy."""
    init = ROOT / "src" / "vnlift" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; "
                         "run the benchmark from a vnlift checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import vnlift

    if Path(vnlift.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported vnlift from {vnlift.__file__}, not {init}")
    return vnlift


class Tally:
    """Counts of attempted and failed operations and what failed."""

    def __init__(self, known_defects):
        self.known_defects = known_defects
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.codes = Counter()
        self.details = []
        self.eigen_wins = 0
        self.searches = 0

    def add(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            codes = {code for code, _ in failures}
            self.codes.update(codes)
            if not codes <= self.known_defects:
                self.unexpected += 1
            if len(self.details) < 5:
                self.details.extend(f"{code}: {detail}" for code, detail in failures[:2])


def run_op(workload, layers, item, expected, tally: Tally) -> float:
    """Time one operation, then check its output; returns the latency in s."""
    start = perf_counter()
    try:
        output = workload.op(layers, item)
    except Exception as exc:  # a raised operation is a failed one; keep measuring
        latency = perf_counter() - start
        tally.add([("raised", f"{item.shape}: {type(exc).__name__}: {exc}")])
        return latency
    latency = perf_counter() - start
    try:
        failures = workload.check(item, expected, output)
        wins, searches = workload.eigen_wins(expected, output)
    except (KeyError, TypeError, ValueError) as exc:  # output not in the documented form
        failures = [("malformed_output", f"{item.shape}: {type(exc).__name__}: {exc}")]
        wins = searches = 0
    tally.add(failures)
    tally.eigen_wins += wins
    tally.searches += searches
    return latency


def measure(workload, layers, items, refs, seconds: float, tally: Tally) -> list:
    """Passes over the inputs until ``seconds`` have gone by; latencies per pass."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append([run_op(workload, layers, item, expected, tally)
                       for item, expected in zip(items, refs)])
    return passes


def measure_traced(workload, plain, traced, tracer, items, refs, seconds: float, tally: Tally):
    """Each input runs twice, untraced and traced, in alternating order, so the
    tracing overhead is measured on the same inputs at the same time."""
    untraced_s = traced_s = 0.0
    ops = 0
    deadline = perf_counter() + seconds
    while ops == 0 or perf_counter() < deadline:
        for item, expected in zip(items, refs):
            for is_traced in ((False, True) if ops % 2 == 0 else (True, False)):
                if is_traced:
                    with tracer.operation(f"op.{workload.name}", ops):
                        traced_s += run_op(workload, traced, item, expected, tally)
                else:
                    untraced_s += run_op(workload, plain, item, expected, tally)
            ops += 1
            workload.probe(tracer)
    return ops / untraced_s, ops / traced_s


def tail(passes) -> tuple:
    """(percentile, value, operations beyond the value) for latency_tail_ms."""
    n = sum(len(lat) for lat in passes)
    p = max(50.0, min(TAIL_MAX, 100.0 * (n - TAIL_BEYOND) / n))
    value = statistics.median(percentile(sorted(lat), p) for lat in passes)
    return p, value, sum(x > value for lat in passes for x in lat)


def percentile(ordered, p: float) -> float:
    """Linear interpolation between closest ranks of sorted data."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_sha() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    """BLAS library, version and the thread count it is using (not changed here)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment(args, workload, items) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_per_pass": len(items),
        "inputs": workload.describe(items),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, layer_names, tally: Tally, ops_per_s: tuple) -> dict:
    totals = tracer.layer_totals()
    out = {}
    for name in layer_names:
        calls, busy = totals.get(name, (0, 0.0))
        out[f"{name}.self_ms"] = metric(busy * 1e3, "ms")
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.ms_per_call"] = metric(busy * 1e3 / calls if calls else 0.0, "ms")
    out["sampler.invariance_search.eigen_win_frac"] = metric(
        tally.eigen_wins / tally.searches if tally.searches else 0.0, "ratio")

    def median_ms(name):
        durations = [end - start for span, start, end, _, _ in tracer.spans if span == name]
        return statistics.median(durations) * 1e3 if durations else 0.0

    interpreter = median_ms("cli.probe.interpreter")
    numpy_import = median_ms("cli.probe.numpy")
    vnlift_import = median_ms("cli.probe.vnlift")
    command = median_ms("cli.main")
    out["cli.interpreter_ms"] = metric(interpreter, "ms")
    out["cli.numpy_import_ms"] = metric(numpy_import - interpreter if numpy_import else 0.0, "ms")
    out["cli.vnlift_import_ms"] = metric(vnlift_import - numpy_import if vnlift_import else 0.0, "ms")
    out["cli.command_ms"] = metric(command - vnlift_import if command else 0.0, "ms")
    untraced, traced = ops_per_s
    out["trace.ops_per_s_untraced"] = metric(untraced, "1/s")
    out["trace.ops_per_s_traced"] = metric(traced, "1/s")
    out["trace.overhead_ops_per_s"] = metric(untraced - traced, "1/s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them, each in a process of its own")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    if args.workload == "all":
        argv = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = 0
        for name in workloads.WORKLOADS:
            sys.stdout.flush()
            done = subprocess.run([sys.executable, __file__, "--workload", name, *argv])
            status = status or done.returncode
        return status
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, WORKDIR)
    plain = workloads.Layers()

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        start = perf_counter()
        items = workload.setup(args.seed)
        workload.warm_up(plain, items)
        setup_times.append(perf_counter() - start)
    refs = workload.references(items)
    tally = Tally(workloads.KNOWN_DEFECTS)

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(args, workload, items), sort_keys=True))

    if args.trace:
        tracer = Tracer()
        traced = workloads.Layers(tracer)
        rates = measure_traced(workload, plain, traced, tracer, items, refs, args.seconds, tally)
        metrics = layer_metrics(tracer, workloads.LAYER_NAMES, tally, rates)
        trace_path = WORKDIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        passes = measure(workload, plain, items, refs, args.seconds, tally)
        latencies = [x for lat in passes for x in lat]
        # Each input's median latency over the passes, so that a stretch of
        # the run in which the shared machine was slow does not set the rate.
        typical = [statistics.median(per_input) for per_input in zip(*passes)]
        p, tail_s, beyond = tail(passes)
        metrics = {
            "ops_per_s": metric(len(typical) / sum(typical), "1/s"),
            "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": metric(tail_s * 1e3, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(resource.getrusage(workload.rusage_who).ru_maxrss / 1024.0, "MB"),
        }
        print(f"ops_per_s: {len(items)} inputs at their median latency over {len(passes)} passes")
        print(f"latency_tail_ms: p{p:.4g}, median over {len(passes)} passes; "
              f"{beyond} of {len(latencies)} operations beyond it")
        print(f"setup_s: median of {len(setup_times)} set-ups: "
              + ", ".join(f"{t:.4f}" for t in setup_times))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")

    print(f"fail_frac: {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for code, count in sorted(tally.codes.items()):
        known = " (known defect)" if code in workloads.KNOWN_DEFECTS else ""
        print(f"  {code}: {count}{known}")
    for detail in tally.details:
        print(f"  e.g. {detail}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
