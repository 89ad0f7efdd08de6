"""rschur benchmark: run one workload, check every answer, print every metric.

    python3 bench/run.py --workload oracle_ladder --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree: the program is imported from ./src.
The workloads, and why each exists, are listed in BENCHMARK.json; which
end-to-end metric each per-layer metric should move is in
bench/layer_map.json.

A run repeats whole passes over the seeded operations until --seconds have
gone by.  With --trace 0 it reports the end-to-end metrics, tracing off,
each a median: over the passes (wall_s), over every operation run
(op_p50_s) and over SETUP_REPEATS fresh interpreters (setup_s).  With
--trace 1 it runs half its time untraced and half traced, reports the
per-layer metrics and the tracing overhead, and writes the spans to
.bench_out/.  Standard output holds an {"environment": ...} line, a
{"detail": ...} line and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 when every answer was right, 1 when a check failed, 2 when the
program cannot be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import NamedTuple

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 30
SETUP_TIMEOUT_S = 60.0
PARALLEL_REPEATS = 2
INDEX_M = (4, 6, 9)
INDEX_N = 60
FORMULA_M = range(3, 10)
FORMULA_N = 60
TRACED_LAYERS = ("colorings", "search", "bench")
CONSTRUCTION_SPANS = (
    "colorings.construct_weak_lower",
    "colorings.construct_rainbow_lower",
    "colorings.canonicalize",
)

EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2


@dataclass
class Tally:
    """Operations attempted and failed; a failure is a wrong answer, an
    exception (BudgetExceeded included) or a nonzero exit."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {error}")


def run_op(op, tracer, tally: Tally) -> float:
    """Run one operation, check its answer, and return the seconds it took
    (the check is not timed)."""
    start = time.perf_counter()
    try:
        with tracer.span("bench.op"):
            result = op.run(tracer)
    except Exception as exc:  # counted as a failure; the loop goes on
        tally.record(op.label, f"raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    with tracer.span("bench.check"):
        try:
            error = op.check(result, tracer)
        except Exception as exc:  # a malformed answer
            error = f"check raised {type(exc).__name__}: {exc}"
    tally.record(op.label, error)
    return elapsed


def run_passes(workload, tracer, seconds: float, tally: Tally):
    """Whole passes until `seconds` have gone by, at least one.

    Returns the seconds of each pass and of each operation.  A pass's time is
    the sum of its operations' times: one caller runs them back to back, and
    the checks between them are the benchmark's work, not the program's.
    """
    stop = time.perf_counter() + seconds
    pass_times, op_times = [], []
    while True:
        times = [run_op(op, tracer, tally) for op in workload.ops]
        op_times += times
        pass_times.append(sum(times))
        if time.perf_counter() >= stop:
            return pass_times, op_times


def tail(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it,
    by nearest rank, or None with fewer than twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    rank = math.ceil(p * n / 100)
    return {"percentile": p, "value_s": sorted(samples)[rank - 1], "beyond": n - rank, "samples": n}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import rschur and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


def end_to_end(wl, workload, seconds: float, tally: Tally, detail: dict) -> dict:
    passes, ops = run_passes(workload, wl.NO_TRACE, seconds, tally)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setups = [probe_setup(workload.name, workload.seed) for _ in range(SETUP_REPEATS)]
    detail.update(
        passes=len(passes),
        pass_s=passes,
        op_samples=len(ops),
        op_tail=tail(ops),
        setup_s=setups,
    )
    return {
        "wall_s": median(passes),
        "op_p50_s": median(ops),
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "setup_s": median(setups),
    }


class Decision(NamedTuple):
    m: int
    t: int
    n: int
    r: int
    refutes: bool  # r is below the value, so a counterexample exists
    seconds: float
    nodes: int
    leaves: int


def decide_all(wl, points, threads: int, tracer, tally: Tally) -> list[Decision]:
    """Every decision search_rs makes on each (m, t, n): r = 2 .. value.

    A verdict other than counterexample below the value and all-good at it
    is a failure.
    """
    rschur = wl.rschur
    budget = rschur.SearchBudget(threads=threads)
    rows = []
    for m, t, n in points:
        value = rschur.formula_value(m, n, t)
        for r in range(2, value + 1):
            label = f"all_colorings_good({m},{t},{n},{r},threads={threads})"
            start = time.perf_counter()
            try:
                verdict = tracer.call("search.all_colorings_good", rschur.all_colorings_good, m, t, n, r, budget)
            except Exception as exc:  # counted as a failure, like an operation's
                tally.record(label, f"raised {type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - start
            want = rschur.Outcome.ALL_GOOD if r == value else rschur.Outcome.COUNTEREXAMPLE
            tally.record(
                label,
                None if verdict.outcome is want else f"{verdict.outcome.value}, expected {want.value}",
            )
            rows.append(Decision(m, t, n, r, r < value, seconds, verdict.nodes_explored, verdict.leaves))
    return rows


def search_metrics(wl, workload, tracer, tally: Tally, detail: dict) -> dict:
    names = ("decide_s", "nodes", "leaves", "nodes_per_s", "refute_share")
    out = {f"search.{name}": 0 for name in names}
    serial = decide_all(wl, wl.search_points(workload), 1, tracer, tally)
    if not serial:
        return out
    seconds = sum(d.seconds for d in serial)
    nodes = sum(d.nodes for d in serial)
    out.update({
        "search.decide_s": median(d.seconds for d in serial),
        "search.nodes": nodes,
        "search.leaves": sum(d.leaves for d in serial),
        "search.nodes_per_s": nodes / seconds,
        "search.refute_share": sum(d.seconds for d in serial if d.refutes) / seconds,
    })
    detail["decisions"] = {"fields": Decision._fields, "rows": serial}
    return out


def pool_metrics(wl, tracer, tally: Tally, detail: dict) -> dict:
    """The process pool and the command line, on the calls of `rschur verify`
    over wl.VERIFY_RANGES.  No workload's timed operations use either, so
    this probe is the same on every workload."""
    points = wl.verify_points()
    serial = decide_all(wl, points, 1, tracer, tally)
    runs = [decide_all(wl, points, wl.WORKERS, tracer, tally) for _ in range(PARALLEL_REPEATS)]
    nodes = sum(d.nodes for d in serial)
    par_seconds = [sum(d.seconds for d in run) for run in runs]
    par_nodes = [sum(d.nodes for d in run) for run in runs]
    # parallel node counts vary from run to run: report them with their spread
    detail["par_nodes"] = {"runs": par_nodes, "min": min(par_nodes), "max": max(par_nodes),
                           "serial": nodes, "workers": wl.WORKERS}
    for op in wl.verify_ops():
        run_op(op, tracer, tally)
    return {
        "search.par_speedup": sum(d.seconds for d in serial) / median(par_seconds),
        "search.par_node_ratio": median(par_nodes) / nodes,
        "cli.verify_s": sum(tracer.durations("cli.verify")),
        "cli.overhead_s": tracer.counts["cli.overhead_s"],
    }


def equations_metrics(wl, tracer) -> dict:
    """Enumeration and the per-total index at fixed points; the workloads
    reach this layer only inside colorings and search."""
    rschur = wl.rschur
    out = {"equations.enumerate_s": 0.0, "equations.solutions": 0}
    for m in INDEX_M:
        start = time.perf_counter()
        count = tracer.call("equations.count_solutions", rschur.count_solutions, m, INDEX_N)
        out["equations.enumerate_s"] += time.perf_counter() - start
        out["equations.solutions"] += count
        start = time.perf_counter()
        index = tracer.call("equations.index_solutions_by_total", rschur.index_solutions_by_total, m, INDEX_N)
        out[f"equations.index_s.m{m}"] = time.perf_counter() - start
        out[f"equations.index_size.m{m}"] = sum(len(bucket) for bucket in index.values())
        del index
    return out


def formulas_metrics(wl, tracer) -> dict:
    """Every closed form with 3 <= t <= m <= 9 over its domain up to n = 60;
    the workloads call formulas only in their checks."""
    rschur = wl.rschur
    start = time.perf_counter()
    for m in FORMULA_M:
        for t in range(3, m + 1):
            for n in range(rschur.min_n_weak(t, m), FORMULA_N + 1):
                tracer.call("formulas.formula_value", rschur.formula_value, m, n, t)
    return {"formulas.formula_s": time.perf_counter() - start}


def per_layer(wl, workload, setup, seconds: float, tally: Tally, detail: dict) -> dict:
    untraced, _ = run_passes(workload, wl.NO_TRACE, seconds / 2, tally)
    tracer = Tracer()
    traced, _ = run_passes(workload, tracer, seconds / 2, tally)
    per_pass = 1 / len(traced)
    # only the timed operations: the checks call into layers too
    self_times = tracer.self_times(within="bench.op")
    out = {f"{layer}.self_s": self_times.get(layer, 0.0) * per_pass for layer in TRACED_LAYERS}
    out["trace.overhead"] = median(traced) / median(untraced) - 1

    scans = tracer.durations("colorings.has_t_colored_solution")
    maxima = tracer.durations("colorings.max_solution_colors")
    keys = wl.scan_keys(workload)
    bounds = {key: wl.solution_count(*key) for key in set(keys)}
    out.update({
        "colorings.scan_s": sum(scans) * per_pass,
        "colorings.scans": round(len(scans) * per_pass),
        "colorings.scan_hit_ratio": tracer.counts["colorings.hits"] / len(scans) if scans else 0.0,
        "colorings.max_scan_s": median(maxima) if maxima else 0.0,
        "colorings.scan_bound": sum(bounds[key] for key in keys),
        "colorings.construct_s": sum(sum(setup.durations(name)) for name in CONSTRUCTION_SPANS),
    })
    # the probes run after the passes, each call in a span of its own
    probes = Tracer()
    out.update(search_metrics(wl, workload, probes, tally, detail))
    out.update(pool_metrics(wl, probes, tally, detail))
    out.update(equations_metrics(wl, probes))
    out.update(formulas_metrics(wl, probes))

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-{workload.seed}.json"
    trace_path.write_text(
        json.dumps({"setup": setup.to_json(), "passes": tracer.to_json(), "probes": probes.to_json()}), encoding="utf-8"
    )
    detail.update(
        untraced_passes=len(untraced),
        traced_passes=len(traced),
        spans=len(tracer.spans),
        trace_file=str(trace_path.relative_to(ROOT)),
        exact={name: out[name] for name in ("search.nodes", "search.leaves", "equations.solutions")},
    )
    return out


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a repository; --git-dir
    keeps git from taking a repository above the tree for this one."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(wl, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": wl.NPROC,
        "cpu_count": os.cpu_count(),
        "workers": wl.WORKERS,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def result_line(values: dict, trace: bool, tally: Tally) -> dict:
    """The result with every metric BENCHMARK.json lists for this mode, in
    its order and with its unit."""
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    names = [metric["name"] for metric in wanted]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(set(names) ^ set(values))} do not match BENCHMARK.json")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def load_program():
    """Import the workloads, and with them rschur from ./src; None when the
    tree holds no importable program there."""
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import rschur from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    origin = Path(workloads.rschur.__file__).resolve()
    if not origin.is_relative_to(workloads.SRC):
        print(f"bench: rschur came from {origin}, not from {workloads.SRC}", file=sys.stderr)
        return None
    return workloads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds taken to import rschur and build the inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    wl = load_program()
    if wl is None:
        return EXIT_NO_PROGRAM
    if args.setup_only:
        wl.build(args.workload, args.seed)
        print(time.perf_counter() - start)
        return 0

    print(json.dumps({"environment": environment(wl, args)}), flush=True)
    tally = Tally()
    detail: dict = {}
    if args.trace:
        setup = Tracer()
        workload = wl.build(args.workload, args.seed, setup)
        values = per_layer(wl, workload, setup, args.seconds, tally, detail)
    else:
        workload = wl.build(args.workload, args.seed)
        values = end_to_end(wl, workload, args.seconds, tally, detail)
    detail.update(
        operations_per_pass=len(workload.ops),
        error_rate=tally.failed / tally.attempted,
        errors=tally.errors,
    )
    print(json.dumps({"detail": detail}), flush=True)
    for error in tally.errors:
        print(f"bench: FAILED {error}", file=sys.stderr)
    print(json.dumps(result_line(values, bool(args.trace), tally)), flush=True)
    return 0 if tally.failed == 0 else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
