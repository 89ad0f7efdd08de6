"""Seeded workloads of the rschur benchmark: inputs, operations and checks.

Every workload is a closed loop with one caller: a pass runs its operations
in order, each one only after the previous one has returned.  The seed draws
the operations from a stated pool whose members cost about the same, so a
figure measured on one seed can be checked again on a seed nobody tuned for.
Each operation's answer is checked against a reference that does not come
from the code being timed: the closed form, a construction that must show no
qualifying solution, a recount of the returned witness (plus an independent
enumeration here for scans that report no hit), or the exit code and
`agree` column of the command line.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import rschur  # noqa: E402  (needs SRC on the path)

from tracer import NoTrace  # noqa: E402

# Worker processes for the parallel search: never more than the CPUs this
# process may run on, and never more than two.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
WORKERS = min(2, NPROC)

# One rung per line: (m, t, n) instances whose single-thread node counts lie
# within 3% of each other, so the seed may pick any of them.  Nine rungs make
# the median operation the fixed RS_{3,9}(16) rung.
ORACLE_RUNGS = (
    ((3, 3, 20),),
    ((3, 3, 18),),
    ((4, 4, 20), (4, 4, 21)),
    ((4, 4, 18), (4, 4, 19)),
    ((5, 5, 22), (5, 5, 23)),
    ((5, 5, 19), (5, 5, 20)),
    ((4, 3, 16),),
    ((9, 3, 16),),
    ((5, 4, 15), (5, 4, 16)),
)

# construct_scan: criterion-4 constructions at these n for every 4 <= m <= 9.
# A full scan of a weak construction (t < m) walks every solution whatever t
# is, so drawing t changes the coloring but not the work.
CONSTRUCT_WEAK_N = (60, 48)
CONSTRUCT_RAINBOW_N = 60

# check_random: many small scans that mostly stop early at a hit, plus full
# maxima at n = 60 whose work does not depend on the coloring drawn.
RANDOM_SCANS = 2000
RANDOM_M = (3, 5)
RANDOM_N = (10, 24)
RANDOM_MAX_M = (5, 6, 7)
RANDOM_MAX_N = 60

# The traced runs' probe of the command line and the process pool: (m, t,
# n_from, n_to) of three `rschur verify` calls.  Their cost is mostly one
# worker pool per decision.
VERIFY_RANGES = ((3, 3, 12, 15), (4, 4, 11, 12), (4, 3, 9, 11))
CLI_TIMEOUT_S = 150.0

NO_TRACE = NoTrace()


@dataclass
class Op:
    """One operation: run(tracer) is timed, check(result, tracer) is not and
    returns an error message, or None when the answer is right."""

    label: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    seed: int
    instances: list[tuple]
    ops: list[Op]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _random_labels(rng: random.Random, n: int, r: int) -> tuple[int, ...]:
    """Labels of a random coloring of [1, n] using exactly r colors."""
    labels = list(range(1, r + 1)) + [rng.randint(1, r) for _ in range(n - r)]
    rng.shuffle(labels)
    return tuple(labels)


def draw(name: str, seed: int, tracer=NO_TRACE) -> list[tuple]:
    """The instances the seed picks for a workload, one per operation."""
    rng = _rng(name, seed)
    out: list[tuple] = []
    if name == "oracle_ladder":
        out = [("search_rs",) + rng.choice(rung) for rung in ORACLE_RUNGS]
    elif name == "construct_scan":
        for m in range(4, 10):
            out += [("weak", m, rng.randint(3, m - 1), n) for n in CONSTRUCT_WEAK_N]
            out.append(("rainbow", m, m, CONSTRUCT_RAINBOW_N))
    elif name == "check_random":
        for _ in range(RANDOM_SCANS):
            m = rng.randint(*RANDOM_M)
            t = rng.randint(3, m)
            n = rng.randint(max(RANDOM_N[0], rschur.min_n_weak(t, m)), RANDOM_N[1])
            r = rng.randint(2, min(n, _formula(tracer, m, n, t) + 1))
            out.append(("has_t", m, t, _random_labels(rng, n, r)))
        for m in RANDOM_MAX_M:
            # at least RS_m(n) colors force a rainbow solution: the maximum is m
            r = _formula(tracer, m, RANDOM_MAX_N, m) + rng.randint(0, 2)
            out.append(("max", m, _random_labels(rng, RANDOM_MAX_N, r)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(out)
    return out


def build(name: str, seed: int, tracer=NO_TRACE) -> Workload:
    """Draw the instances and prepare their operations (the set-up)."""
    instances = draw(name, seed, tracer)
    makers = {
        "search_rs": _oracle_op,
        "weak": _construct_op,
        "rainbow": _construct_op,
        "has_t": _scan_op,
        "max": _max_op,
    }
    ops = [makers[inst[0]](inst, tracer) for inst in instances]
    return Workload(name, seed, instances, ops)


def search_points(workload: Workload) -> list[tuple[int, int, int]]:
    """Every (m, t, n) the workload decides by search, one per value."""
    return [inst[1:4] for inst in workload.instances if inst[0] == "search_rs"]


def verify_points() -> list[tuple[int, int, int]]:
    """Every (m, t, n) the calls over VERIFY_RANGES decide."""
    return [(m, t, n) for m, t, lo, hi in VERIFY_RANGES for n in range(lo, hi + 1)]


def verify_ops() -> list[Op]:
    """One `rschur verify --threads WORKERS` call per range of VERIFY_RANGES."""
    return [_verify_op(("verify",) + r + (WORKERS,), NO_TRACE) for r in VERIFY_RANGES]


def scan_keys(workload: Workload) -> list[tuple[int, int, bool]]:
    """(m, n, distinct) of every coloring scan one pass makes."""
    keys = []
    for inst in workload.instances:
        if inst[0] in ("weak", "rainbow"):
            _, m, t, n = inst
            keys.append((m, n, t == m))
        elif inst[0] == "has_t":
            _, m, t, labels = inst
            keys.append((m, len(labels), t == m))
        elif inst[0] == "max":
            _, m, labels = inst
            keys.append((m, len(labels), False))
    return keys


# ---------------------------------------------------------------- references


def recount(colors: Sequence[int], m: int, n: int, sol) -> int | None:
    """Distinct colors a claimed solution of E_m in [1, n] shows under colors,
    or None when it is not such a solution."""
    terms, total = tuple(sol.terms), sol.total
    if (
        len(terms) != m - 1
        or min(terms) < 1
        or list(terms) != sorted(terms)
        or sum(terms) != total
        or total > n
    ):
        return None
    return len({colors[v - 1] for v in terms + (total,)})


def reference_max_colors(colors: Sequence[int], m: int) -> int:
    """Most distinct colors any solution of E_m in [1, len(colors)] shows.

    Walks nondecreasing summands directly, independently of rschur's own
    enumerator; meant for the small instances of check_random.
    """
    n = len(colors)
    best = 0

    def extend(parts_left: int, smallest: int, room: int, seen: frozenset) -> None:
        nonlocal best
        if parts_left == 0:
            best = max(best, len(seen | {colors[n - room - 1]}))
            return
        for v in range(smallest, room // parts_left + 1):
            extend(parts_left - 1, v, room - v, seen | {colors[v - 1]})

    extend(m - 1, 1, n, frozenset())
    return best


def solution_count(m: int, n: int, distinct: bool) -> int:
    """count_solutions(m, n, distinct) by partition counting, without
    enumerating: the partitions of each total up to n into m - 1 parts."""
    k = m - 1
    # p[j][s]: partitions of s into exactly j parts (pairwise distinct when
    # distinct); shift every part down by one and drop the parts that hit 0
    p = [[0] * (n + 1) for _ in range(k + 1)]
    p[0][0] = 1
    for j in range(1, k + 1):
        for s in range(j, n + 1):
            p[j][s] = p[j][s - j] + p[j - 1][s - j if distinct else s - 1]
    return sum(p[k])


# ---------------------------------------------------------------- operations


def _formula(tr, m: int, n: int, t: int) -> int:
    return tr.call("formulas.formula_value", rschur.formula_value, m, n, t)


def _oracle_op(inst, tracer) -> Op:
    _, m, t, n = inst
    budget = rschur.SearchBudget(threads=1)

    def run(tr):
        return tr.call("search.search_rs", rschur.search_rs, m, t, n, budget)

    def check(result, tr):
        expected = _formula(tr, m, n, t)
        if result.value != expected:
            return f"search_rs gave {result.value}, the closed form {expected}"
        witness = result.witness
        if witness is None or witness.n != n or witness.r != expected - 1:
            return f"witness {witness} is not an exact {expected - 1}-coloring of [1, {n}]"
        return None

    return Op(f"search_rs({m},{t},{n})", run, check)


def _construct_op(inst, tracer) -> Op:
    kind, m, t, n = inst
    if kind == "rainbow":
        c = tracer.call("colorings.construct_rainbow_lower", rschur.construct_rainbow_lower, m, n)
    else:
        c = tracer.call("colorings.construct_weak_lower", rschur.construct_weak_lower, t, m, n)

    def run(tr):
        return tr.call("colorings.has_t_colored_solution", rschur.has_t_colored_solution, c, m, t)

    def check(result, tr):
        found, witness = result
        tr.add("colorings.hits", bool(found))
        if found or witness is not None:
            return f"{kind} construction ({m},{t},{n}) shows {witness} with {t} colors"
        if c.n != n or c.r != _formula(tr, m, n, t) - 1:
            return f"{kind} construction ({m},{t},{n}) uses {c.r} colors, not one below the value"
        return None

    return Op(f"{kind}({m},{t},{n})", run, check)


def _scan_op(inst, tracer) -> Op:
    _, m, t, labels = inst
    c = tracer.call("colorings.canonicalize", rschur.canonicalize, labels)
    reference: list[bool] = []  # filled by the first check, reused by later passes

    def run(tr):
        return tr.call("colorings.has_t_colored_solution", rschur.has_t_colored_solution, c, m, t)

    def check(result, tr):
        found, witness = result
        tr.add("colorings.hits", bool(found))
        if not reference:
            with tr.span("bench.reference"):
                reference.append(reference_max_colors(c.colors, m) >= t)
        if bool(found) != reference[0]:
            return f"has_t({m},{t}) on {c.colors} said {found}, the reference {reference[0]}"
        if found:
            shown = recount(c.colors, m, c.n, witness)
            if shown is None or shown < t:
                return f"witness {witness} shows {shown} colors, fewer than {t}"
        elif witness is not None:
            return f"a miss came with witness {witness}"
        return None

    return Op(f"has_t({m},{t},{len(labels)})", run, check)


def _max_op(inst, tracer) -> Op:
    _, m, labels = inst
    c = tracer.call("colorings.canonicalize", rschur.canonicalize, labels)

    def run(tr):
        return tr.call("colorings.max_solution_colors", rschur.max_solution_colors, c, m)

    def check(result, tr):
        count, witness = result
        if c.r < _formula(tr, m, c.n, m):
            return f"drawn coloring has {c.r} colors, below RS_{m}({c.n})"
        shown = recount(c.colors, m, c.n, witness) if witness is not None else None
        if count != m or shown != m:
            return f"maximum {count} with witness {witness} showing {shown}; expected {m}"
        return None

    return Op(f"max({m},{len(labels)})", run, check)


def run_cli(args: Sequence[str], timeout: float = CLI_TIMEOUT_S) -> tuple[int, str, str, float]:
    """Run `rschur <args>` from the source tree; return (exit code, stdout,
    stderr, wall seconds).  The child gets its own session so that, on a
    timeout, its worker processes are killed with it."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, "-m", "rschur.cli", *args]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err, time.perf_counter() - start


def _verify_op(inst, tracer) -> Op:
    _, m, t, lo, hi, threads = inst
    args = [
        "verify", "--m", str(m), "--t", str(t), "--n-from", str(lo), "--n-to", str(hi),
        "--threads", str(threads), "--format", "jsonl",
    ]

    def run(tr):
        return tr.call("cli.verify", run_cli, args)

    def check(result, tr):
        code, out, err, wall = result
        if code != 0:
            return f"verify {args} exited {code}: {err.strip()[-200:]}"
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        if [row["n"] for row in rows] != list(range(lo, hi + 1)):
            return f"verify {args} reported n = {[row['n'] for row in rows]}"
        for row in rows:
            expected = _formula(tr, m, row["n"], t)
            if row["agree"] is not True or row["search"] != expected or row["formula"] != expected:
                return f"verify row {row} disagrees with the closed form {expected}"
        tr.add("cli.overhead_s", wall - sum(row["millis"] for row in rows) / 1000)
        return None

    return Op(f"verify(m={m},t={t},n={lo}..{hi},threads={threads})", run, check)
