"""Exhaustive verification over exact colorings, with symmetry reduction.

Colorings are enumerated as restricted growth strings, so each partition of
[1, n] into color classes is visited exactly once no matter how its colors
might be labeled; this quotient is the single biggest lever against the r^n
blowup of raw label maps.

Integers are colored in increasing order.  When position x receives a color,
every solution of E_m with total x becomes fully colored (all summands are
smaller than the total), so the branch can be abandoned the moment such a
solution reaches t distinct colors: extending the coloring never removes
colors from an already-colored solution.  Branches that can no longer reach
exactly r colors are abandoned as well.  For t = m only solutions with
pairwise distinct values are tracked, since repeated values share a color.

One kernel, a depth-bounded DFS, does all the scanning.  Run to depth n it
visits colorings in lexicographic order of their growth strings and reports
the lexicographically least counterexample.  With threads > 1 it first runs
to a split depth, and the surviving prefixes become subtrees scanned to depth
n in worker processes.  Their results are read in prefix order, so the
witness does not depend on the thread count.

The time limit is one absolute deadline on the time.monotonic() clock, which
is system-wide and so shared by the worker processes; it bounds the whole
call.  The node budget bounds the whole call at one thread, but applies per
subtree when threads > 1.  Budget exhaustion always raises BudgetExceeded;
a partial scan is never reported as a verdict.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .colorings import Coloring
from .equations import index_solutions_by_total
from .errors import BudgetExceeded, DomainError
from .formulas import ComputedNumber, Method, ProblemParams, min_n_weak

DEFAULT_MAX_NODES = 10**8


class Outcome(enum.Enum):
    ALL_GOOD = "all-good"
    COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class Verdict:
    """Result of checking every exact r-coloring of [1, n].

    ALL_GOOD means each one contains a solution with at least t distinct
    colors; COUNTEREXAMPLE carries one that does not.  leaves counts the
    complete exact-r colorings the search actually reached.
    """

    outcome: Outcome
    witness: Coloring | None
    nodes_explored: int
    elapsed: float
    leaves: int = 0


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for a search run.

    max_nodes caps color-assignment steps over the whole call at one
    thread, and over each subtree when threads > 1; time_limit is wall-clock
    seconds for the whole call, worker processes included, unlimited when
    None; split_depth is the prefix length at which work is divided among
    worker processes.  The verdict and the witness do not depend on threads
    or split_depth.
    """

    max_nodes: int = DEFAULT_MAX_NODES
    time_limit: float | None = None
    threads: int = 1
    split_depth: int = 8

    def __post_init__(self):
        if self.max_nodes < 1:
            raise DomainError(f"max_nodes must be positive, got {self.max_nodes}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise DomainError(f"time_limit must be positive, got {self.time_limit}")
        if self.threads < 1:
            raise DomainError(f"threads must be at least 1, got {self.threads}")
        if self.split_depth < 1:
            raise DomainError(f"split_depth must be at least 1, got {self.split_depth}")


def _value_set_buckets(m: int, t: int, n: int) -> list[list[tuple[int, ...]]]:
    """Per-total lists of deduplicated value sets of solutions.

    Solutions whose distinct values number fewer than t can never show t
    colors and are dropped; two solutions over the same value set prune
    identically, so each set is kept once.
    """
    distinct = t == m
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    seen: set[tuple[int, ...]] = set()
    for total, sols in index_solutions_by_total(m, n, distinct=distinct).items():
        for sol in sols:
            vals = sol.distinct_values()
            if len(vals) < t or vals in seen:
                continue
            seen.add(vals)
            buckets[total].append(vals)
    return buckets


def _is_counterexample(colors: list[int], buckets: list[list[tuple[int, ...]]], t: int) -> bool:
    for bucket in buckets:
        for vals in bucket:
            if len({colors[v] for v in vals}) >= t:
                return False
    return True


def _search(
    m: int,
    t: int,
    n: int,
    r: int,
    prefix: tuple[int, ...],
    depth: int,
    max_nodes: int,
    deadline: float | None,
    eager_prune: bool,
):
    """Depth-first scan of the canonical colorings extending `prefix`, in
    lexicographic order, down to position `depth` > len(prefix).

    Returns (survivors, nodes, leaves).  Below depth n the survivors are all
    growth-string prefixes of length `depth` that pruning could not rule
    out.  At depth n the scan stops at the first counterexample, so the
    survivors are empty or hold the lexicographically least one.  With
    eager_prune=False solutions are only checked at complete colorings, so
    every exact-r completion of the prefix is visited; that mode exists to
    make the leaf count externally checkable against partition counts.
    Raises BudgetExceeded past max_nodes nodes or the absolute `deadline`
    on the time.monotonic() clock.
    """
    if r >= t:
        buckets = _value_set_buckets(m, t, n)
    else:
        # fewer colors available than the target: nothing can ever prune
        buckets = [[] for _ in range(n + 1)]
    colors = [0, *prefix] + [0] * (n - len(prefix))
    survivors: list[tuple[int, ...]] = []
    nodes = 0
    leaves = 0

    def dfs(x: int, used: int) -> bool:
        nonlocal nodes, leaves
        bucket = buckets[x]
        cap = used + 1 if used < r else r
        # an old color leaves `used` unchanged, so it is only viable while
        # enough positions remain to introduce the missing colors
        lo = 1 if used + (n - x) >= r else used + 1
        for c in range(lo, cap + 1):
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(
                    f"node budget of {max_nodes} exhausted",
                    nodes=nodes,
                    frontier=tuple(colors[1:x]) + (c,),
                )
            # checked on the first node too, so a subtree started after the
            # deadline stops at once
            if deadline is not None and nodes % 4096 == 1 and time.monotonic() > deadline:
                raise BudgetExceeded(
                    "time limit exhausted",
                    nodes=nodes,
                    frontier=tuple(colors[1:x]) + (c,),
                )
            colors[x] = c
            if eager_prune:
                pruned = False
                for vals in bucket:
                    if len({colors[v] for v in vals}) >= t:
                        pruned = True
                        break
                if pruned:
                    continue
            if x < depth:
                if dfs(x + 1, used if c <= used else c):
                    return True
            elif x < n:
                survivors.append(tuple(colors[1 : x + 1]))
            else:
                leaves += 1
                if eager_prune or _is_counterexample(colors, buckets, t):
                    survivors.append(tuple(colors[1:]))
                    return True
        return False

    dfs(len(prefix) + 1, max(prefix, default=0))
    return survivors, nodes, leaves


def _parallel_search(
    m: int,
    t: int,
    n: int,
    r: int,
    budget: SearchBudget,
    deadline: float | None,
    eager_prune: bool,
):
    """Split the tree at the budget's depth, then scan the subtrees in worker
    processes.  Results are read in prefix order, so the first witness is
    the lexicographically least one, as in the one-process scan."""
    depth = max(1, min(budget.split_depth, n - 1))
    prefixes, nodes, _ = _search(
        m, t, n, r, (), depth, budget.max_nodes, deadline, eager_prune
    )
    leaves = 0
    pool = ProcessPoolExecutor(max_workers=budget.threads)
    try:
        futures = [
            pool.submit(
                _search, m, t, n, r, prefix, n, budget.max_nodes, deadline, eager_prune
            )
            for prefix in prefixes
        ]
        for fut in futures:
            try:
                found, sub_nodes, sub_leaves = fut.result()
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    str(exc), nodes=nodes + exc.nodes, frontier=exc.frontier
                ) from None
            nodes += sub_nodes
            leaves += sub_leaves
            if found:
                return found, nodes, leaves
    finally:
        pool.shutdown(cancel_futures=True)
    return [], nodes, leaves


def all_colorings_good(
    m: int,
    t: int,
    n: int,
    r: int,
    budget: SearchBudget | None = None,
    *,
    eager_prune: bool = True,
) -> Verdict:
    """Check whether every exact r-coloring of [1, n] contains a solution of
    E_m with at least t distinct colors.

    Enumerates canonical restricted growth strings of length n reaching
    exactly r colors; the lexicographically least coloring without such a
    solution is returned as a counterexample.  Raises BudgetExceeded rather
    than ever returning a verdict from a partial scan.
    """
    ProblemParams(m, t, n)
    if not 1 <= r <= n:
        raise DomainError(f"r must lie in [1, n] = [1, {n}], got {r}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.time_limit if budget.time_limit is not None else None
    if budget.threads > 1 and n > 1:
        found, nodes, leaves = _parallel_search(m, t, n, r, budget, deadline, eager_prune)
    else:
        found, nodes, leaves = _search(
            m, t, n, r, (), n, budget.max_nodes, deadline, eager_prune
        )
    elapsed = time.monotonic() - start
    if not found:
        return Verdict(Outcome.ALL_GOOD, None, nodes, elapsed, leaves)
    return Verdict(
        Outcome.COUNTEREXAMPLE,
        Coloring(n=n, colors=found[0], r=r),
        nodes,
        elapsed,
        leaves,
    )


def _budget_left(budget: SearchBudget, nodes: int, deadline: float | None) -> SearchBudget:
    """What remains of `budget` after `nodes` nodes, ending at `deadline`."""
    time_left = None if deadline is None else deadline - time.monotonic()
    if nodes >= budget.max_nodes or (time_left is not None and time_left <= 0):
        raise BudgetExceeded("nothing left of the budget")
    return replace(budget, max_nodes=budget.max_nodes - nodes, time_limit=time_left)


def search_rs(
    m: int,
    t: int,
    n: int,
    budget: SearchBudget | None = None,
    *,
    witness_sink: list | None = None,
) -> ComputedNumber:
    """Least r such that every exact r-coloring of [1, n] contains a solution
    of E_m with at least t distinct colors, found by upward scan.

    Returns value None when n < min_n_weak(t, m): then no solution in [1, n]
    has t distinct values, so none can show t colors and no r works.
    Otherwise scans r = 2, 3, ... and stops at the first ALL_GOOD verdict,
    which is correct because merging two classes of a counterexample yields
    a counterexample one color down: colorings without t-colored solutions
    exist at every r below the answer.  The attached witness is the
    counterexample found at value - 1 (the monochromatic coloring when value
    is 2).  Each (r, witness) pair encountered is appended to witness_sink
    when one is supplied.  The budget covers the whole scan: each r gets the
    nodes and time the earlier ones left, and BudgetExceeded carries the
    node count summed over every r.
    """
    ProblemParams(m, t, n)
    budget = budget or SearchBudget()
    start = time.monotonic()
    if n < min_n_weak(t, m):
        return ComputedNumber(
            None, Method.SEARCH, None, nodes=0, elapsed=time.monotonic() - start
        )
    deadline = start + budget.time_limit if budget.time_limit is not None else None
    total_nodes = 0
    previous = Coloring(n=n, colors=(1,) * n, r=1)
    for r in range(2, n + 1):
        try:
            verdict = all_colorings_good(
                m, t, n, r, _budget_left(budget, total_nodes, deadline)
            )
        except BudgetExceeded as exc:
            total_nodes += exc.nodes
            if deadline is not None and time.monotonic() >= deadline:
                message = "time limit exhausted"
            else:
                message = f"node budget of {budget.max_nodes} exhausted"
            raise BudgetExceeded(
                message, nodes=total_nodes, frontier=exc.frontier
            ) from None
        total_nodes += verdict.nodes_explored
        if verdict.outcome is Outcome.ALL_GOOD:
            return ComputedNumber(
                r,
                Method.SEARCH,
                previous,
                nodes=total_nodes,
                elapsed=time.monotonic() - start,
            )
        previous = verdict.witness
        if witness_sink is not None:
            witness_sink.append((r, verdict.witness))
    raise AssertionError(
        "unreachable: the all-singleton coloring contains a t-colored solution"
    )
