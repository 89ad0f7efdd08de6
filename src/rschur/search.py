"""Exhaustive verification over exact colorings, with symmetry reduction.

Colorings are enumerated as restricted growth strings, so each partition of
[1, n] into color classes is visited exactly once no matter how its colors
might be labeled; this quotient is the single biggest lever against the r^n
blowup of raw label maps.

Integers are colored in increasing order, and a solution of E_m with total y
is complete once its largest summand x is colored; extending the coloring
never removes colors from it.  Solutions are indexed by their largest
summand, and coloring x folds each one it completes into allowed[y], the
colors still admissible at y: if its summands show k colors, every color is
ruled out at k >= t and every color outside them at k = t - 1.  The changes
are undone on backtrack.  For t = m only solutions with pairwise distinct
values are tracked, since repeated values share a color.

An exact r-coloring must still introduce each missing color at its own
position.  Position y is closed, allowed[y] != -1, once a complete solution
with total y shows t - 1 colors: a color first used at y would complete t.
A closed position stays closed along the path, and a branch with `used`
colors is abandoned when fewer than r - used positions ahead are open.  So
the pass after coloring x is skipped while fewer than t - 1 colors are in
use, and it stops once it has closed more positions than the branch can
spare.  At m = t = 3 a new color at p closes p+1..2p-1 (a + p with a < p
shows two colors), so the branch is also abandoned when a greedy walk over
the open positions from x, taking the first open p and going on from 2p,
finds fewer than r - used places for the missing colors.  Greedy finds the
longest doubling chain, so the walk is exact.  Elsewhere the kernel uses no
first-position lemma: it finds counterexamples by exact closings and the
count of open positions alone.

One kernel, a depth-first scan in one process, does all the scanning: one
loop over positions, with the growth string as its odometer.  It visits
colorings in lexicographic order of their growth strings and reports the
lexicographically least counterexample.

The first-position lemmas live in _most_colors alone: taken at the root,
with every position open, they give the most colors a coloring without a
t-colored solution can use.  That root bound refutes every larger r with no
node and no index, and search_rs scans r = 2 up to it; a bound too loose
could only cost scans, never a wrong value.

Each public call that scans builds the solution index once, capped at
equations.DEFAULT_INDEX_CAP entries, and hands it to the kernel for every r
it scans.  The time limit is one absolute deadline on the time.monotonic()
clock, read during the index build and the scan, and the node budget counts
the nodes of every r, so both bound the whole call.  Budget exhaustion
always raises BudgetExceeded; a partial scan is never reported as a verdict.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from .colorings import Coloring
from .equations import DEFAULT_INDEX_CAP
from .errors import BudgetExceeded, DomainError
from .formulas import check_params, min_n_weak

DEFAULT_MAX_NODES = 10**8
Closers = list[list[tuple[tuple[int, ...], int]]]


class Outcome(enum.Enum):
    ALL_GOOD = "all-good"
    COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class Verdict:
    """Result of checking every exact r-coloring of [1, n].

    ALL_GOOD means each one contains a solution with at least t distinct
    colors; COUNTEREXAMPLE carries one that does not.  leaves counts the
    complete colorings reached; the first one ends the scan as a
    counterexample, so it is 1 with COUNTEREXAMPLE and 0 with ALL_GOOD.
    """

    outcome: Outcome
    witness: Coloring | None
    nodes_explored: int

    @property
    def leaves(self) -> int:
        return int(self.outcome is Outcome.COUNTEREXAMPLE)


@dataclass(frozen=True)
class ComputedNumber:
    """A search_rs value with its witness and search statistics.

    value is None when the quantity is undefined (no solution in [1, n] can
    show t distinct colors under any coloring).  Otherwise witness is an
    exact coloring with exactly value - 1 colors containing no solution with
    t or more distinct colors.
    """

    value: int | None
    witness: Coloring | None
    nodes: int


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for a search run.

    max_nodes caps color-assignment steps over the whole call; time_limit
    is wall-clock seconds for the whole call, unlimited when None.  threads
    is accepted and changes nothing: the search runs in one process.
    """

    max_nodes: int = DEFAULT_MAX_NODES
    time_limit: float | None = None
    threads: int = 1

    def __post_init__(self):
        if not self.max_nodes >= 1:
            raise DomainError(f"max_nodes must be positive, got {self.max_nodes}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise DomainError(f"time_limit must be positive, got {self.time_limit}")
        if not self.threads >= 1:
            raise DomainError(f"threads must be at least 1, got {self.threads}")


def _closers(m: int, t: int, n: int, deadline: float | None) -> Closers:
    """closers[x] holds (others, y) for each solution of E_m in [1, n] with
    largest summand x and total y; others are its other distinct summand
    values, ascending.  Solutions with under t - 1 distinct summand values
    never show t colors and are dropped.  At t = m only strictly increasing
    summands are walked; below it each (value set, total) is kept once.
    Raises BudgetExceeded, with no nodes spent, past `deadline` (read every
    4,096 entries) or past equations.DEFAULT_INDEX_CAP entries stored before
    that dedup: never more than the solutions count_solutions counts.
    """
    closers: Closers = [[] for _ in range(n + 1)]
    step = 1 if t == m else 0
    stored = 0

    def walk(parts: int, lo: int, s: int, vals: tuple[int, ...]) -> None:
        # parts summands left, each >= lo, after some with sum s and values vals
        nonlocal stored
        if len(vals) + parts < t - 1:
            return
        if parts > 1:
            # the cheapest completion puts every later summand at its least
            for v in range(lo, (n - s - step * parts * (parts - 1) // 2) // parts + 1):
                walk(parts - 1, v + step, s + v, vals if vals[-1:] == (v,) else vals + (v,))
            return
        before = stored
        for x in range(lo, n - s + 1):
            others = vals if x > vals[-1] else vals[:-1]
            if len(others) >= t - 2:
                closers[x].append((others, s + x))
                stored += 1
        if stored > DEFAULT_INDEX_CAP:
            raise BudgetExceeded(f"solution index exceeds the cap of {DEFAULT_INDEX_CAP}")
        if deadline is not None and stored >> 12 != before >> 12 and time.monotonic() > deadline:
            raise BudgetExceeded("time limit exhausted while building the solution index")

    walk(m - 1, 1, 0, ())
    # below t = m, tuples with different repeats can share values and total
    return closers if step else [list(dict.fromkeys(entries)) for entries in closers]


def _most_colors(m: int, t: int, n: int) -> int:
    """The most colors a coloring of [1, n] with no t-colored solution can
    use, by the first-position lemmas alone with every position open.  At
    m = t = 3 first positions at least double.  Elsewhere colors 1..k+1
    first appear at 1 < f_2 < ... < f_{k+1}, and the sum s of f_2..f_{k+1}
    bounds the later new colors:
    - below t = m, k = t - 2: they lie in the window (max(f_{t-1}, n - s1),
      min(n, s1)], s1 = m - t + s;
    - at t = m, k = m - 3: no two are s0 = 1 + s apart, so the N = n -
      f_{m-2} positions after f_{m-2} fall into s0 chains, e of q + 1
      positions and s0 - e of q with q, e = divmod(N, s0), and a chain of
      L positions holds ceil(L / 2) of them.
    For a last first position p the sums s fill an interval, so one loop
    over p finds the most; at t = m it stops once the positions after p
    cannot beat the best room.  Reads no deadline and spends no node.
    """
    if m == t == 3:
        return n.bit_length()
    k = t - 2 if t < m else m - 3
    if n <= k:
        return n
    # the j first positions strictly between 1 and p sum to lo..hi; at
    # k = 0, p = 1 and j = -1 make both -1, so s = p + hi = 0
    j = k - 1
    lo = j * (j + 3) // 2
    best = 0
    for p in range(k + 1, n + 1) if k else (1,):
        hi = j * (2 * p - j - 1) // 2
        if t < m:
            s1 = m - t + p + hi
            best = max(best, min(n, s1) - max(p, n - s1))
            continue
        if n - p <= best:
            break
        for s0 in range(1 + p + lo, 2 + p + hi):
            q, e = divmod(n - p, s0)
            best = max(best, e * (q + 2 >> 1) + (s0 - e) * (q + 1 >> 1))
    return k + 1 + best


def _search(
    closers: Closers,
    m: int,
    t: int,
    n: int,
    r: int,
    budget: SearchBudget,
    spent: int,
    deadline: float | None,
):
    """Depth-first scan of every exact r-coloring of [1, n], in lexicographic
    order of growth strings, after `spent` nodes of the budget went to
    earlier scans of the same call.  The scan is one loop over positions:
    reaching x saves its state in saved[x], and backtracking into x
    restores that record, pops the trail of changes to allowed back to the
    length it saved, and tries colors from colors[x] + 1 on.

    Returns (witness, nodes).  A color is only placed where allowed admits
    it, so every complete coloring the scan reaches is a counterexample: the
    scan stops there, and witness is the lexicographically least one, or
    None when there is none.  Raises BudgetExceeded, with the nodes counted
    over the whole call, past the budget's max_nodes or the absolute
    `deadline` on the time.monotonic() clock.
    """
    colors = [0] * (n + 1)
    bits = [1] * (n + 1)
    # allowed[y]: bit c set when color c at y completes no t-colored
    # solution; y is open while it is -1
    allowed = [-1] * (n + 1)
    trail: list[tuple[int, int]] = []  # (y, old allowed[y]) along the path, for undo
    # saved[x]: on reaching x, the colors in use, the open positions in
    # [x, n] and the trail length, which x's closings later extend
    saved: list[tuple[int, int, int]] = [(0, 0, 0)] * (n + 1)
    left = budget.max_nodes - spent
    nodes = 0
    doubling = m == t == 3
    x = 1
    used = 0
    free = n
    while True:
        saved[x] = (used, free, len(trail))
        need = r - used
        # each missing color takes its own open position; at m = t = 3 the
        # walk takes the first open p and goes on from 2p
        viable = free >= need
        if viable and doubling:
            p = x
            for _ in range(need):
                while p <= n and allowed[p] != -1:
                    p += 1
                if p > n:
                    viable = False
                    break
                p *= 2
        # a pruned x starts past its last color; an old color leaves
        # `used` as it is, so it is only tried while enough positions
        # remain for the missing colors
        c = r + 1 if not viable else 1 if used + (n - x) >= r else used + 1
        while True:
            cap = used + 1 if used < r else r
            here = allowed[x]
            while c <= cap:
                nodes += 1
                # the clock is read on the first node too, so a scan started
                # after the deadline stops at once
                if nodes > left or (
                    deadline is not None and nodes % 4096 == 1 and time.monotonic() > deadline
                ):
                    if nodes > left:
                        message = f"node budget of {budget.max_nodes} exhausted"
                    else:
                        message = "time limit exhausted"
                    raise BudgetExceeded(
                        message, nodes=spent + nodes, frontier=tuple(colors[1:x]) + (c,)
                    )
                if here >> c & 1:
                    break
                c += 1
            if c <= cap:
                break
            # x is spent: back to x - 1, undoing what its color closed
            x -= 1
            if not x:
                return None, nodes
            used, free, mark = saved[x]
            for _ in range(len(trail) - mark):
                y, old = trail.pop()
                allowed[y] = old
            c = colors[x] + 1
        colors[x] = c
        if x == n:
            return tuple(colors[1:]), nodes
        bits[x] = bit = 1 << c
        now = used if c <= used else c
        free -= here == -1
        closings = 0
        slack = free - (r - now)
        # x and the summands it completes show at most `now` colors, so
        # below t - 1 of them nothing closes; past slack closings the next
        # position prunes before reading any state
        if now >= t - 1 and slack >= 0:
            for others, y in closers[x]:
                mask = bit
                for v in others:
                    mask |= bits[v]
                k = mask.bit_count()
                if k >= t - 1:
                    old = allowed[y]
                    new = 0 if k >= t else old & mask
                    if new != old:
                        allowed[y] = new
                        trail.append((y, old))
                        if old == -1:
                            closings += 1
                            if closings > slack:
                                break
        x += 1
        used = now
        free -= closings


def all_colorings_good(
    m: int,
    t: int,
    n: int,
    r: int,
    budget: SearchBudget | None = None,
) -> Verdict:
    """Check whether every exact r-coloring of [1, n] contains a solution of
    E_m with at least t distinct colors.

    Enumerates canonical restricted growth strings of length n reaching
    exactly r colors; the lexicographically least coloring without such a
    solution is returned as a counterexample.  An r above the root bound is
    ALL_GOOD with no node spent and no index built.  Raises BudgetExceeded
    rather than ever returning a verdict from a partial scan.
    """
    check_params(m, t, n)
    if not 1 <= r <= n:
        raise DomainError(f"r must lie in [1, n] = [1, {n}], got {r}")
    budget = budget or SearchBudget()
    if r > _most_colors(m, t, n):
        return Verdict(Outcome.ALL_GOOD, None, 0)
    deadline = time.monotonic() + budget.time_limit if budget.time_limit is not None else None
    # with fewer than t colors no solution can show t, so no prune can fire
    # and every complete coloring is a counterexample: the index is not needed
    closers = _closers(m, t, n, deadline) if r >= t else [[]] * (n + 1)
    found, nodes = _search(closers, m, t, n, r, budget, 0, deadline)
    if found is None:
        return Verdict(Outcome.ALL_GOOD, None, nodes)
    return Verdict(Outcome.COUNTEREXAMPLE, Coloring(n=n, colors=found, r=r), nodes)


def search_rs(m: int, t: int, n: int, budget: SearchBudget | None = None) -> ComputedNumber:
    """Least r such that every exact r-coloring of [1, n] contains a solution
    of E_m with at least t distinct colors, found by upward scan.

    Returns value None when n < min_n_weak(t, m): then no solution in [1, n]
    has t distinct values, so none can show t colors and no r works.
    Otherwise scans r = 2, 3, ... up to the root bound, the most colors the
    first-position lemmas allow, and stops at the first ALL_GOOD verdict;
    when every scan finds a counterexample, the value is the bound plus one.
    That is correct because merging two classes of a counterexample yields
    a counterexample one color down: colorings without t-colored solutions
    exist at every r below the answer.  The attached witness is the
    counterexample found at value - 1 (the monochromatic coloring when value
    is 2); all_colorings_good(m, t, n, r).witness is the one at a lower r.
    The budget covers the whole scan: each r gets the nodes and time the
    earlier ones left, and BudgetExceeded carries the node count summed over
    every r.
    """
    check_params(m, t, n)
    budget = budget or SearchBudget()
    if n < min_n_weak(t, m):
        return ComputedNumber(None, None, 0)
    most = _most_colors(m, t, n)
    deadline = time.monotonic() + budget.time_limit if budget.time_limit is not None else None
    # every r scanned is at most `most`, so below t the index is not needed
    closers = _closers(m, t, n, deadline) if most >= t else [[]] * (n + 1)
    total_nodes = 0
    # r colors have a counterexample, previous, and r + 1 are scanned next
    r, previous = 1, (1,) * n
    while r < most:
        found, nodes = _search(closers, m, t, n, r + 1, budget, total_nodes, deadline)
        total_nodes += nodes
        if found is None:
            break
        r, previous = r + 1, found
    return ComputedNumber(r + 1, Coloring(n=n, colors=previous, r=r), total_nodes)
