"""Exact colorings of [1, n]: canonical form, detection, constructions, I/O.

A coloring is stored canonically as a restricted growth string: color ids are
positive integers assigned in order of first occurrence, so position 1 always
holds color 1 and every other position holds at most one more than the
maximum seen so far.  Two label assignments inducing the same partition of
[1, n] canonicalize to the identical Coloring, which is what lets the search
oracle quotient away color renamings.

The serialized form is {"n": <int>, "colors": [<int>, ...]} with one color id
per integer, 1-based; a single whitespace-separated row of labels is accepted
as a plain-text alternative.  Readers take arbitrary positive labels and
canonicalize; writers always emit canonical ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Sequence

from .equations import SchurSolution, enumerate_solutions
from .errors import ColoringParseError, DomainError
from .formulas import check_params, formula_value

# keys has_t_colored_solution stores at most per scan, about 154 B each
SCAN_MEMO_CAP = 1 << 18


@dataclass(frozen=True)
class Coloring:
    """An exact r-coloring of [1, n] in canonical first-occurrence form."""

    n: int
    colors: tuple[int, ...]  # colors[i - 1] is the color of integer i
    r: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("a coloring needs at least one element")
        if len(self.colors) != self.n:
            raise DomainError(
                f"expected {self.n} color entries, got {len(self.colors)}"
            )
        top = 0
        for i, c in enumerate(self.colors, start=1):
            if c < 1 or c > top + 1:
                raise DomainError(
                    f"not a restricted growth string: color {c} at position {i} "
                    f"after maximum {top}"
                )
            if c > top:
                top = c
        if top != self.r:
            raise DomainError(f"r = {self.r} but {top} colors actually appear")

    def classes(self) -> list[list[int]]:
        """Color classes as ascending member lists, indexed by color id - 1."""
        out: list[list[int]] = [[] for _ in range(self.r)]
        for x, c in enumerate(self.colors, start=1):
            out[c - 1].append(x)
        return out


def canonicalize(raw: Sequence) -> Coloring:
    """Relabel arbitrary color labels by first occurrence.

    Idempotent, and the result induces exactly the same partition of [1, n]
    as the input.  Labels may be any hashable values, at least one of them.
    """
    ids: dict = {}
    out = []
    for lab in raw:
        if lab not in ids:
            ids[lab] = len(ids) + 1
        out.append(ids[lab])
    return Coloring(n=len(out), colors=tuple(out), r=len(ids))


def max_solution_colors(c: Coloring, m: int) -> tuple[int, SchurSolution | None]:
    """Largest number of distinct colors any solution of E_m shows under c.

    Returns (0, None) when [1, n] holds no solution at all; otherwise the
    witness is the first solution, in (total, lexicographic summand) order,
    to attain the maximum.  Repeated values share a color, so a solution's
    color count is the number of distinct colors over its value set.
    """
    check_params(m)
    colors = c.colors
    best = 0
    witness = None
    for sol in enumerate_solutions(m, c.n):
        seen = {colors[v - 1] for v in sol.terms}
        seen.add(colors[sol.total - 1])
        count = len(seen)
        if count > best:
            best = count
            witness = sol
    return best, witness


def _t_colored_tail(
    bits: list[int],
    rows: list[list[int] | None],
    failed: set[tuple[int, ...]],
    mask: int,
    room: int,
    j: int,
    lo: int,
    step: int,
    t: int,
    parts: int,
) -> tuple[int, ...] | None:
    """Lexicographically first j summands, each at least `lo` and `step`
    above the one before, that sum to `room` and bring the colors in `mask`
    to at least t; None when there are none.

    bits[x] is the color bit of x.  rows[v], built on first use, holds at
    index x - v the colors of [v, x].  failed holds the keys of refuted
    subproblems, as has_t_colored_solution describes.
    """
    if j == 1:
        # the caller's loop bound keeps room >= lo
        if (mask | bits[room]).bit_count() >= t:
            return (room,)
        return None
    need = t - mask.bit_count()
    if need > j:
        return None
    key = None
    if j < parts - 1:
        row = rows[lo]
        if row is None:
            row = rows[lo] = list(accumulate(bits[lo:], or_))
        key = (mask & row[room - lo], need, room, j, lo)
        if key in failed:
            return None
    # the other j - 1 summands take at least (j - 1) * v + top_rest, so every
    # one of the j summands lies in [v, room - (j - 1) * v - top_rest]
    top_rest = step * (j - 1) * (j - 2) // 2
    v = lo
    while True:
        hi = room - (j - 1) * v - top_rest
        if hi < v + step * (j - 1):
            break
        if need > 0:
            row = rows[v]
            if row is None:
                row = rows[v] = list(accumulate(bits[v:], or_))
            # [v, hi] only shrinks as v grows, so no later v can pass either
            if min(j, (row[hi - v] & ~mask).bit_count()) < need:
                break
        tail = _t_colored_tail(
            bits, rows, failed, mask | bits[v], room - v, j - 1, v + step, step, t, parts
        )
        if tail is not None:
            return (v,) + tail
        v += 1
    if key is not None and len(failed) < SCAN_MEMO_CAP:
        failed.add(key)
    return None


def has_t_colored_solution(
    c: Coloring, m: int, t: int
) -> tuple[bool, SchurSolution | None]:
    """Does some solution of E_m show at least t distinct colors under c?

    Returns the first qualifying solution in (total, lexicographic summand)
    order as witness, or (False, None).  For t = m only solutions with
    pairwise distinct values can qualify (repeated values share a color), so
    the scan restricts to strictly increasing summands.

    The scan is a branch and bound over summand prefixes, total by total.
    With j summands left to sum to `room` and v the least value the next one
    may take, all j lie in [v, hi], hi = room - (j - 1) * v - s * (j - 1) *
    (j - 2) / 2 with s = 1 for strictly increasing summands and 0 otherwise.
    A branch is cut when the colors of the prefix and the total, plus
    min(j, new colors in [v, hi]), fall short of t.  Only branches that
    cannot reach t colors are cut, so the answer and the witness are those
    of the full solution scan.

    A refuted subproblem is stored, for all totals, under (mask & R, need,
    room, j, lo), with R the colors of [lo, room], where every summand left
    lies, and need = t - |mask|: colors outside R count only through need,
    so one key has one answer.  Only refutations are stored, so a hit skips
    a walk that finds nothing, and the answer and witness are unchanged.
    Keys recur only for 1 < j < parts - 1; past SCAN_MEMO_CAP keys the set
    is only read.
    """
    check_params(m)
    # wider than the instance domain: t = 1 asks only for some solution
    if not 1 <= t <= m:
        raise DomainError(f"t must lie in [1, m] = [1, {m}], got {t}")
    parts = m - 1
    step = 1 if t == m else 0
    bits = [0] + [1 << col for col in c.colors]
    rows: list[list[int] | None] = [None] * (c.n + 1)
    failed: set[tuple[int, ...]] = set()
    for total in range(parts + step * parts * (parts - 1) // 2, c.n + 1):
        terms = _t_colored_tail(bits, rows, failed, bits[total], total, parts, 1, step, t, parts)
        if terms is not None:
            return True, SchurSolution(terms, total)
    return False, None


def construct_rainbow_lower(m: int, n: int) -> Coloring:
    """Extremal coloring showing RS_m(n) > formula_value(m, n) - 1.

    The weak construction at t = m.  For m >= 4 it is one block [1, head]
    with head = n + 2 - formula_value(m, n), then singletons: every solution
    with strictly increasing summands has its two smallest summands inside
    the block, so no solution is rainbow.  At m = 3 it is the 2-adic
    coloring.
    """
    return construct_weak_lower(m, m, n)


def construct_weak_lower(t: int, m: int, n: int) -> Coloring:
    """Extremal coloring with formula_value(m, n, t) - 1 colors and no
    solution showing t distinct colors, on the whole domain of the formula.

    - t = 2: one class [1, n - m + 2] and [m - 1, n], the values that occur
      in solutions, and every other value a singleton.
    - t = m = 3: x colored by its 2-adic valuation, (x & -x).bit_length().
      No x + y = z is rainbow: if x and y differ in valuation, z has the
      smaller one, and otherwise x and y share a color.
    - otherwise: one block [1, n + 2 - k] plus singletons, where
      k = formula_value(m, n, t).
    """
    k = formula_value(m, n, t)
    if t == 2:
        return canonicalize([x if n - m + 2 < x < m - 1 else 0 for x in range(1, n + 1)])
    if m == 3:
        return canonicalize([(x & -x).bit_length() for x in range(1, n + 1)])
    head = n + 2 - k
    return canonicalize([0] * head + list(range(head + 1, n + 1)))


def coloring_to_json(c: Coloring) -> str:
    """Serialize in canonical form with stable key order."""
    return json.dumps({"n": c.n, "colors": list(c.colors)}, sort_keys=True)


def parse_coloring(text: str) -> Coloring:
    """Parse and canonicalize a {"n": ..., "colors": [...]} document, or one
    whitespace-separated row of labels; labels must be positive integers."""
    if text.lstrip().startswith("{"):
        # a JSON text that opens with a brace is an object
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ColoringParseError(f"invalid JSON: {exc}") from exc
        if "n" not in doc or "colors" not in doc:
            raise ColoringParseError("missing required key 'n' or 'colors'")
        n, labels = doc["n"], doc["colors"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ColoringParseError(f"'n' must be a positive integer, got {n!r}")
        if not isinstance(labels, list) or len(labels) != n:
            raise ColoringParseError(f"'colors' must be a list of exactly {n} labels")
    else:
        fields = text.split()
        if not fields:
            raise ColoringParseError("empty coloring text")
        try:
            labels = [int(f) for f in fields]
        except ValueError as exc:
            raise ColoringParseError(f"labels must be integers: {exc}") from exc
    for lab in labels:
        if not isinstance(lab, int) or isinstance(lab, bool) or lab < 1:
            raise ColoringParseError(f"color labels must be positive integers, got {lab!r}")
    return canonicalize(labels)
