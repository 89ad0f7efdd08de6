"""Enumeration of solutions of E_m: x_1 + ... + x_{m-1} = x_m inside [1, n].

A solution is identified by the multiset of its m - 1 summands, stored as a
nondecreasing tuple, plus the total.  The total always exceeds every summand,
so the m values of a solution are the summands and the total.

Enumeration streams solutions ordered by (total, summand tuple) and never
materializes the whole list; index_solutions_by_total does materialize and is
therefore guarded by the cap DEFAULT_INDEX_CAP.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import BudgetExceeded
from .formulas import check_params

DEFAULT_INDEX_CAP = 10**7


class SchurSolution(NamedTuple):
    """One solution of E_m: nondecreasing summands and their total."""

    terms: tuple[int, ...]
    total: int

    @property
    def values(self) -> tuple[int, ...]:
        """All m values of the solution: the summands followed by the total."""
        return self.terms + (self.total,)

    def __str__(self) -> str:
        return " + ".join(str(v) for v in self.terms) + f" = {self.total}"


def _ascending_tuples(target: int, parts: int, lo: int, step: int) -> Iterator[tuple[int, ...]]:
    """Tuples of `parts` terms summing to `target`, in lexicographic order.

    Each term is at least `lo` and each later term at least `step` above its
    predecessor (step 0 gives nondecreasing tuples, step 1 strictly
    increasing ones).  A first term v leaves room for the cheapest
    completion, every later term at its least, only while
    parts * v + step * parts * (parts - 1) / 2 <= target.
    """
    if parts == 1:
        # the caller's loop bound keeps target >= lo
        yield (target,)
        return
    for v in range(lo, (target - step * parts * (parts - 1) // 2) // parts + 1):
        for rest in _ascending_tuples(target - v, parts - 1, v + step, step):
            yield (v,) + rest


def enumerate_solutions(m: int, n: int, distinct: bool = False) -> Iterator[SchurSolution]:
    """Yield every solution of E_m with all values in [1, n], exactly once.

    Ordered by total, then lexicographically on the summand tuple.  With
    distinct=True only solutions whose summands strictly increase are kept;
    those are exactly the solutions with m pairwise distinct values, the only
    ones that can ever be rainbow.
    """
    check_params(m, n=n)
    parts = m - 1
    step = 1 if distinct else 0
    for total in range(parts + step * parts * (parts - 1) // 2, n + 1):
        for terms in _ascending_tuples(total, parts, 1, step):
            yield SchurSolution(terms, total)


def count_solutions(m: int, n: int, distinct: bool = False) -> int:
    """Number of solutions enumerate_solutions would yield."""
    return sum(1 for _ in enumerate_solutions(m, n, distinct))


def index_solutions_by_total(
    m: int, n: int, distinct: bool = False
) -> dict[int, list[SchurSolution]]:
    """Bucket all solutions by total; totals without solutions get no bucket.

    Within a bucket the lexicographic summand order is preserved.  Raises
    BudgetExceeded as soon as more than DEFAULT_INDEX_CAP would be stored.
    """
    index: dict[int, list[SchurSolution]] = {}
    for stored, sol in enumerate(enumerate_solutions(m, n, distinct), start=1):
        if stored > DEFAULT_INDEX_CAP:
            raise BudgetExceeded(
                f"solution index for m={m}, n={n} exceeds the cap of {DEFAULT_INDEX_CAP}",
                nodes=DEFAULT_INDEX_CAP,
            )
        index.setdefault(sol.total, []).append(sol)
    return index
