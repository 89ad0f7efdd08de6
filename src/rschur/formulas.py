"""Closed-form values of rainbow and weakened rainbow Schur numbers.

RS_m(n) is the least r such that every exact r-coloring of [1, n] contains a
rainbow solution of E_m: x_1 + ... + x_{m-1} = x_m (all m values pairwise
distinctly colored).  RS_{t,m}(n) weakens "rainbow" to "uses at least t
distinct colors"; at t = m the two notions coincide.

Everything here is exact integer arithmetic: ceilings are computed with
integer division and the base-2 logarithm with bit lengths, never floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, OutsideTheoremDomain, UnsupportedM

if TYPE_CHECKING:
    from .colorings import Coloring


def _ceil_div(a: int, b: int) -> int:
    # exact ceiling of a / b for a >= 0, b > 0
    return (a + b - 1) // b


@dataclass(frozen=True)
class ProblemParams:
    """One instance: equation size m, color target t, interval [1, n].

    t = m asks for rainbow solutions; t < m asks for solutions showing at
    least t distinct colors (summands may then repeat).
    """

    m: int
    t: int
    n: int

    def __post_init__(self):
        if self.m < 3:
            raise DomainError(f"m must be at least 3, got {self.m}")
        if not 2 <= self.t <= self.m:
            raise DomainError(f"t must lie in [2, m] = [2, {self.m}], got {self.t}")
        if self.n < 1:
            raise DomainError(f"n must be at least 1, got {self.n}")

    @property
    def rainbow(self) -> bool:
        return self.t == self.m

    def in_rainbow_domain(self) -> bool:
        """True when the rainbow closed form applies to this instance."""
        return self.t == self.m and self.n >= min_n_rainbow(self.m)

    def in_weak_domain(self) -> bool:
        """True when t < m and n is large enough for a t-colorable solution."""
        return self.t < self.m and self.n >= min_n_weak(self.t, self.m)


class Method(enum.Enum):
    """How a value was obtained."""

    FORMULA = "formula"
    SEARCH = "search"


@dataclass(frozen=True)
class ComputedNumber:
    """A rainbow Schur value together with its provenance.

    value is None when the quantity is undefined (no solution in [1, n] can
    show t distinct colors under any coloring).  When a witness is attached
    it is an exact coloring with exactly value - 1 colors containing no
    solution with t or more distinct colors.  nodes and elapsed are search
    statistics, absent for formula results.
    """

    value: int | None
    method: Method
    witness: "Coloring | None" = None
    nodes: int | None = None
    elapsed: float | None = None


def min_n_rainbow(m: int) -> int:
    """Least n for which E_m has a solution with pairwise distinct values.

    That solution is 1 + 2 + ... + (m-1) = m(m-1)/2, so any smaller interval
    admits no rainbow solution at all.
    """
    if m < 3:
        raise DomainError(f"m must be at least 3, got {m}")
    return m * (m - 1) // 2


def min_n_weak(t: int, m: int) -> int:
    """Least n for which E_m has a solution with at least t distinct values.

    Attained by m - t + 1 ones followed by 2, 3, ..., t - 1, which sums to
    t(t-1)/2 + m - t.  Coincides with min_n_rainbow at t = m.
    """
    if m < 3:
        raise DomainError(f"m must be at least 3, got {m}")
    if not 2 <= t <= m:
        raise DomainError(f"t must lie in [2, m] = [2, {m}], got {t}")
    return t * (t - 1) // 2 + m - t


def rs3_formula(n: int) -> int:
    """RS_3(n) = floor(log2(n)) + 2 for n >= 3.

    floor(log2(n)) is n.bit_length() - 1, exact for any size of n.
    """
    if n < 3:
        raise DomainError(f"n must be at least 3, got {n}")
    return n.bit_length() + 1


def rs_formula(m: int, n: int) -> int:
    """RS_m(n) = ceil(((m-3)n + m(m-1)/2) / (m-2)) for m >= 4, n >= m(m-1)/2.

    The rainbow case is the weak case at t = m.
    """
    return rs_weak_formula(m, m, n)


def rs_weak_formula(t: int, m: int, n: int) -> int:
    """RS_{t,m}(n) in closed form.

    For t = 2 the value is the constant 2 once n >= 2m - 4; below that
    threshold no closed form is known and OutsideTheoremDomain is raised
    (the search oracle still applies there).  For 3 <= t <= m with m >= 4 and
    n >= t(t-1)/2 + m - t the value is
    ceil(((t-3)n + t(t-1)/2 + m - t) / (t-2)), which reduces to m at t = 3
    and to the rainbow value RS_m(n) at t = m.
    """
    if m < 3:
        raise DomainError(f"m must be at least 3, got {m}")
    if not 2 <= t <= m:
        raise DomainError(f"t must lie in [2, m] = [2, {m}], got {t}")
    if t == 2:
        if n < 2 * m - 4:
            raise OutsideTheoremDomain(
                f"no closed form for t = 2 below n = 2m - 4 = {2 * m - 4}; "
                "use the search oracle"
            )
        return 2
    if m == 3:
        # here t = m = 3, the rainbow case with its own law
        raise UnsupportedM("t = m = 3 follows a logarithmic law; use rs3_formula")
    least = min_n_weak(t, m)
    if n < least:
        raise DomainError(
            f"n must be at least t(t-1)/2 + m - t = {least}, got {n}"
        )
    return _ceil_div((t - 3) * n + t * (t - 1) // 2 + m - t, t - 2)


# The closed forms, one row each: (applies to (m, t), value at (t, m, n),
# statement).  formula_value and formula_description both take the first
# row that applies, so the value and its statement cannot disagree.
_CASES = (
    (lambda m, t: t == m == 3, lambda t, m, n: rs3_formula(n), "floor(log2(n)) + 2"),
    (lambda m, t: t == m, rs_weak_formula, "ceil(((m - 3)*n + m*(m - 1)/2) / (m - 2))"),
    (lambda m, t: t == 2, rs_weak_formula, "2 (constant for n >= 2m - 4)"),
    (lambda m, t: True, rs_weak_formula, "ceil(((t - 3)*n + t*(t - 1)/2 + m - t) / (t - 2))"),
)


def _case(m: int, t: int):
    return next(case for case in _CASES if case[0](m, t))


def formula_value(m: int, n: int, t: int | None = None) -> int:
    """Front door for all closed forms; t defaults to m (the rainbow case)."""
    if t is None:
        t = m
    return _case(m, t)[1](t, m, n)


def compute_by_formula(m: int, n: int, t: int | None = None) -> ComputedNumber:
    """formula_value wrapped with its provenance tag."""
    return ComputedNumber(value=formula_value(m, n, t), method=Method.FORMULA)


def formula_description(m: int, t: int | None = None) -> str:
    """Human-readable statement of the closed form formula_value would use."""
    if t is None:
        t = m
    return _case(m, t)[2]
