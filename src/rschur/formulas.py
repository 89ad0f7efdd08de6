"""Closed-form values of rainbow and weakened rainbow Schur numbers.

RS_m(n) is the least r such that every exact r-coloring of [1, n] contains a
rainbow solution of E_m: x_1 + ... + x_{m-1} = x_m (all m values pairwise
distinctly colored).  RS_{t,m}(n) weakens "rainbow" to "uses at least t
distinct colors"; at t = m the two notions coincide.

Everything here is exact integer arithmetic: ceilings are computed with
integer division and the base-2 logarithm with bit lengths, never floats.
"""

from __future__ import annotations

from .errors import DomainError


def _ceil_div(a: int, b: int) -> int:
    # exact ceiling of a / b for a >= 0, b > 0
    return (a + b - 1) // b


def check_params(m: int, t: int | None = None, n: int = 1) -> int:
    """Check an instance against the paper's domain and return its t.

    The instance is E_m with color target t on [1, n]: m >= 3, 2 <= t <= m
    and n >= 1, where t defaults to m, the rainbow case.  t < m asks for
    solutions showing at least t distinct colors (summands may then repeat).
    Raises DomainError on the first rule broken.
    """
    if m < 3:
        raise DomainError(f"m must be at least 3, got {m}")
    t = t if t is not None else m
    if not 2 <= t <= m:
        raise DomainError(f"t must lie in [2, m] = [2, {m}], got {t}")
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    return t


def min_n_weak(t: int, m: int) -> int:
    """Least n for which E_m has a solution with at least t distinct values.

    Attained by m - t + 1 ones followed by 2, 3, ..., t - 1, which sums to
    t(t-1)/2 + m - t.  At t = m that is 1 + 2 + ... + (m-1) = m(m-1)/2, the
    least n with a rainbow solution.
    """
    check_params(m, t)
    return t * (t - 1) // 2 + m - t


def formula_value(m: int, n: int, t: int | None = None) -> int:
    """RS_{t,m}(n) in closed form, the front door for every case: m >= 3,
    2 <= t <= m with t defaulting to m (the rainbow number RS_m(n)), and
    n >= min_n_weak(t, m); below that n the value is undefined.

    - t = m = 3: floor(log2(n)) + 2, as n.bit_length() + 1.
    - 3 <= t <= m, m >= 4: ceil(((t-3)n + t(t-1)/2 + m - t) / (t-2)), which
      reduces to m at t = 3 and to the rainbow value
      ceil(((m-3)n + m(m-1)/2) / (m-2)) at t = m.
    - t = 2: max(2, 2m - 2 - n), the constant 2 from n = 2m - 4 on.

    Sketch for t = 2.  Summands lie in [1, n - m + 2] and totals in
    [m - 1, n], and each value v of those ranges lies in a solution with 1:
    as the summand of 1 + ... + 1 + v or as the total of 1 + ... + 1 +
    (v - m + 2).  So a coloring without a 2-colored solution gives all of
    them the color of 1, and only the max(0, 2m - 4 - n) values strictly
    between the ranges, which lie in no solution, are free.  Making each of
    those a singleton attains the most colors, max(1, 2m - 3 - n).
    """
    t = check_params(m, t)
    least = min_n_weak(t, m)
    if n < least:
        raise DomainError(
            f"n must be at least t(t-1)/2 + m - t = {least}, got {n}"
        )
    return _case(m, t)[1](t, m, n)


def _ceil_form(t: int, m: int, n: int) -> int:
    return _ceil_div((t - 3) * n + t * (t - 1) // 2 + m - t, t - 2)


# The closed forms, one row each: (applies to (m, t), value at (t, m, n),
# statement).  formula_value and formula_description both take the first
# row that applies, so the value and its statement cannot disagree.
_CASES = (
    (lambda m, t: t == m == 3, lambda t, m, n: n.bit_length() + 1, "floor(log2(n)) + 2"),
    (lambda m, t: t == 2, lambda t, m, n: max(2, 2 * m - 2 - n), "max(2, 2m - 2 - n)"),
    (lambda m, t: t == m, _ceil_form, "ceil(((m - 3)*n + m*(m - 1)/2) / (m - 2))"),
    (lambda m, t: True, _ceil_form, "ceil(((t - 3)*n + t*(t - 1)/2 + m - t) / (t - 2))"),
)


def _case(m: int, t: int):
    return next(case for case in _CASES if case[0](m, t))


def formula_description(m: int, t: int | None = None) -> str:
    """Human-readable statement of the closed form formula_value would use."""
    return _case(m, check_params(m, t))[2]
