"""Acceptance suite: six criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear.  Each criterion states its own tolerance; every comparison here is
exact integer equality, and the runtime ceilings are generous sanity bounds,
not benchmarks.
"""

import math
import random
import time

import pytest

from brute_oracle import brute_least_counterexample
from rschur import (
    Outcome,
    all_colorings_good,
    canonicalize,
    construct_rainbow_lower,
    construct_weak_lower,
    enumerate_solutions,
    formula_value,
    has_t_colored_solution,
    max_solution_colors,
    min_n_weak,
    search_rs,
)

WitnessMap = dict  # (m, t, n) -> list of (r, counterexample Coloring)


def counterexamples_below(m, t, n, value):
    """(r, least counterexample) at every r from 2 to below the value."""
    return [(r, all_colorings_good(m, t, n, r).witness) for r in range(2, value or 2)]


def report(number, label, failures, elapsed=None, limit=None):
    """Print the one-line verdict for a criterion, then fail on any findings."""
    status = "PASS" if not failures else "FAIL"
    timing = f"; {elapsed:.1f}s of {limit:.0f}s allowed" if limit else ""
    print(f"\n[acceptance] criterion {number} ({label}{timing}): {status}")
    assert not failures, f"criterion {number}: {failures[:10]}"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def rainbow_grid():
    """Oracle vs formula on the rainbow grid, collecting every witness."""
    witnesses: WitnessMap = {}
    rows = []
    started = time.monotonic()
    for m, n_lo, n_hi in ((3, 3, 12), (4, 6, 12), (5, 10, 13), (6, 15, 19)):
        for n in range(n_lo, n_hi + 1):
            searched = search_rs(m, m, n).value
            witnesses[(m, m, n)] = counterexamples_below(m, m, n, searched)
            rows.append((m, n, searched, formula_value(m, n)))
    return rows, witnesses, time.monotonic() - started


@pytest.fixture(scope="module")
def weak_grid():
    """Oracle vs formula on the weakened grids, collecting every witness."""
    points = []
    # t = 2 from the least n with a solution up to n = 10 or 2m - 2, across
    # the start of the constant 2 at n = 2m - 4
    for m in range(3, 12):
        for n in range(m - 1, max(11, 2 * m - 1)):
            points.append((2, m, n, max(2, 2 * m - 2 - n)))
    for m in (4, 5):
        for n in range(min_n_weak(3, m), 11):
            points.append((3, m, n, m))
    for n in range(7, 11):
        points.append((4, 5, n, math.ceil((n + 7) / 2)))
    witnesses: WitnessMap = {}
    rows = []
    started = time.monotonic()
    for t, m, n, closed_form in points:
        searched = search_rs(m, t, n).value
        witnesses[(m, t, n)] = counterexamples_below(m, t, n, searched)
        rows.append((t, m, n, searched, formula_value(m, n, t), closed_form))
    return rows, witnesses, time.monotonic() - started


@pytest.fixture(scope="module")
def small_interval_example():
    """The three-class coloring of [1, 6] with only monochromatic solutions."""
    coloring = canonicalize([1, 1, 2, 3, 1, 1])
    value = search_rs(6, 2, 6).value
    return coloring, value, counterexamples_below(6, 2, 6, value)


@pytest.fixture(scope="module")
def construction_grid():
    """All constructions for 3 <= m <= 9, every t, n up to 60."""
    rainbow = []
    for m in range(3, 10):
        for n in range(min_n_weak(m, m), 61):
            rainbow.append((m, n, construct_rainbow_lower(m, n)))
    weak = []
    for m in range(3, 10):
        for t in range(2, m + 1):
            for n in range(min_n_weak(t, m), 61):
                weak.append((t, m, n, construct_weak_lower(t, m, n)))
    return rainbow, weak


def test_criterion_1_rainbow_formula_oracle_equivalence(rainbow_grid):
    rows, _, elapsed = rainbow_grid
    failures = [
        (m, n, searched, formula)
        for m, n, searched, formula in rows
        if searched != formula
    ]
    # independent recomputation of the closed forms, not via the library
    for m, n, searched, _ in rows:
        expected = (
            n.bit_length() + 1
            if m == 3
            else math.ceil(((m - 3) * n + m * (m - 1) / 2) / (m - 2))
        )
        if searched != expected:
            failures.append((m, n, searched, "closed-form", expected))
    report(
        1,
        f"rainbow: exhaustive search equals the closed form at all {len(rows)} "
        "grid points, exact integer equality",
        failures,
        elapsed,
        300,
    )


def test_criterion_2_weak_formula_oracle_equivalence(weak_grid):
    rows, _, elapsed = weak_grid
    failures = [row for row in rows if not row[3] == row[4] == row[5]]
    report(
        2,
        f"weakened: search, formula, and stated closed form agree at all "
        f"{len(rows)} grid points, exact integer equality",
        failures,
        elapsed,
        300,
    )


def test_criterion_3_small_interval_lower_bound(small_interval_example):
    coloring, value, _ = small_interval_example
    failures = []
    maximum, _ = max_solution_colors(coloring, 6)
    if maximum != 1:
        failures.append(f"max colors {maximum} != 1")
    # an exact 3-coloring with only monochromatic solutions forces the
    # two-color threshold on [1, 6] above 3
    if coloring.r != 3:
        failures.append(f"example uses {coloring.r} colors, not 3")
    if value is None or value < 4:
        failures.append(f"searched threshold {value} not >= 4")
    report(
        3,
        "worked 3-coloring of [1, 6] shows only monochromatic solutions, "
        "so the two-color threshold exceeds 3; search agrees",
        failures,
    )


def test_criterion_4_constructions_are_extremal(construction_grid):
    rainbow, weak = construction_grid
    started = time.monotonic()
    failures = []
    for m, n, coloring in rainbow:
        if coloring.r != formula_value(m, n) - 1:
            failures.append(("rainbow-colors", m, n, coloring.r))
        found, witness = has_t_colored_solution(coloring, m, m)
        if found:
            failures.append(("rainbow-solution", m, n, str(witness)))
    for t, m, n, coloring in weak:
        if coloring.r != formula_value(m, n, t) - 1:
            failures.append(("weak-colors", t, m, n, coloring.r))
        found, witness = has_t_colored_solution(coloring, m, t)
        if found:
            failures.append(("weak-solution", t, m, n, str(witness)))
    elapsed = time.monotonic() - started
    report(
        4,
        f"{len(rainbow)} rainbow and {len(weak)} weakened constructions "
        "use exactly one color below the formula value and survive a full "
        "solution scan",
        failures,
        elapsed,
        600,
    )


def test_criterion_5_specialization_identities():
    started = time.monotonic()
    failures = []
    for n in range(6, 10**6 + 1):
        if formula_value(4, n) != (n + 7) // 2:  # integer form of ceil((n+6)/2)
            failures.append(("four-term", n))
            break
    rng = random.Random(20260814)
    for m in range(4, 51):
        base = min_n_weak(m, m)
        for n in rng.sample(range(base, base + 10**6), 100):
            # the rainbow closed form, written out apart from the weak one
            if formula_value(m, n, m) != -(-((m - 3) * n + base) // (m - 2)):
                failures.append(("t=m", m, n))
            if formula_value(m, n, 3) != m:
                failures.append(("t=3", m, n))
    elapsed = time.monotonic() - started
    report(
        5,
        "arithmetic identities: four-term ceiling form over n <= 10^6, t=m "
        "and t=3 specializations for m <= 50 on 100 sampled n each",
        failures,
        elapsed,
        120,
    )


def test_criterion_6_property_suites(
    rainbow_grid, weak_grid, small_interval_example, construction_grid
):
    started = time.monotonic()
    failures = []

    # (a) every exact coloring has exactly n - r surplus integers, those
    # whose color already appeared at a smaller one: the count that
    # `rschur check` prints as n - r
    rng = random.Random(4903)
    for _ in range(1000):
        n = rng.randint(1, 50)
        c = canonicalize([rng.randint(1, n) for _ in range(n)])
        repeats = sum(col in c.colors[:i] for i, col in enumerate(c.colors))
        if repeats != c.n - c.r:
            failures.append(("surplus", c.colors))

    # (b) downward closure: merging any two classes of a counterexample found
    # in criteria 1-3 leaves a counterexample one color down
    _, rainbow_witnesses, _ = rainbow_grid
    _, weak_witnesses, _ = weak_grid
    _, _, example_sink = small_interval_example
    pools = dict(rainbow_witnesses)
    pools.update(weak_witnesses)
    pools[(6, 2, 6)] = example_sink
    checked = 0
    for (m, t, _), sink in pools.items():
        for r, witness in sink:
            for c1 in range(1, witness.r + 1):
                for c2 in range(c1 + 1, witness.r + 1):
                    merged = canonicalize(
                        [c1 if col == c2 else col for col in witness.colors]
                    )
                    found, sol = has_t_colored_solution(merged, m, t)
                    checked += 1
                    if merged.r != r - 1 or found:
                        failures.append(("merge", m, t, witness.colors, c1, c2, sol))

    # (c) the canonical-form search agrees with checking every surjective
    # label map, for every instance on intervals up to [1, 6]; at m >= 8 the
    # interval holds no solutions at all, so larger m cannot differ
    for m in range(3, 9):
        for t in range(2, m + 1):
            for n in range(1, 7):
                for r in range(1, n + 1):
                    brute = brute_least_counterexample(m, t, n, r)
                    verdict = all_colorings_good(m, t, n, r)
                    if brute is None:
                        if verdict.outcome is not Outcome.ALL_GOOD:
                            failures.append(("labels-good", m, t, n, r))
                    elif (
                        verdict.outcome is not Outcome.COUNTEREXAMPLE
                        or verdict.witness.colors != brute
                    ):
                        failures.append(("labels-witness", m, t, n, r))

    # (d) under every rainbow block construction (m >= 4), each strictly
    # increasing solution keeps its second-smallest summand inside the head
    # block
    rainbow_constructions, _ = construction_grid
    for m, n, coloring in rainbow_constructions:
        if m == 3:
            continue
        head = sum(1 for c in coloring.colors if c == 1)
        for sol in enumerate_solutions(m, n, distinct=True):
            if sol.terms[1] > head:
                failures.append(("second-summand", m, n, sol.terms))
                break
    elapsed = time.monotonic() - started
    report(
        6,
        f"surplus count on 1000 random colorings, downward closure of all "
        f"{checked} witness merges, label-map equivalence on [1, 6], and "
        "second summands confined to the block head",
        failures,
        elapsed,
        600,
    )
