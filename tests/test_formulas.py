"""Closed forms: pinned values, domains, and arithmetic identities."""

import doctest
import inspect
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

import rschur
from rschur import (
    DomainError,
    all_colorings_good,
    canonicalize,
    check_params,
    construct_rainbow_lower,
    construct_weak_lower,
    count_solutions,
    enumerate_solutions,
    formula_description,
    formula_value,
    has_t_colored_solution,
    index_solutions_by_total,
    max_solution_colors,
    min_n_weak,
    search_rs,
)


class TestMinN:
    @pytest.mark.parametrize("m,expected", [(3, 3), (4, 6), (8, 28)])
    def test_rainbow_threshold(self, m, expected):
        assert min_n_weak(m, m) == expected

    def test_rainbow_rejects_small_m(self):
        with pytest.raises(DomainError):
            min_n_weak(2, 2)

    @pytest.mark.parametrize("t,m,expected", [(3, 4, 4), (2, 6, 5), (2, 3, 2)])
    def test_weak_threshold(self, t, m, expected):
        assert min_n_weak(t, m) == expected

    @pytest.mark.parametrize("m", range(3, 12))
    def test_weak_matches_rainbow_at_t_equal_m(self, m):
        # the least rainbow solution is 1 + 2 + ... + (m - 1)
        assert min_n_weak(m, m) == sum(range(1, m))

    def test_weak_rejects_bad_t(self):
        with pytest.raises(DomainError):
            min_n_weak(1, 5)
        with pytest.raises(DomainError):
            min_n_weak(6, 5)


class TestRs3:
    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 4), (7, 4), (8, 5), (1024, 12)])
    def test_values(self, n, expected):
        assert formula_value(3, n) == expected

    def test_below_domain(self):
        with pytest.raises(DomainError):
            formula_value(3, 2)

    @pytest.mark.parametrize("k", range(2, 61))
    def test_exact_at_powers_of_two(self, k):
        # bit-length arithmetic must not wobble where floats would round
        assert formula_value(3, 2**k - 1) == k + 1
        assert formula_value(3, 2**k) == k + 2
        assert formula_value(3, 2**k + 1) == k + 2


class TestRsFormula:
    @pytest.mark.parametrize(
        "m,n,expected", [(4, 6, 6), (4, 100, 53), (5, 13, 12), (7, 21, 21)]
    )
    def test_values(self, m, n, expected):
        assert formula_value(m, n) == expected

    def test_m3_needs_its_own_law(self):
        # the ceiling form would give the constant 3 at m = 3
        for n in range(3, 200):
            assert formula_value(3, n) == math.floor(math.log2(n)) + 2

    def test_below_domain(self):
        with pytest.raises(DomainError):
            formula_value(4, 5)
        with pytest.raises(DomainError):
            formula_value(2, 10)

    @pytest.mark.parametrize("n", range(6, 200))
    def test_four_variable_specialization(self, n):
        # the general law collapses to ceil((n + 6) / 2) at m = 4
        assert formula_value(4, n) == (n + 6 + 1) // 2

    @pytest.mark.parametrize("m", range(4, 13))
    def test_initial_plateau(self, m):
        # for the first m - 3 values of n the answer equals n itself
        base = min_n_weak(m, m)
        for i in range(m - 3):
            assert formula_value(m, base + i) == base + i

    @pytest.mark.parametrize("m", range(4, 10))
    def test_steps_are_zero_or_one(self, m):
        prev = formula_value(m, min_n_weak(m, m))
        for n in range(min_n_weak(m, m) + 1, min_n_weak(m, m) + 120):
            cur = formula_value(m, n)
            assert cur - prev in (0, 1)
            prev = cur


class TestWeakFormula:
    @pytest.mark.parametrize(
        "t,m,n,expected",
        [(2, 5, 6, 2), (2, 6, 5, 5), (2, 3, 2, 2), (3, 4, 10, 4), (4, 5, 10, 9),
         (5, 5, 12, 12), (3, 3, 10, 5)],
    )
    def test_values(self, t, m, n, expected):
        assert formula_value(m, n, t) == expected

    def test_constant_band_boundary(self):
        # RS_{2,m}(n) = max(2, 2m - 2 - n): the constant 2 starts at 2m - 4
        assert formula_value(6, 8, 2) == 2
        assert formula_value(6, 7, 2) == 3
        assert [formula_value(9, n, 2) for n in range(8, 17)] == [8, 7, 6, 5, 4, 3, 2, 2, 2]
        with pytest.raises(DomainError, match="n must be at least"):
            formula_value(6, 4, 2)  # needs n >= m - 1 = 5

    def test_below_weak_threshold(self):
        with pytest.raises(DomainError):
            formula_value(5, 6, 4)  # needs n >= 7

    def test_t_equal_m_equal_3_deferred(self):
        with pytest.raises(DomainError):
            formula_value(3, 2, 3)

    @pytest.mark.parametrize("m", range(4, 10))
    def test_matches_rainbow_at_t_equal_m(self, m):
        # the rainbow closed form, written out apart from the weak one
        for n in range(min_n_weak(m, m), min_n_weak(m, m) + 40):
            rainbow = -(-((m - 3) * n + m * (m - 1) // 2) // (m - 2))
            assert formula_value(m, n, m) == rainbow

    @pytest.mark.parametrize("m", range(4, 10))
    def test_t3_is_m_for_every_n(self, m):
        for n in range(min_n_weak(3, m), min_n_weak(3, m) + 50):
            assert formula_value(m, n, 3) == m

    def test_monotone_in_t(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(4, 12)
            n = rng.randint(min_n_weak(m, m), 4 * min_n_weak(m, m))
            values = [formula_value(m, n, t) for t in range(2, m + 1)]
            assert values == sorted(values)



def _placements(k, n):
    """(largest, sum) of each set of k integers in [2, n], once per pair;
    (1, 0) for k = 0.  The sums of k - 1 distinct integers in [2, f - 1] fill
    the whole range from 2 + ... + k to (f - 1) + ... + (f - k + 1), so the
    pairs come without walking the sets."""
    if k == 0:
        yield 1, 0
        return
    j = k - 1
    for f in range(k + 1, n + 1):
        for s in range(j * (j + 3) // 2, j * (2 * f - j - 1) // 2 + 1):
            yield f, f + s


class TestRootBounds:
    """The closed forms again from two first-position lemmas alone, with
    every position open: the window below t = m and the s0 chains at t = m.
    Each bound admits value - 1 colors and no more, so it refutes the value
    at the root of a search and never refutes value - 1."""

    @pytest.mark.parametrize("k,n", [(0, 5), (1, 7), (2, 9), (3, 10), (4, 11)])
    def test_placements_match_the_sets(self, k, n):
        sets = {
            (max(c, default=1), sum(c)) for c in combinations(range(2, n + 1), k)
        }
        pairs = list(_placements(k, n))
        assert sorted(pairs) == sorted(sets)

    @pytest.mark.parametrize(
        "t,m",
        [(2, m) for m in range(3, 15)]
        + [(t, m) for t in range(3, 6) for m in range(t + 1, 9)],
    )
    def test_window_gives_the_weak_value(self, t, m):
        # colors 1..t-1 first at 1 < f_2 < ... < f_{t-1}, s1 = (m - t) +
        # f_2 + ... + f_{t-1}: a later new color lies in (max(f_{t-1},
        # n - s1), min(n, s1)], so the most colors are t - 1 plus the
        # widest window, and that is the value minus 1
        for n in range(min_n_weak(t, m), 41 if t == 5 else 61):
            widest = max(
                min(n, m - t + s) - max(f, n - (m - t + s)) for f, s in _placements(t - 2, n)
            )
            assert max(0, widest) + t - 1 == formula_value(m, n, t) - 1, n

    @pytest.mark.parametrize("m,top", [(4, 120), (5, 80), (6, 60), (7, 45)])
    def test_lift_gives_the_rainbow_value(self, m, top):
        # colors 1..m-2 first at 1 < f_2 < ... < f_{m-2}, s0 = 1 + f_2 +
        # ... + f_{m-2}: the N = n - f_{m-2} positions after f_{m-2} split
        # into s0 chains, e of q + 1 positions and s0 - e of q with q, e =
        # divmod(N, s0); no two new colors are s0 apart, so a chain of L
        # positions holds ceil(L / 2) of them
        for n in range(min_n_weak(m, m), top + 1):
            most = 0
            for f, s in _placements(m - 3, n):
                q, e = divmod(n - f, 1 + s)
                most = max(most, e * (q + 2 >> 1) + (1 + s - e) * (q + 1 >> 1))
            assert most == formula_value(m, n) - (m - 1), n


class TestFrontDoor:
    def test_dispatch(self):
        assert formula_value(3, 8) == 5
        assert formula_value(4, 100) == 53
        assert formula_value(5, 10, t=2) == 2
        assert formula_value(6, 6, t=2) == 4
        assert formula_value(3, 10, t=3) == 5
        assert formula_value(5, 10, t=4) == 9
        assert formula_value(4, 50, t=4) == formula_value(4, 50) == 28


class TestProblemParams:
    """check_params, the one statement of the instance domain."""

    def test_valid(self):
        assert check_params(5, 5, 12) == 5

    def test_t_defaults_to_m(self):
        assert check_params(5) == 5
        assert check_params(6, n=4) == 6

    def test_weak_domain(self):
        # any n >= 1 is an instance; the value is defined from min_n_weak on
        assert check_params(6, 2, 4) == 2
        assert formula_value(6, 5, t=2) == 5
        with pytest.raises(DomainError):
            formula_value(6, 4, t=2)

    @pytest.mark.parametrize("m,t,n", [(2, 2, 5), (4, 1, 5), (4, 5, 5), (4, 4, 0)])
    def test_invalid(self, m, t, n):
        with pytest.raises(DomainError):
            check_params(m, t, n)


_ONES = canonicalize([1] * 20)

# every public function that takes m and t, called as f(m, t) on [1, 20]
_TAKES_M_AND_T = {
    "check_params": lambda m, t: check_params(m, t, 20),
    "min_n_weak": lambda m, t: min_n_weak(t, m),
    "formula_value": lambda m, t: formula_value(m, 20, t),
    "formula_description": lambda m, t: formula_description(m, t),
    "has_t_colored_solution": lambda m, t: has_t_colored_solution(_ONES, m, t),
    "construct_weak_lower": lambda m, t: construct_weak_lower(t, m, 20),
    "all_colorings_good": lambda m, t: all_colorings_good(m, t, 20, 3),
    "search_rs": lambda m, t: search_rs(m, t, 20),
}
# and every one that takes m, those without t ignoring it
_TAKES_M = {
    **_TAKES_M_AND_T,
    "enumerate_solutions": lambda m, t: list(enumerate_solutions(m, 20)),
    "count_solutions": lambda m, t: count_solutions(m, 20),
    "index_solutions_by_total": lambda m, t: index_solutions_by_total(m, 20),
    "max_solution_colors": lambda m, t: max_solution_colors(_ONES, m),
    "construct_rainbow_lower": lambda m, t: construct_rainbow_lower(m, 20),
}


class TestOneDomain:
    @pytest.mark.parametrize("name", sorted(_TAKES_M))
    def test_rejects_m_below_3(self, name):
        with pytest.raises(DomainError, match="m must be at least 3, got 2"):
            _TAKES_M[name](2, 2)

    @pytest.mark.parametrize("name", sorted(_TAKES_M_AND_T))
    def test_rejects_t_above_m(self, name):
        with pytest.raises(DomainError, match=r"t must lie in \[\d, m\] = \[\d, 4\], got 5"):
            _TAKES_M_AND_T[name](4, 5)


PUBLIC = [
    "BudgetExceeded", "Coloring", "ColoringParseError", "ComputedNumber",
    "DomainError", "Outcome", "RainbowSchurError", "SchurSolution",
    "SearchBudget", "Verdict", "all_colorings_good", "canonicalize",
    "check_params", "coloring_to_json", "construct_rainbow_lower",
    "construct_weak_lower", "count_solutions", "enumerate_solutions",
    "formula_description", "formula_value", "has_t_colored_solution",
    "index_solutions_by_total", "max_solution_colors", "min_n_weak",
    "parse_coloring", "search_rs",
]


class TestPublicSurface:
    """Every export is deliberate, and the domain tables above name every
    public function that takes m, or m and t."""

    def test_exports(self):
        assert rschur.__all__ == PUBLIC
        for name in PUBLIC:
            assert getattr(rschur, name) is not None

    def test_domain_tables_cover_every_function(self):
        functions = {
            name: inspect.signature(obj).parameters
            for name in rschur.__all__
            if callable(obj := getattr(rschur, name)) and not inspect.isclass(obj)
        }
        assert {name for name, params in functions.items() if "m" in params} == set(_TAKES_M)
        assert {
            name for name, params in functions.items() if {"m", "t"} <= params.keys()
        } == set(_TAKES_M_AND_T)

    def test_readme_examples_run(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        failed, tried = doctest.testfile(str(readme), module_relative=False)
        assert tried > 0 and failed == 0
