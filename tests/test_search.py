"""Exhaustive-search oracle: verdicts, witnesses and budgets, checked
against the unpruned growth-string reference in brute_oracle."""

import os
import subprocess
import sys
import types
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest

import rschur.search as search_module
from brute_oracle import (
    brute_has_t_colored,
    brute_least_counterexample,
    brute_scan,
    canonical_tuple,
    growth_strings,
    stirling2,
)
from rschur import (
    BudgetExceeded,
    DomainError,
    Outcome,
    SearchBudget,
    all_colorings_good,
    construct_rainbow_lower,
    enumerate_solutions,
    has_t_colored_solution,
    merge_classes,
    rs3_formula,
    rs_formula,
    rs_weak_formula,
    search_rs,
)


class TestVerdicts:
    def test_rainbow_forced_at_four_colors(self):
        # new colors must at least double in position: 1, 2, 4 leave no room
        # for a fourth color on [1, 4], so the root already prunes
        v = all_colorings_good(3, 3, 4, 4)
        assert v.outcome is Outcome.ALL_GOOD
        assert v.witness is None
        assert v.nodes_explored == 0
        # without pruning the one exact 4-coloring is reached and checked
        assert brute_scan(3, 3, 4, 4) == (None, 1)

    def test_counterexample_at_three_colors(self):
        v = all_colorings_good(3, 3, 4, 3)
        assert v.outcome is Outcome.COUNTEREXAMPLE
        assert v.witness.colors == (1, 2, 1, 3)
        found, _ = has_t_colored_solution(v.witness, 3, 3)
        assert not found

    def test_witness_matches_block_construction(self):
        v = all_colorings_good(4, 4, 6, 5)
        assert v.outcome is Outcome.COUNTEREXAMPLE
        assert v.witness == construct_rainbow_lower(4, 6)

    def test_single_color_never_shows_two(self):
        v = all_colorings_good(3, 2, 6, 1)
        assert v.outcome is Outcome.COUNTEREXAMPLE
        assert v.witness.colors == (1,) * 6

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            all_colorings_good(2, 2, 4, 2)
        with pytest.raises(DomainError):
            all_colorings_good(3, 4, 4, 2)
        with pytest.raises(DomainError):
            all_colorings_good(3, 3, 4, 5)
        with pytest.raises(DomainError):
            all_colorings_good(3, 3, 4, 0)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_small_grid_verdicts_and_witnesses(self, m):
        for t in range(2, m + 1):
            for n in range(1, 6):
                for r in range(1, n + 1):
                    brute = brute_least_counterexample(m, t, n, r)
                    v = all_colorings_good(m, t, n, r)
                    if brute is None:
                        assert v.outcome is Outcome.ALL_GOOD, (m, t, n, r)
                    else:
                        assert v.outcome is Outcome.COUNTEREXAMPLE, (m, t, n, r)
                        assert v.witness.colors == brute, (m, t, n, r)

    def test_weak_two_color_band_value(self):
        # below the band where the constant-2 answer is proven, the oracle
        # still settles the instance: four colors force a two-colored E_6
        # solution on [1, 6], three do not
        assert brute_least_counterexample(6, 2, 6, 4) is None
        witness = brute_least_counterexample(6, 2, 6, 3)
        assert witness is not None
        assert all_colorings_good(6, 2, 6, 3).witness.colors == witness
        assert search_rs(6, 2, 6).value == 4


class TestEngineModes:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_pruning_agrees_with_the_leaf_check(self, m):
        # the reference checks every solution at the leaves only and shares
        # no code with the kernel, so it checks every rule: one that prunes
        # too much loses counterexamples, one that forbids too little
        # reports colorings that are none
        for t in range(2, m + 1):
            for n in range(1, 11):
                for r in range(1, n + 1):
                    witness, leaves = brute_scan(m, t, n, r)
                    assert leaves == stirling2(n, r), (n, r)
                    v = all_colorings_good(m, t, n, r)
                    assert (v.witness and v.witness.colors) == witness, (m, t, n, r)
                    expected = Outcome.ALL_GOOD if witness is None else Outcome.COUNTEREXAMPLE
                    assert v.outcome is expected, (m, t, n, r)
                    # the first complete coloring reached ends the scan
                    assert v.leaves == (v.outcome is Outcome.COUNTEREXAMPLE), (m, t, n, r)

    def test_index_built_once_per_call(self, monkeypatch):
        calls = []
        build = search_module._closers

        def spy(m, t, n, deadline):
            calls.append((m, t, n))
            return build(m, t, n, deadline)

        monkeypatch.setattr(search_module, "_closers", spy)
        search_rs(4, 4, 8)
        assert calls == [(4, 4, 8)]
        calls.clear()
        search_rs(4, 4, 10, SearchBudget(threads=2))
        assert calls == [(4, 4, 10)]
        calls.clear()
        all_colorings_good(3, 3, 9, 4, SearchBudget(threads=2))
        assert calls == [(3, 3, 9)]

    @pytest.mark.parametrize("timed", [True, False])
    def test_no_index_below_t_colors(self, monkeypatch, timed):
        # with r < t colors no solution can show t colors, so the index
        # changes nothing: same witness, nodes and leaves as a scan with it,
        # with or without a deadline to check along the way
        budget = SearchBudget(time_limit=600.0) if timed else SearchBudget()
        calls = []
        build = search_module._closers

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(search_module, "_closers", spy)
        for m, t, n, r in [(4, 3, 16, 2), (5, 5, 9, 4), (6, 4, 8, 3), (3, 3, 1, 1)]:
            v = all_colorings_good(m, t, n, r, budget)
            assert calls == []
            found, nodes = search_module._search(
                build(m, t, n, None), m, t, n, r, SearchBudget(), 0, None
            )
            assert v.outcome is Outcome.COUNTEREXAMPLE
            assert (v.witness.colors, v.nodes_explored, v.leaves) == (found, nodes, 1)

    def test_import_leaves_the_process_pool_unloaded(self):
        # threads is accepted but starts no worker processes
        code = (
            "import sys, rschur.cli; print('multiprocessing' in sys.modules); "
            "from rschur import SearchBudget, search_rs; "
            "search_rs(4, 4, 10, SearchBudget(threads=2)); "
            "print('multiprocessing' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=str(Path(search_module.__file__).parents[1])),
            timeout=60,
        )
        assert out.stdout.split() == ["False", "False"]


class TestIndex:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_matches_the_solution_stream(self, m):
        # from every solution of E_m: its distinct summand values, kept at
        # t - 1 or more, once per (value set, total), under its largest value
        for t in range(2, m + 1):
            for n in range(1, 25):
                pairs = {
                    (tuple(sorted(set(sol.terms))), sol.total)
                    for sol in enumerate_solutions(m, n)
                }
                expected = [Counter() for _ in range(n + 1)]
                for vals, y in pairs:
                    if len(vals) >= t - 1:
                        expected[vals[-1]][vals[:-1], y] += 1
                closers = search_module._closers(m, t, n, None)
                assert [Counter(entries) for entries in closers] == expected, (m, t, n)


class TestBudgets:
    def test_node_budget_raises_with_frontier(self):
        # RS_5(19) = 16: the scan at r = 16 takes 56 nodes
        with pytest.raises(BudgetExceeded) as info:
            all_colorings_good(5, 5, 19, 16, SearchBudget(max_nodes=5))
        exc = info.value
        assert exc.nodes > 5
        assert isinstance(exc.frontier, tuple) and exc.frontier
        assert all(isinstance(c, int) for c in exc.frontier)

    def test_time_limit_raises(self):
        # the scan takes 9 nodes; the clock is read on the first
        with pytest.raises(BudgetExceeded) as info:
            all_colorings_good(3, 2, 16, 8, SearchBudget(time_limit=1e-6))
        assert (info.value.nodes, info.value.frontier) == (1, (1,))

    def test_time_limit_bounds_the_whole_call(self):
        # the scan takes 2,366,922 nodes, about 5.5 s on two cores; the limit
        # stops it part way
        budget = SearchBudget(time_limit=0.5)
        with pytest.raises(BudgetExceeded):
            all_colorings_good(6, 6, 60, 49, budget)

    def test_time_limit_covers_the_index_build(self, monkeypatch):
        # a clock that jumps past the deadline right after the call starts:
        # the index build of RS_4(160) must stop before any node is spent
        ticks = iter([0.0])
        clock = types.SimpleNamespace(monotonic=lambda: next(ticks, 1.0))
        monkeypatch.setattr(search_module, "time", clock)
        with pytest.raises(BudgetExceeded) as info:
            search_rs(4, 4, 160, SearchBudget(time_limit=0.5))
        assert info.value.nodes == 0
        assert info.value.frontier == ()

    def test_index_cap_counts_stored_entries(self, monkeypatch):
        # at m = 5 no two summand tuples share a value set and a total, so
        # every stored entry is kept
        entries = sum(map(len, search_module._closers(5, 3, 16, None)))
        monkeypatch.setattr(search_module, "DEFAULT_INDEX_CAP", entries)
        assert search_rs(5, 3, 16).value == rs_weak_formula(3, 5, 16)
        monkeypatch.setattr(search_module, "DEFAULT_INDEX_CAP", entries - 1)
        with pytest.raises(BudgetExceeded) as info:
            search_rs(5, 3, 16)
        assert info.value.nodes == 0
        with pytest.raises(BudgetExceeded):
            all_colorings_good(5, 3, 16, 3)

    def test_search_rs_budget_covers_every_r(self):
        # r = 2..27 take 36 nodes each and r = 28 takes 2,035: each fits in
        # 2,500 alone, but together they do not
        with pytest.raises(BudgetExceeded) as info:
            search_rs(5, 5, 36, SearchBudget(max_nodes=2500))
        assert info.value.nodes == 2501
        # r = 2 takes exactly 7 nodes, so the budget runs out at the end of
        # an r; the first node of r = 3 is the one past the budget
        with pytest.raises(BudgetExceeded) as info:
            search_rs(4, 4, 7, SearchBudget(max_nodes=7))
        assert info.value.nodes == 8
        assert info.value.frontier

    def test_node_budget_covers_the_whole_call(self):
        # the scan takes 8,177 nodes; the node past the budget stops it
        with pytest.raises(BudgetExceeded) as info:
            all_colorings_good(5, 5, 40, 30, SearchBudget(max_nodes=3000))
        assert info.value.nodes > 3000

    def test_node_budget_semantics(self):
        # a budget of exactly the scan's N nodes changes nothing, and each
        # smaller one stops at node b + 1; the scan visits nodes in preorder
        # of the growth-string trie, so the frontiers rise in tuple order
        instances = 0
        for m, n in product(range(3, 6), range(3, 9)):
            for t, r in product(range(3, m + 1), range(1, n + 1)):
                free = all_colorings_good(m, t, n, r)
                total = free.nodes_explored
                if not total:
                    continue
                instances += 1
                assert all_colorings_good(m, t, n, r, SearchBudget(max_nodes=total)) == free
                previous = ()
                for b in range(1, total):
                    with pytest.raises(BudgetExceeded) as info:
                        all_colorings_good(m, t, n, r, SearchBudget(max_nodes=b))
                    assert info.value.nodes == b + 1, (m, t, n, r, b)
                    assert info.value.frontier > previous, (m, t, n, r, b)
                    previous = info.value.frontier
        assert instances == 183

    def test_budget_propagates(self):
        # the scan takes 8,177 nodes and the budget runs out below depth 8;
        # the exception carries the node count and the frontier of the
        # position loop at that node
        budget = SearchBudget(max_nodes=2725)
        with pytest.raises(BudgetExceeded) as info:
            all_colorings_good(5, 5, 40, 30, budget)
        assert info.value.nodes == 2726
        assert info.value.frontier == (1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 1)

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            SearchBudget(max_nodes=0)
        # nan < 1 is false, and a NaN budget would never run out
        with pytest.raises(DomainError):
            SearchBudget(max_nodes=float("nan"))
        with pytest.raises(DomainError):
            SearchBudget(time_limit=0.0)
        with pytest.raises(DomainError):
            SearchBudget(time_limit=float("nan"))
        with pytest.raises(DomainError):
            SearchBudget(threads=0)
        with pytest.raises(DomainError):
            SearchBudget(threads=float("nan"))

    def test_exception_survives_pickling(self):
        import pickle

        exc = BudgetExceeded("node budget of 5 exhausted", nodes=6, frontier=(1, 1, 2))
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.nodes == 6
        assert clone.frontier == (1, 1, 2)
        assert str(clone) == str(exc)


# (m, t, n, value, nodes, one-thread witness)
_PINNED = [
    (3, 3, 18, 6, 96, (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1, 5, 1, 2)),
    (4, 4, 18, 12, 194, (1,) * 8 + tuple(range(2, 12))),
    (5, 5, 19, 16, 322, (1,) * 5 + tuple(range(2, 16))),
    (4, 3, 16, 4, 55, (1,) * 14 + (2, 3)),
    (5, 4, 15, 11, 145, (1,) * 6 + tuple(range(2, 11))),
    (4, 4, 28, 17, 444, (1,) * 13 + tuple(range(2, 17))),
    (4, 4, 34, 20, 642, (1,) * 16 + tuple(range(2, 20))),
]

# the m >= 4 frontier, which the scan reaches only with the look-ahead rule,
# and the weak t = 3 value, which it refutes in time only with the window
_FRONTIER = [
    (4, 4, 40, 23, 876, (1,) * 19 + tuple(range(2, 23))),
    (4, 4, 80, 43, 3_356, (1,) * 39 + tuple(range(2, 43))),
    (5, 5, 40, 30, 9_297, (1,) * 12 + tuple(range(2, 30))),
    (7, 4, 60, 35, 2_032, (1,) * 27 + tuple(range(2, 35))),
    (8, 5, 40, 31, 5_242, (1,) * 11 + tuple(range(2, 31))),
    (4, 3, 40, 4, 151, (1,) * 38 + (2, 3)),
    (7, 3, 50, 7, 329, (1,) * 45 + tuple(range(2, 7))),
]

# (m, t, all_colorings_good nodes summed over every n <= 11 and r in [1, n])
_SMALL_TOTALS = [
    (3, 2, 121), (3, 3, 272),
    (4, 2, 125), (4, 3, 310), (4, 4, 436),
    (5, 2, 141), (5, 3, 320), (5, 4, 448), (5, 5, 491),
    (6, 2, 178), (6, 3, 339), (6, 4, 463), (6, 5, 498), (6, 6, 506),
]


class TestNodeCounts:
    """Node counts are deterministic, so they are pinned exactly: a change
    to the kernel that visits other nodes shows here even when every
    verdict still agrees."""

    @staticmethod
    def _check(m, t, n, value, nodes, witness):
        result = search_rs(m, t, n)
        assert (result.value, result.nodes, result.witness.colors) == (value, nodes, witness)
        # threads is accepted and changes nothing
        par = search_rs(m, t, n, SearchBudget(threads=2))
        assert (par.value, par.nodes, par.witness) == (value, nodes, result.witness)

    @pytest.mark.parametrize("m,t,n,value,nodes,witness", _PINNED)
    def test_search_rs_capacity(self, m, t, n, value, nodes, witness):
        # the full kernel: the capacity rule, at m = t = 3 the doubling rule,
        # elsewhere the look-ahead rule and below t = m the window
        self._check(m, t, n, value, nodes, witness)

    @pytest.mark.parametrize("m,t,n,value,nodes,witness", _FRONTIER)
    def test_lookahead_frontier(self, m, t, n, value, nodes, witness):
        # without the look-ahead the m >= 4 rows take 260,748 nodes and more,
        # and without the window (4, 3, 40) takes 29,126; the budget makes a
        # weaker rule fail fast instead of running for minutes
        result = search_rs(m, t, n, SearchBudget(max_nodes=10_000))
        assert (result.value, result.nodes, result.witness.colors) == (value, nodes, witness)
        found, _ = has_t_colored_solution(result.witness, m, t)
        assert not found

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_window_ends_without_closings(self, m):
        # with no solution indexed nothing closes, so only the walk prunes;
        # with the index, the pass closes s1 + q for every colored q before
        # the walk looks there, so only an empty index shows the window's
        # ends exactly.  At t = 2, s1 = m - 2 and color 2 must first appear
        # in (n - m + 2, m - 2]: empty at n = 2m - 4, where the first node
        # refutes r = 2, and the one position m - 2 at n = 2m - 5
        for n, refuted in [(2 * m - 4, True), (2 * m - 5, False)]:
            found, nodes = search_module._search(
                [[]] * (n + 1), m, 2, n, 2, SearchBudget(), 0, None
            )
            assert (found is None, nodes == 1) == (refuted, refuted), n

    @pytest.mark.parametrize("m,t,total", _SMALL_TOTALS)
    def test_small_instances_node_totals(self, m, t, total):
        # TestEngineModes checks the verdicts against the brute reference;
        # this pins the work the kernel spends reaching them
        nodes = sum(
            all_colorings_good(m, t, n, r).nodes_explored
            for n in range(1, 12)
            for r in range(1, n + 1)
        )
        assert nodes == total

    @pytest.mark.parametrize(
        "n,value,nodes,witness",
        [
            # 1 off the multiples of 3, and 2 + the 2-adic valuation of x / 3
            # on them
            (
                28,
                6,
                133,
                [1 if x % 3 else (x // 3 & -(x // 3)).bit_length() + 1 for x in range(1, 29)],
            ),
            # 1 + the 2-adic valuation of x
            (32, 7, 202, [(x & -x).bit_length() for x in range(1, 33)]),
            (64, 8, 483, [(x & -x).bit_length() for x in range(1, 65)]),
            (128, 9, 1_115, [(x & -x).bit_length() for x in range(1, 129)]),
        ],
    )
    def test_rainbow_frontier(self, n, value, nodes, witness):
        # instances the scan reaches only with the doubling rule; the budget
        # makes a weaker rule fail fast instead of running for minutes
        result = search_rs(3, 3, n, SearchBudget(max_nodes=10_000))
        assert (result.value, result.nodes) == (value, nodes)
        assert result.witness.colors == tuple(witness)
        assert result.witness.r == value - 1
        found, _ = has_t_colored_solution(result.witness, 3, 3)
        assert not found


def _first_occurrences(labels):
    """The position of each color's first occurrence, in increasing order."""
    firsts = {}
    for x, label in enumerate(labels, 1):
        firsts.setdefault(label, x)
    return sorted(firsts.values())


class TestDoublingLemma:
    """The lemma behind the kernel's doubling rule, checked with the brute
    oracle alone: in a coloring of [1, n] with no rainbow x + y = z, first
    occurrences p < q of two colors have q >= 2p.  Otherwise q - p < p holds
    a color older than both, and (q - p) + p = q is rainbow."""

    def test_rainbow_free_colorings_double(self):
        checked = 0
        # every coloring up to renaming for n <= 6, and those with at most
        # four colors for n = 7, 8
        for n, labels in [(n, n) for n in range(1, 7)] + [(7, 4), (8, 4)]:
            for coloring in product(range(1, labels + 1), repeat=n):
                if coloring != canonical_tuple(coloring) or brute_has_t_colored(coloring, 3, 3):
                    continue
                firsts = _first_occurrences(coloring)
                assert all(q >= 2 * p for p, q in combinations(firsts, 2)), coloring
                checked += 1
        assert checked == 294

    @pytest.mark.parametrize("n", [4, 7, 8, 20, 32])
    def test_two_adic_coloring_meets_the_bound(self, n):
        # colors first appear at 1, 2, 4, ...: each exactly twice the last
        coloring = tuple((x & -x).bit_length() for x in range(1, n + 1))
        assert not brute_has_t_colored(coloring, 3, 3)
        firsts = _first_occurrences(coloring)
        assert firsts == [2**k for k in range(n.bit_length())]
        assert all(q == 2 * p for p, q in zip(firsts, firsts[1:]))


class TestLookaheadLemma:
    """The lemma behind the kernel's look-ahead rule, checked with the brute
    oracle alone: in a coloring of [1, n] with no t-colored E_m solution and
    first occurrences f_1 = 1 < f_2 < ..., set s0 = (m - t + 1) + f_2 + ... +
    f_{t-2}.  Then for each color c >= t - 1, position f_c + s0 holds one of
    the colors 1..t-2 or c: the m - t + 1 ones, f_2..f_{t-2} and f_c sum to
    it and show those t - 1 colors.  So two positions that first get colors
    t - 1 or later are never s0 apart."""

    def test_counterexamples_keep_the_look_ahead(self):
        colorings = positions = 0
        for m in range(4, 7):
            for t in range(3, m + 1):
                for n in range(1, 9):
                    for coloring in growth_strings(n):
                        if brute_has_t_colored(coloring, m, t):
                            continue
                        firsts = _first_occurrences(coloring)
                        s0 = m - t + 1 + sum(firsts[1 : t - 2])
                        for c, f in enumerate(firsts[t - 2 :], t - 1):
                            if f + s0 <= n:
                                shown = {*range(1, t - 1), c}
                                assert coloring[f + s0 - 1] in shown, (m, t, coloring)
                                positions += 1
                        colorings += 1
        assert (colorings, positions) == (28_447, 5_866)


class TestWindowLemma:
    """The window lemma below t = m, checked with the brute oracle alone: in
    a coloring of [1, n] with no t-colored E_m solution and first occurrences
    f_1 = 1 < f_2 < ..., set s1 = (m - t) + f_2 + ... + f_{t-1}.  A color
    first used at p > f_{t-1} has n - s1 < p <= s1.  Above s1, p is the total
    of 1, f_2, ..., f_{t-1} and m - t further summands; at or below n - s1,
    the m - t ones, f_2, ..., f_{t-1} and p sum to p + s1.  Either solution
    shows t colors."""

    def test_counterexamples_keep_new_colors_in_the_window(self):
        colorings = positions = 0
        for m in range(3, 7):
            for t in range(2, m):
                for n in range(1, 10):
                    for coloring in growth_strings(n):
                        if brute_has_t_colored(coloring, m, t):
                            continue
                        firsts = _first_occurrences(coloring)
                        s1 = m - t + sum(firsts[1 : t - 1])
                        for p in firsts[t - 1 :]:
                            assert n - s1 < p <= s1, (m, t, coloring)
                            positions += 1
                        colorings += 1
        assert (colorings, positions) == (57_335, 42_732)


class TestSearchRs:
    @pytest.mark.parametrize(
        "m,t,n,expected",
        [
            (3, 3, 3, 3),
            (3, 3, 8, 5),
            (4, 4, 6, 6),
            (4, 3, 6, 4),
            (6, 2, 6, 4),
            (5, 2, 6, 2),
        ],
    )
    def test_values(self, m, t, n, expected):
        result = search_rs(m, t, n)
        assert result.value == expected
        assert result.nodes > 0

    def test_agrees_with_formulas(self):
        for n in range(3, 13):
            assert search_rs(3, 3, n).value == rs3_formula(n)
        assert search_rs(4, 4, 7).value == rs_formula(4, 7)

    def test_rainbow_log_law_to_256(self):
        # every n up to 64, and both sides of the jumps at 128 and 256
        for n in [*range(3, 65), 127, 128, 255, 256]:
            assert search_rs(3, 3, n, SearchBudget(max_nodes=10_000)).value == rs3_formula(n), n

    def test_unattainable_instances(self):
        assert search_rs(4, 4, 5).value is None
        assert search_rs(3, 2, 1).value is None
        assert search_rs(3, 3, 2).value is None

    def test_witness_is_extremal(self):
        result = search_rs(4, 4, 6)
        assert result.value == 6
        assert result.witness.r == 5
        found, _ = has_t_colored_solution(result.witness, 4, 4)
        assert not found

    def test_monochromatic_witness_when_two_suffice(self):
        result = search_rs(5, 2, 6)
        assert result.value == 2
        assert result.witness.colors == (1,) * 6

    def test_counterexample_at_every_level_below_the_value(self):
        result = search_rs(4, 4, 8)
        assert result.value == rs_formula(4, 8) == 7
        for r in range(2, 7):
            witness = all_colorings_good(4, 4, 8, r).witness
            assert witness.r == r
            found, _ = has_t_colored_solution(witness, 4, 4)
            assert not found
        # the attached witness is the scan's counterexample at value - 1
        assert result.witness == witness

    def test_counterexamples_merge_downward(self):
        # merging two classes of a counterexample yields a counterexample one
        # color down, which is why the upward scan may stop at the first
        # all-good level
        value = search_rs(3, 3, 10).value
        for r in range(3, value):
            witness = all_colorings_good(3, 3, 10, r).witness
            merged = merge_classes(witness, 1, 2)
            assert merged.r == r - 1
            found, _ = has_t_colored_solution(merged, 3, 3)
            assert not found
