"""Solution enumeration against the naive product-based reference."""

import itertools

import pytest

import rschur.equations as equations_module
from brute_oracle import brute_distinct_solutions, brute_solutions
from rschur import (
    BudgetExceeded,
    DomainError,
    SchurSolution,
    count_solutions,
    enumerate_solutions,
    index_solutions_by_total,
    min_n_weak,
)


def as_pairs(solutions):
    return [(s.terms, s.total) for s in solutions]


class TestEnumerate:
    def test_three_variable_example(self):
        assert as_pairs(enumerate_solutions(3, 3)) == [((1, 1), 2), ((1, 2), 3)]

    def test_distinct_example(self):
        assert as_pairs(enumerate_solutions(4, 6, distinct=True)) == [((1, 2, 3), 6)]

    def test_empty_when_interval_too_short(self):
        assert list(enumerate_solutions(6, 5, distinct=True)) == []

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            list(enumerate_solutions(2, 5))
        with pytest.raises(DomainError):
            list(enumerate_solutions(3, 0))

    @pytest.mark.parametrize("m,n", [(3, 12), (4, 10), (5, 9), (6, 8), (7, 7)])
    def test_matches_brute_force(self, m, n):
        assert as_pairs(enumerate_solutions(m, n)) == brute_solutions(m, n)

    @pytest.mark.parametrize("m,n", [(3, 12), (4, 10), (5, 9)])
    def test_distinct_matches_brute_force(self, m, n):
        got = as_pairs(enumerate_solutions(m, n, distinct=True))
        assert got == brute_distinct_solutions(m, n)

    @pytest.mark.parametrize("m,n", [(3, 15), (4, 12), (6, 14)])
    def test_stream_order_and_uniqueness(self, m, n):
        sols = as_pairs(enumerate_solutions(m, n))
        assert sols == sorted(sols, key=lambda s: (s[1], s[0]))
        assert len(set(sols)) == len(sols)

    @pytest.mark.parametrize("m,n", [(3, 15), (5, 12)])
    def test_distinct_is_a_subset(self, m, n):
        multiset = set(as_pairs(enumerate_solutions(m, n)))
        distinct = set(as_pairs(enumerate_solutions(m, n, distinct=True)))
        assert distinct <= multiset

    def test_restartable(self):
        first = list(enumerate_solutions(4, 9))
        second = list(enumerate_solutions(4, 9))
        assert first == second

    def test_least_sum_solution_present(self):
        # the cheapest way to show t distinct values: m - t + 1 ones then 2..t-1
        for m in range(3, 10):
            for t in range(2, m + 1):
                total = min_n_weak(t, m)
                terms = tuple([1] * (m - t + 1) + list(range(2, t)))
                expected = SchurSolution(terms, total)
                assert expected in set(enumerate_solutions(m, total))
                assert len(set(expected.values)) == t

    def test_solution_value_helpers(self):
        sol = SchurSolution((1, 1, 2), 4)
        assert sol.values == (1, 1, 2, 4)
        assert str(sol) == "1 + 1 + 2 = 4"


class TestCount:
    @pytest.mark.parametrize(
        "m,n,distinct,expected",
        [(3, 3, True, 1), (5, 10, True, 1), (4, 7, False, 11), (3, 3, False, 2)],
    )
    def test_counts(self, m, n, distinct, expected):
        assert count_solutions(m, n, distinct) == expected

    @pytest.mark.parametrize("m,n", [(3, 20), (4, 14), (5, 13)])
    def test_count_matches_brute(self, m, n):
        assert count_solutions(m, n) == len(brute_solutions(m, n))

    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("m", range(3, 10))
    def test_count_matches_partitions_at_n60(self, m, distinct):
        # p[j][s]: partitions of s into j parts, distinct ones when asked;
        # drop 1 from every part, or remove a part equal to 1 first
        n = 60
        p = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(m - 1)]
        for j in range(1, m):
            for s in range(j, n + 1):
                p[j][s] = p[j][s - j] + p[j - 1][s - j if distinct else s - 1]
        assert count_solutions(m, n, distinct) == sum(p[m - 1])


class TestIndex:
    def test_bucket_example(self):
        index = index_solutions_by_total(3, 4)
        assert {k: as_pairs(v) for k, v in index.items()} == {
            2: [((1, 1), 2)],
            3: [((1, 2), 3)],
            4: [((1, 3), 4), ((2, 2), 4)],
        }

    def test_distinct_buckets(self):
        index = index_solutions_by_total(4, 6, distinct=True)
        assert {k: as_pairs(v) for k, v in index.items()} == {6: [((1, 2, 3), 6)]}

    def test_no_solutions_no_buckets(self):
        assert index_solutions_by_total(3, 1) == {}

    @pytest.mark.parametrize("m,n", [(3, 14), (4, 11)])
    def test_buckets_partition_the_stream(self, m, n):
        index = index_solutions_by_total(m, n)
        flattened = list(itertools.chain.from_iterable(index.values()))
        assert flattened == list(enumerate_solutions(m, n))
        for total, bucket in index.items():
            assert bucket
            assert all(sol.total == total for sol in bucket)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(equations_module, "DEFAULT_INDEX_CAP", 10)
        with pytest.raises(BudgetExceeded):
            index_solutions_by_total(3, 30)
