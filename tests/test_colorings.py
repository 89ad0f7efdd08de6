"""Canonical colorings, solution-color detection, constructions, and I/O."""

import random
from functools import lru_cache

import pytest

import rschur.colorings as colorings_module
from brute_oracle import brute_has_t_colored
from rschur import (
    Coloring,
    ColoringParseError,
    DomainError,
    canonicalize,
    coloring_to_json,
    construct_rainbow_lower,
    construct_weak_lower,
    enumerate_solutions,
    formula_value,
    has_t_colored_solution,
    max_solution_colors,
    min_n_weak,
    parse_coloring,
)

# the worked three-class coloring of [1, 6] whose E_6 solutions are all
# monochromatic: {1, 2, 5, 6}, {3}, {4}
SPREAD_FREE_266 = canonicalize([1, 1, 2, 3, 1, 1])


class TestCanonicalize:
    def test_relabels_by_first_occurrence(self):
        c = canonicalize([2, 2, 7, 1])
        assert c.colors == (1, 1, 2, 3)
        assert c.n == 4
        assert c.r == 3

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 40)
            labels = [rng.randint(1, n) for _ in range(n)]
            once = canonicalize(labels)
            again = canonicalize(once.colors)
            assert once == again

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="at least one element"):
            canonicalize([])
        with pytest.raises(DomainError, match="at least one element"):
            Coloring(n=0, colors=(), r=0)

    def test_validation_catches_non_canonical(self):
        with pytest.raises(DomainError):
            Coloring(n=3, colors=(1, 3, 2), r=3)
        with pytest.raises(DomainError):
            Coloring(n=3, colors=(1, 1, 2), r=3)
        with pytest.raises(DomainError):
            Coloring(n=3, colors=(1, 2), r=2)

    def test_classes_view(self):
        c = canonicalize([1, 2, 2, 1, 3])
        assert c.classes() == [[1, 4], [2, 3], [5]]


class TestDetection:
    def test_spread_free_example_has_max_one(self):
        count, witness = max_solution_colors(SPREAD_FREE_266, 6)
        assert count == 1
        assert witness is not None  # some solution exists, all monochromatic

    def test_singletons_reach_rainbow(self):
        c = canonicalize(range(1, 7))
        count, witness = max_solution_colors(c, 4)
        assert count == 4
        assert (witness.terms, witness.total) == ((1, 2, 3), 6)

    def test_no_solutions_means_zero(self):
        count, witness = max_solution_colors(canonicalize([1, 2]), 4)
        assert count == 0 and witness is None

    def test_has_t_matches_threshold(self):
        found, witness = has_t_colored_solution(SPREAD_FREE_266, 6, 2)
        assert not found and witness is None
        all_singletons = canonicalize(range(1, 7))
        found, witness = has_t_colored_solution(all_singletons, 6, 2)
        assert found
        shown = {all_singletons.colors[v - 1] for v in witness.values}
        assert len(shown) >= 2

    def test_witness_is_first_in_stream_order(self):
        # both (1,3;4) and (2,2;4) are 2-colored here; (1,1;2) and (1,2;3) are not
        c = canonicalize([1, 1, 1, 2])
        found, witness = has_t_colored_solution(c, 3, 2)
        assert found
        assert (witness.terms, witness.total) == ((1, 3), 4)

    def test_rename_invariance(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(3, 24)
            labels = [rng.randint(1, 6) for _ in range(n)]
            base = canonicalize(labels)
            perm = list(range(1, base.r + 1))
            rng.shuffle(perm)
            renamed = canonicalize([perm[c - 1] for c in base.colors])
            for m in (3, 4):
                assert max_solution_colors(base, m)[0] == max_solution_colors(renamed, m)[0]

    def test_agrees_with_brute_force(self):
        rng = random.Random(97)
        for _ in range(150):
            n = rng.randint(1, 12)
            k = rng.randint(1, 7)
            labels = [rng.randint(1, k) for _ in range(n)]
            c = canonicalize(labels)
            for m in (3, 4, 5, 6):
                for t in range(2, m + 1):
                    assert has_t_colored_solution(c, m, t)[0] == brute_has_t_colored(
                        list(c.colors), m, t
                    )


@lru_cache(maxsize=None)
def all_solutions(m, n):
    return tuple(enumerate_solutions(m, n))


def first_matches(c, m):
    """{t: (found, witness)} for t in [1, m] from the plain scan: a filter
    over every solution of enumerate_solutions, in its order.  A solution
    showing m colors has m distinct values, so at t = m the first match is
    also the first among the distinct-valued solutions."""
    sols = all_solutions(m, c.n)
    shown = [len({c.colors[v - 1] for v in sol.values}) for sol in sols]
    out = {}
    for t in range(1, m + 1):
        first = next((i for i, k in enumerate(shown) if k >= t), None)
        out[t] = (False, None) if first is None else (True, sols[first])
    return out


class TestBoundedScan:
    """has_t_colored_solution skips summand prefixes that cannot reach t
    colors; it must return exactly the (found, witness) of the plain scan."""

    def test_random_colorings(self):
        rng = random.Random(4)
        found = 0
        checks = 0
        for _ in range(3000):
            m = rng.randint(3, 8)
            n = rng.randint(1, 30)
            k = rng.randint(1, 9)
            if rng.random() < 0.4:
                # one block at the bottom, like the constructions, then
                # singletons with some colors drawn from [0, k]
                head = rng.randint(1, n)
                labels = [0] * head + [
                    rng.randint(0, k) if rng.random() < 0.3 else -x
                    for x in range(head + 1, n + 1)
                ]
            else:
                labels = [rng.randint(1, k) for _ in range(n)]
            c = canonicalize(labels)
            expected = first_matches(c, m)
            for t in range(1, m + 1):
                got = has_t_colored_solution(c, m, t)
                assert got == expected[t], (labels, m, t)
                found += got[0]
                checks += 1
        # hits and misses are both common
        assert 0.3 < found / checks < 0.7

    def test_constructions_with_a_color_split_off_the_block(self):
        # one more color than the construction reaches the formula value,
        # so every such coloring has a solution showing t colors
        rng = random.Random(8)
        for m in range(4, 10):
            for t in range(3, m + 1):
                for n in range(min_n_weak(t, m), 31):
                    c = construct_weak_lower(t, m, n)
                    x = rng.choice(c.classes()[0])
                    split = canonicalize(
                        [c.r + 1 if y == x else col for y, col in enumerate(c.colors, 1)]
                    )
                    assert split.r == formula_value(m, n, t)
                    got = has_t_colored_solution(split, m, t)
                    assert got[0], (t, m, n, x)
                    assert got == first_matches(split, m)[t], (t, m, n, x)


def construction_family(m, top, vary, rng):
    """Every weak and rainbow construction for this m with n <= top, each
    passed through vary(c, rng), which may return None to skip it."""
    for t in range(2, m + 1):
        for n in range(min_n_weak(t, m), top + 1):
            c = vary(construct_weak_lower(t, m, n), rng)
            if c is not None:
                yield c


def split_block(c, rng):
    x = rng.choice(c.classes()[0])
    return canonicalize([c.r + 1 if y == x else col for y, col in enumerate(c.colors, 1)])


def merge_two(c, rng):
    if c.r < 2:
        return None
    a, b = rng.sample(range(1, c.r + 1), 2)
    return canonicalize([a if col == b else col for col in c.colors])


class TestScanMemo:
    """The failure set of has_t_colored_solution skips only subproblems it
    has already refuted, so the scan with the set disabled (cap 0) gives the
    same (found, witness), and the set cuts the recursive calls."""

    @staticmethod
    def assert_memo_free_agrees(monkeypatch, colorings, m):
        cases = [(c, t) for c in colorings for t in range(1, m + 1)]
        with_memo = [has_t_colored_solution(c, m, t) for c, t in cases]
        monkeypatch.setattr(colorings_module, "SCAN_MEMO_CAP", 0)
        for (c, t), got in zip(cases, with_memo):
            assert has_t_colored_solution(c, m, t) == got, (c.colors, m, t)

    # the split and merged variants stop at n = 45: up to n = 60 their
    # memo-free scans take about 8 s
    @pytest.mark.parametrize("m", range(4, 10))
    @pytest.mark.parametrize(
        "top, vary",
        [(60, lambda c, rng: c), (45, split_block), (45, merge_two)],
        ids=["plain", "split", "merged"],
    )
    def test_constructions(self, monkeypatch, m, top, vary):
        family = list(construction_family(m, top, vary, random.Random(m)))
        self.assert_memo_free_agrees(monkeypatch, family, m)

    def test_random_block_plus_singletons(self, monkeypatch):
        rng = random.Random(19)
        # below m = 5 the scan keeps no set
        by_m = {m: [] for m in range(5, 10)}
        for _ in range(500):
            n = rng.randint(10, 40)
            head = rng.randint(1, n // 2)
            labels = [0] * head + [
                rng.randint(0, 6) if rng.random() < 0.2 else -x for x in range(head + 1, n + 1)
            ]
            by_m[rng.randint(5, 9)].append(canonicalize(labels))
        for m, colorings in by_m.items():
            with monkeypatch.context() as patch:
                self.assert_memo_free_agrees(patch, colorings, m)

    def test_call_counts(self, monkeypatch):
        calls = 0
        tail = colorings_module._t_colored_tail

        def counted(*args):
            nonlocal calls
            calls += 1
            return tail(*args)

        monkeypatch.setattr(colorings_module, "_t_colored_tail", counted)

        def count(t, m, n):
            nonlocal calls
            calls = 0
            assert has_t_colored_solution(construct_weak_lower(t, m, n), m, t) == (False, None)
            return calls

        # at cap 0 the scan makes the calls it made before the set existed
        cases = {(4, 9, 60): 3376, (5, 9, 60): 3300, (4, 5, 60): 3122}
        assert {key: count(*key) for key in cases} == cases
        monkeypatch.setattr(colorings_module, "SCAN_MEMO_CAP", 0)
        assert {key: count(*key) for key in cases} == {
            (4, 9, 60): 33739,
            (5, 9, 60): 27139,
            (4, 5, 60): 7347,
        }


class TestMaxFromThresholdScans:
    """max_solution_colors is the first hit of has_t_colored_solution on the
    ladder t = m, m - 1, ..., 1, with the same witness, so the full solution
    walk can be replaced by threshold scans."""

    @staticmethod
    def check(c, m):
        maximum = max_solution_colors(c, m)
        hits = {t: has_t_colored_solution(c, m, t) for t in range(1, m + 1)}
        first = next((t for t in range(m, 0, -1) if hits[t][0]), None)
        assert maximum == ((0, None) if first is None else (first, hits[first][1])), (c, m)
        for t in range(1, m + 1):
            assert (maximum[0] >= t) == hits[t][0], (c, m, t)

    def test_random_colorings(self):
        rng = random.Random(14)
        for _ in range(400):
            m = rng.randint(3, 7)
            n = rng.randint(1, 22)
            k = rng.randint(1, n)
            self.check(canonicalize([rng.randint(1, k) for _ in range(n)]), m)

    def test_constructions(self):
        # the criterion-4 families, cut at n = 22: the full walks over the
        # grid up to n = 40 take about 10 s
        for m in range(3, 10):
            for t in range(2, m + 1):
                for n in range(min_n_weak(t, m), 23):
                    self.check(construct_weak_lower(t, m, n), m)


class TestConstructions:
    def test_rainbow_example(self):
        c = construct_rainbow_lower(4, 10)
        assert c.colors == (1, 1, 1, 1, 2, 3, 4, 5, 6, 7)
        assert c.r == formula_value(4, 10) - 1 == 7

    def test_rainbow_short_head(self):
        assert construct_rainbow_lower(5, 12).colors == (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
        assert construct_rainbow_lower(4, 6).colors == (1, 1, 2, 3, 4, 5)

    def test_weak_examples(self):
        c = construct_weak_lower(3, 4, 10)
        assert c.colors == (1, 1, 1, 1, 1, 1, 1, 1, 2, 3)
        assert c.r == 3
        c = construct_weak_lower(4, 5, 10)
        assert c.classes()[0] == [1, 2, 3]
        assert c.r == formula_value(5, 10, 4) - 1 == 8

    def test_weak_at_t_equal_m_is_the_rainbow_construction(self):
        for m, n in [(4, 8), (5, 12), (6, 16)]:
            assert construct_weak_lower(m, m, n) == construct_rainbow_lower(m, n)

    def test_domains(self):
        # the constructions cover the formula's domain, n >= min_n_weak(t, m)
        with pytest.raises(DomainError):
            construct_rainbow_lower(4, 5)
        with pytest.raises(DomainError):
            construct_rainbow_lower(3, 2)
        with pytest.raises(DomainError):
            construct_weak_lower(2, 5, 3)
        assert construct_weak_lower(2, 5, 4).r == formula_value(5, 4, 2) - 1
        assert construct_rainbow_lower(3, 3).r == formula_value(3, 3) - 1

    def test_two_color_class(self):
        # [1, n - m + 2] and [m - 1, n] share one color, the values between
        # are singletons
        c = construct_weak_lower(2, 7, 7)
        assert c.classes() == [[1, 2, 6, 7], [3], [4], [5]]
        assert c.r == formula_value(7, 7, 2) - 1 == 4
        for n in range(10, 20):
            assert construct_weak_lower(2, 7, n).r == 1

    def test_two_adic(self):
        c = construct_rainbow_lower(3, 12)
        assert c.colors == (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3)
        assert c.r == formula_value(3, 12) - 1
        for n in range(3, 200):
            c = construct_weak_lower(3, 3, n)
            assert c.r == formula_value(3, n) - 1
            assert not has_t_colored_solution(c, 3, 3)[0], n

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_rainbow_construction_avoids_rainbow(self, m):
        for n in range(min_n_weak(m, m), min_n_weak(m, m) + 10):
            c = construct_rainbow_lower(m, n)
            found, _ = has_t_colored_solution(c, m, m)
            assert not found

    def test_weak_construction_avoids_t_colors(self):
        for m in (4, 5):
            for t in range(3, m + 1):
                for n in range(min_n_weak(t, m), min_n_weak(t, m) + 8):
                    c = construct_weak_lower(t, m, n)
                    found, _ = has_t_colored_solution(c, m, t)
                    assert not found


class TestMerge:
    def test_drops_exactly_one_color(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 30)
            c = canonicalize([rng.randint(1, 5) for _ in range(n)])
            if c.r < 2:
                continue
            a, b = rng.sample(range(1, c.r + 1), 2)
            merged = canonicalize([a if col == b else col for col in c.colors])
            assert merged.r == c.r - 1
            assert merged.n == c.n


class TestSerialization:
    def test_json_round_trip(self):
        c = canonicalize([2, 2, 7, 1])
        text = coloring_to_json(c)
        assert text == '{"colors": [1, 1, 2, 3], "n": 4}'
        assert parse_coloring(text) == c

    def test_reader_canonicalizes_arbitrary_labels(self):
        c = parse_coloring('{"n": 4, "colors": [9, 9, 4, 2]}')
        assert c.colors == (1, 1, 2, 3)

    def test_text_row(self):
        assert parse_coloring("2 2 7 1").colors == (1, 1, 2, 3)
        assert parse_coloring("  5 5 5 ").colors == (1, 1, 1)
        assert parse_coloring('{"n": 2, "colors": [3, 4]}').colors == (1, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            '{"n": 3, "colors": [1, 2',
            "[1, 2, 3]",
            "{}",
            '{"n": 3, "colors": [1, 2]}',
            '{"n": 0, "colors": []}',
            '{"n": 2, "colors": [1, 0]}',
            '{"n": 2, "colors": [1, "a"]}',
            "1 two 3",
            "",
            "0 1 2",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ColoringParseError):
            parse_coloring(text)
