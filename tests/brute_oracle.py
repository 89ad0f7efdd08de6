"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: solutions come from a raw cartesian
product over summand tuples, and coloring searches either iterate over
every label map r^n or walk every growth string and check it only once it
is complete.  Slow, but an uncorrelated check on the package's streaming
enumeration and pruned search; nothing here imports the package.
"""

from functools import lru_cache
from itertools import product


@lru_cache(maxsize=None)
def brute_solutions(m, n):
    """All solutions of E_m in [1, n] as (sorted terms, total), by product."""
    found = set()
    for terms in product(range(1, n + 1), repeat=m - 1):
        total = sum(terms)
        if total <= n:
            found.add((tuple(sorted(terms)), total))
    return sorted(found, key=lambda s: (s[1], s[0]))


def brute_distinct_solutions(m, n):
    return [s for s in brute_solutions(m, n) if len(set(s[0])) == m - 1]

def brute_solution_colors(labels, sol):
    """Distinct colors over a solution's values; labels is 1-based via index."""
    terms, total = sol
    return len({labels[v - 1] for v in terms + (total,)})


def brute_has_t_colored(labels, m, t):
    sols = brute_solutions(m, len(labels))
    return any(brute_solution_colors(labels, s) >= t for s in sols)


def canonical_tuple(labels):
    ids, out = {}, []
    for lab in labels:
        if lab not in ids:
            ids[lab] = len(ids) + 1
        out.append(ids[lab])
    return tuple(out)


@lru_cache(maxsize=None)
def growth_strings(n):
    """Every coloring of [1, n] up to renaming, as a restricted growth
    string, in lexicographic order: each entry is at most one more than the
    largest before it."""
    strings = [()]
    for _ in range(n):
        strings = [s + (c,) for s in strings for c in range(1, max(s, default=0) + 2)]
    return tuple(strings)


@lru_cache(maxsize=None)
def _leaves(n, r):
    return tuple(s for s in growth_strings(n) if max(s) == r)


def brute_scan(m, t, n, r):
    """The unpruned reference for the search kernel: walks the growth
    strings of [1, n] in lexicographic order and checks each one with
    exactly r colors, a leaf, with brute_has_t_colored.

    Returns (the least leaf with no t-colored solution or None, the number
    of leaves), which should be S(n, r): every partition of [1, n] into r
    classes, once.
    """
    leaves = _leaves(n, r)
    witness = next((s for s in leaves if not brute_has_t_colored(s, m, t)), None)
    return witness, len(leaves)


def brute_least_counterexample(m, t, n, r):
    """Lexicographically least canonical exact r-coloring of [1, n] with no
    t-colored solution, or None when every one has such a solution.

    Scans all r^n label maps and filters to the surjective ones.
    """
    best = None
    for labels in product(range(1, r + 1), repeat=n):
        if len(set(labels)) != r:
            continue
        if not brute_has_t_colored(labels, m, t):
            canon = canonical_tuple(labels)
            if best is None or canon < best:
                best = canon
    return best


def stirling2(n, r):
    """Partition count S(n, r) by the usual recurrence."""
    if r < 0 or r > n:
        return 0
    row = [1] + [0] * r
    for i in range(1, n + 1):
        new = [0] * (r + 1)
        for j in range(1, min(i, r) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[r]
