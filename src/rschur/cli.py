"""Command line front end.

Subcommands: formula, search, verify, construct, check, solutions.

Exit codes: 0 success, 1 a checked property is false, 2 domain error,
3 budget exhausted or formula/search mismatch, 64 usage error, 65 parse
error, 66 an input file cannot be read, 73 an --out file cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .colorings import (
    coloring_to_json,
    construct_weak_lower,
    has_t_colored_solution,
    max_solution_colors,
    parse_coloring,
)
from .equations import enumerate_solutions
from .errors import BudgetExceeded, ColoringParseError, DomainError
from .formulas import check_params, formula_description, formula_value
from .search import DEFAULT_MAX_NODES, SearchBudget, search_rs

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_DOMAIN = 2
EXIT_BUDGET_OR_MISMATCH = 3
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _rs_name(m: int, t: int) -> str:
    return f"RS_{m}" if t == m else f"RS_{{{t},{m}}}"


def _write(path: str, text: str) -> bool:
    """Write text to path; on failure say why on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"rschur: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_formula(args) -> int:
    print(f"{_rs_name(args.m, args.t)}({args.n}) = {formula_value(args.m, args.n, args.t)}")
    print("method: formula")
    print(f"formula: {formula_description(args.m, args.t)}")
    return EXIT_OK


def cmd_search(args) -> int:
    budget = SearchBudget(args.max_nodes, args.time_limit, args.threads)
    started = time.monotonic()
    result = search_rs(args.m, args.t, args.n, budget)
    elapsed = time.monotonic() - started
    name = _rs_name(args.m, args.t)
    if result.value is None:
        print(
            f"{name}({args.n}) is undefined: no solution of E_{args.m} in "
            f"[1, {args.n}] can show {args.t} distinct colors"
        )
        return EXIT_OK
    print(f"{name}({args.n}) = {result.value}")
    print("method: search")
    print(f"nodes explored: {result.nodes}")
    print(f"elapsed: {elapsed * 1000.0:.0f} ms")
    witness = result.witness
    if witness is not None:
        print(f"witness with {witness.r} colors: {list(witness.colors)}")
        if args.out:
            if not _write(args.out, coloring_to_json(witness) + "\n"):
                return EXIT_CANTCREAT
            print(f"witness written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n_from < 1 or args.n_from > args.n_to:
        print(
            f"rschur verify: error: need 1 <= --n-from <= --n-to, "
            f"got {args.n_from}..{args.n_to}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    budget = SearchBudget(args.max_nodes, args.time_limit, args.threads)
    # one row per n; its keys are the TSV header, in order
    rows: list[dict] = []
    for n in range(args.n_from, args.n_to + 1):
        try:
            fvalue = formula_value(args.m, n, args.t)
        except DomainError:
            fvalue = None
        started = time.monotonic()
        nodes = 0
        svalue = None
        try:
            result = search_rs(args.m, args.t, n, budget)
            svalue = result.value
            nodes = result.nodes
        except BudgetExceeded as exc:
            nodes = exc.nodes
        millis = int((time.monotonic() - started) * 1000)
        # None when the two are not comparable
        agree = (fvalue == svalue) if fvalue is not None and svalue is not None else None
        rows.append(
            {
                "m": args.m,
                "t": args.t,
                "n": n,
                "formula": fvalue,
                "search": svalue,
                "agree": agree,
                "nodes": nodes,
                "millis": millis,
            }
        )
    if args.format == "tsv":
        print("\t".join(rows[0]))
        for row in rows:
            print("\t".join("" if v is None else json.dumps(v) for v in row.values()))
    else:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    # a budget stop leaves agree empty on a row the formula defines
    if any(row["formula"] is not None and not row["agree"] for row in rows):
        return EXIT_BUDGET_OR_MISMATCH
    return EXIT_OK


def _runs(values: list[int]) -> list[list[int]]:
    """Maximal runs [a, b] of consecutive integers in an ascending list."""
    runs: list[list[int]] = []
    for x in values:
        if runs and runs[-1][1] == x - 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return runs


def _class_summary(coloring) -> str:
    """The classes in words: each shared class as a block, a progression
    {a, b, ..., z} or a union of intervals, then the singletons."""
    shared, singles = [], []
    for members in coloring.classes():
        gaps = {b - a for a, b in zip(members, members[1:])}
        if len(members) == 1:
            singles.append(members[0])
        elif gaps == {1}:
            shared.append(f"block [{members[0]}, {members[-1]}]")
        elif len(gaps) == 1:
            shown = members if len(members) <= 3 else members[:2] + ["...", members[-1]]
            shared.append("{" + ", ".join(map(str, shown)) + "}")
        else:
            shared.append(" u ".join(f"[{a}, {b}]" for a, b in _runs(members)))
    text = ", ".join(shared)
    if singles:
        listed = ", ".join(f"{a}..{b}" if a < b else f"{a}" for a, b in _runs(singles))
        text = f"{text} plus singletons {listed}" if text else f"singletons {listed}"
    return text


def cmd_construct(args) -> int:
    coloring = construct_weak_lower(args.t, args.m, args.n)
    target = formula_value(args.m, args.n, args.t)
    found, witness = has_t_colored_solution(coloring, args.m, args.t)
    if found:
        print(
            f"self-check failed: constructed coloring contains {witness} "
            f"with >= {args.t} colors",
            file=sys.stderr,
        )
        return EXIT_PROPERTY_FALSE
    document = coloring_to_json(coloring)
    summary = [
        f"n: {coloring.n}",
        f"classes: {_class_summary(coloring)}",
        f"colors used: {coloring.r} (one below {_rs_name(args.m, args.t)}({args.n}) = {target})",
        f"self-check: no solution shows >= {args.t} distinct colors",
    ]
    if args.out:
        if not _write(args.out, document + "\n"):
            return EXIT_CANTCREAT
        summary.append(f"coloring written to {args.out}")
        print("\n".join(summary))
    else:
        print("\n".join(summary), file=sys.stderr)
        print(document)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        with open(args.coloring, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"rschur: cannot read {args.coloring}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except UnicodeDecodeError as exc:
        raise ColoringParseError(
            f"{args.coloring} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    coloring = parse_coloring(text)
    maximum, witness = max_solution_colors(coloring, args.m)
    print(f"n: {coloring.n}")
    print(f"colors used: {coloring.r}")
    print(f"surplus integers: {coloring.n - coloring.r}")
    print(f"max colors over solutions: {maximum}")
    if maximum >= args.t:
        print(f"witness with >= {args.t} colors: {witness}")
        return EXIT_OK
    print(f"no solution shows >= {args.t} distinct colors")
    return EXIT_PROPERTY_FALSE


def cmd_solutions(args) -> int:
    count = 0
    for sol in enumerate_solutions(args.m, args.n, args.distinct):
        print(sol)
        count += 1
    print(f"count: {count}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rschur",
        description=(
            "Rainbow Schur numbers: closed forms, extremal colorings, and "
            "exhaustive verification over exact colorings of [1, n]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    budget_flags = argparse.ArgumentParser(add_help=False)
    budget_flags.add_argument(
        "--max-nodes",
        type=int,
        default=DEFAULT_MAX_NODES,
        help=f"search node budget (default {DEFAULT_MAX_NODES})",
    )
    budget_flags.add_argument(
        "--time-limit", type=float, default=None, help="wall clock limit in seconds"
    )
    budget_flags.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and changes nothing: the search runs in one process",
    )

    instance_flags = argparse.ArgumentParser(add_help=False)
    instance_flags.add_argument("--m", type=int, required=True, help="equation size, m >= 3")
    instance_flags.add_argument(
        "--t", type=int, default=None, help="distinct-color target (default m, the rainbow case)"
    )

    p = sub.add_parser(
        "formula",
        parents=[instance_flags],
        help="evaluate the closed form",
    )
    p.add_argument("--n", type=int, required=True, help="interval endpoint")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser(
        "search",
        parents=[instance_flags, budget_flags],
        help="compute the value by exhaustive search",
    )
    p.add_argument("--n", type=int, required=True, help="interval endpoint")
    p.add_argument("--out", default=None, help="write the witness coloring as JSON")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "verify",
        parents=[instance_flags, budget_flags],
        help="compare formula and search over a range of n",
    )
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "construct",
        parents=[instance_flags],
        help="emit the extremal coloring with one color fewer than the value",
    )
    p.add_argument("--n", type=int, required=True, help="interval endpoint")
    p.add_argument("--out", default=None, help="write the coloring as JSON")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "check",
        parents=[instance_flags],
        help="inspect a coloring file for t-colored solutions",
    )
    p.add_argument("coloring", help="path to a coloring (JSON or one text row)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solutions", help="list the solutions of E_m in [1, n]")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--distinct", action="store_true", help="only strictly increasing summands")
    p.set_defaults(func=cmd_solutions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "t" in args:
            args.t = check_params(args.m, args.t)
        return args.func(args)
    except RecursionError:
        print(
            f"rschur: domain error: m = {args.m} is too large: the solution walk "
            f"recurses m - 1 deep, past Python's limit of {sys.getrecursionlimit()}",
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    except ColoringParseError as exc:
        print(f"rschur: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"rschur: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceeded as exc:
        print(
            f"rschur: {exc} (nodes explored: {exc.nodes}, "
            f"frontier: {list(exc.frontier)})",
            file=sys.stderr,
        )
        return EXIT_BUDGET_OR_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
