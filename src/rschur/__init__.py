"""Rainbow Schur numbers over [1, n].

RS_m(n) is the least r such that every exact r-coloring of [1, n] contains a
rainbow solution of x_1 + ... + x_{m-1} = x_m; RS_{t,m}(n) asks only for t
distinct colors.  The package provides the closed forms, extremal colorings
matching them, streaming solution enumeration, and an exhaustive search
oracle over canonical exact colorings, plus a command line front end.
"""

from .colorings import (
    Coloring,
    canonicalize,
    coloring_to_json,
    construct_rainbow_lower,
    construct_weak_lower,
    has_t_colored_solution,
    max_solution_colors,
    parse_coloring,
)
from .equations import (
    SchurSolution,
    count_solutions,
    enumerate_solutions,
    index_solutions_by_total,
)
from .errors import (
    BudgetExceeded,
    ColoringParseError,
    DomainError,
    RainbowSchurError,
)
from .formulas import (
    check_params,
    formula_description,
    formula_value,
    min_n_weak,
)
from .search import (
    ComputedNumber,
    Outcome,
    SearchBudget,
    Verdict,
    all_colorings_good,
    search_rs,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Coloring",
    "ColoringParseError",
    "ComputedNumber",
    "DomainError",
    "Outcome",
    "RainbowSchurError",
    "SchurSolution",
    "SearchBudget",
    "Verdict",
    "all_colorings_good",
    "canonicalize",
    "check_params",
    "coloring_to_json",
    "construct_rainbow_lower",
    "construct_weak_lower",
    "count_solutions",
    "enumerate_solutions",
    "formula_description",
    "formula_value",
    "has_t_colored_solution",
    "index_solutions_by_total",
    "max_solution_colors",
    "min_n_weak",
    "parse_coloring",
    "search_rs",
]
