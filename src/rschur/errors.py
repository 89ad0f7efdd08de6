"""Exception types shared across the package."""


class RainbowSchurError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RainbowSchurError, ValueError):
    """Arguments fall outside an operation's stated domain."""


class ColoringParseError(RainbowSchurError, ValueError):
    """A coloring file or string could not be parsed."""


class BudgetExceeded(RainbowSchurError, RuntimeError):
    """A search or enumeration ran past its configured resource budget.

    Carries the number of nodes explored so far and, for tree searches, the
    partial color assignment that was current when the budget ran out.
    """

    def __init__(self, message: str, nodes: int = 0, frontier: tuple = ()):
        super().__init__(message)
        self.nodes = nodes
        self.frontier = tuple(frontier)
