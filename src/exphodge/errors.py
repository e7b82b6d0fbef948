"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so raising the right class matters:
ParseError -> 2, DegenerateInputError -> 3 (only under --require-nondegenerate),
NotFullDimensionalError -> 4, IntegrityError -> 5.
"""


class ExpHodgeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ExpHodgeError):
    """Malformed polynomial input. Carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class NotFullDimensionalError(ExpHodgeError):
    """The Newton polytope spans a proper subtorus direction only."""

    def __init__(self, dim: int, nvars: int):
        super().__init__(
            f"dim of the Newton polytope is {dim} < n = {nvars}; "
            "split off a subtorus and rerun with fewer variables"
        )
        self.dim = dim
        self.nvars = nvars


class DegenerateInputError(ExpHodgeError):
    """Input rejected because it is degenerate and the caller demanded otherwise."""


class BudgetExceededError(ExpHodgeError):
    """A bounded search (Buchberger pair queue) ran out of budget."""


class IntegrityError(ExpHodgeError):
    """An internal cross-check failed: a negative dimension, d1 d0 != 0 or
    x f' with a constant term in a cover model, a section leaving it, or a
    de Rham differential leaving its basis or level or writing an entry twice."""
