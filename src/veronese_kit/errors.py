"""Exception types shared across the package, and the budget of its rejection loops."""

#: Resample budget for rejection loops (invertible draws, chart retries, spans,
#: nonzero draws).
RETRY_BUDGET = 32


class VeroneseKitError(Exception):
    """Base class for all package errors."""


class ShapeError(VeroneseKitError):
    """Matrix or index data with the wrong dimensions."""


class FieldMismatchError(VeroneseKitError):
    """Operands attached to different coefficient fields."""


class IndexSetError(VeroneseKitError):
    """Index set not of the form required (1-based, strictly increasing, in range)."""


class DegenerateInputError(VeroneseKitError):
    """Input violates a nondegeneracy precondition (zero column, dependent points, ...)."""


class RankDeficiencyError(VeroneseKitError):
    """Matrix does not have the full rank required by the operation."""


class NotAGalePairError(VeroneseKitError):
    """The two matrices are not orthogonal complements of each other."""


class BudgetExceededError(VeroneseKitError):
    """A bounded search or resampling loop ran out of budget."""


def check_budget(count: int, budget: int, what: str) -> None:
    """Raise BudgetExceededError("{what}, over the budget of {budget}") when
    count exceeds the budget."""
    if count > budget:
        raise BudgetExceededError(f"{what}, over the budget of {budget}")
