"""Exception types shared across the package, and the DP's default state budget."""


class FairconError(Exception):
    """Base class for all faircon errors."""


class InvalidInstanceError(FairconError, ValueError):
    """Instance data is malformed (shapes, ranges)."""


class NoViableAgentError(InvalidInstanceError):
    """Some task has no agent with nonnegative welfare p*r - c.

    Such a task can never be part of a full-allocation contract, so the
    instance is rejected at construction time.
    """

    def __init__(self, task: int):
        self.task = task
        super().__init__(f"task {task} has no agent with p*r - c >= 0")


class DimensionMismatchError(FairconError, ValueError):
    """Contract or allocation dimensions do not match the instance."""


class BudgetExceededError(FairconError):
    """A solver ran out of its LP-solve or DP-state budget."""

    def __init__(self, kind: str, limit: int, needed: int | None = None):
        self.kind = kind
        self.limit = limit
        self.needed = needed
        detail = f" (needs ~{needed})" if needed is not None else ""
        super().__init__(f"{kind} budget of {limit} exceeded{detail}")


# The DP's default state budget; the CLI reads it here without importing numpy.
DEFAULT_STATE_BUDGET = 5_000_000
