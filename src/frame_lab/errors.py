"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: bad input or infeasible
parameters exit 2, capacity guards exit 3, failed checks exit 1.
"""


class FrameLabError(Exception):
    pass


class DomainError(FrameLabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ContractError(FrameLabError, ValueError):
    """An operation was called in a way its contract forbids."""


class CapacityError(FrameLabError, RuntimeError):
    """A size guard was exceeded (the computation would be desk-scale infeasible)."""


class InfeasibleParameters(FrameLabError, ValueError):
    """Solver parameters violate a named feasibility constraint."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        msg = f"infeasible parameters: {constraint} violated"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
