"""Exception types shared across the package; in_range, the one guard of
every integer floor and cap; and positive_tol, the one guard of every
tolerance.

The CLI maps these onto its exit-code contract: bad input or infeasible
parameters exit 2, capacity guards exit 3, failed checks exit 1.
"""


class FrameLabError(Exception):
    pass


class DomainError(FrameLabError, ValueError):
    """An argument is outside the domain of the operation: bad input."""


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


def in_range(name: str, value: int, low: int, cap: int | None = None) -> int:
    """value, once it lies in [low, cap]: below low is bad input
    (DomainError, exit 2), above cap a capacity guard (CapacityError,
    exit 3), and each message names the input."""
    if value < low:
        raise DomainError(f"{name} must be >= {low}")
    if cap is not None and value > cap:
        raise CapacityError(f"{name} {value} exceeds cap {cap}")
    return value


def positive_tol(tol: float) -> float:
    """tol, once it is positive and finite (DomainError, exit 2): no result
    meets a bound <= 0, and every result would meet a nan or infinite one,
    so a check would pass vacuously."""
    if not 0 < tol < float("inf"):  # also refuses nan
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    return tol
