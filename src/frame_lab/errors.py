"""The package's two refusals: DomainError, bad input or infeasible
parameters (exit 2), and CapacityError, a capacity guard (exit 3); in_range,
the one guard of every integer floor and cap; and positive_tol, the one
guard of every tolerance.

The CLI maps the two types onto its exit-code contract, the type alone
giving the exit code; failed checks exit 1.
"""


class DomainError(ValueError):
    """An argument is outside the domain of the operation: bad input, or
    parameters that violate a named feasibility constraint."""


class CapacityError(RuntimeError):
    """A size guard was exceeded (the computation would be desk-scale infeasible)."""


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
