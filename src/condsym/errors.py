"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an evaluation leaves the mathematical domain of an
    expression (negative radicand, fractional power of a non-positive
    base, log of a non-positive value, and so on).

    Raised on a batch, it carries the bad rows as ``rows``, a boolean
    (P,) array; raised at one point, ``rows`` is None."""

    rows = None


class DimensionMismatch(ValueError):
    """Raised when jets, points or parameter records of incompatible
    dimension are combined."""


class BranchError(DomainError):
    """Raised when a finite transformation is requested outside the
    small-parameter branch on which it is defined."""


class ZeroDynamicalExponent(DomainError):
    """Raised when an operation that needs z != 0 is invoked with z = 0."""
