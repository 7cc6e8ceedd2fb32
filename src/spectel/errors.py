"""Exception taxonomy shared across the package."""


class SpectelError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpectelError, ValueError):
    """An argument violates a documented precondition or invariant."""


class ResourceLimitError(SpectelError):
    """A computation would hold more bytes than the memory cap."""


class NumericalContractError(SpectelError):
    """A numerical result violated a tolerance the algorithm guarantees."""


class StatisticalContractError(SpectelError):
    """A Monte Carlo estimate lacks the sample support its contract requires."""
