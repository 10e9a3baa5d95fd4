"""Exception types shared across the package."""


class VolentropyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(VolentropyError):
    """Input file could not be parsed (message names the offending line)."""


class DomainError(VolentropyError):
    """A value lies outside its mathematical domain (e.g. price <= 0, d > 1)."""


class DuplicateDateError(VolentropyError):
    """Two observations share the same date."""


class InsufficientDataError(VolentropyError):
    """Not enough observations for the requested operation."""


class InfeasibleParamsError(DomainError):
    """Parameter point produced a non-positive conditional variance.

    Used as a rejection signal by the optimizer, not as a crash.
    """


class EstimationError(VolentropyError):
    """Estimation could not produce a usable optimum (all starts infeasible)."""


class DataQualityError(VolentropyError):
    """Series content makes the likelihood non-finite at every candidate."""


class BoundaryError(VolentropyError):
    """Parameters sit on a constraint boundary where the bijective
    unconstrained transform is undefined; nudge into the interior."""


class DegenerateSupportError(VolentropyError):
    """Histogram support has zero width (all observations identical).

    ``row``, when set, is the index of the offending sample among those
    binned together, such as rolling windows (0 for a single sample).
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class AutocorrUndefinedError(VolentropyError):
    """Autocorrelation of a constant series is undefined (zero variance)."""
