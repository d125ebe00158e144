"""Exception hierarchy for clusterperm.

Every error raised by this package derives from :class:`ClusterPermError`,
so callers can catch one type at an API boundary.  Validation problems
(bad shapes, out-of-domain arguments, malformed input files) derive from
:class:`ValidationError`; numerical failures (non-convergence, budget
exhaustion) derive from :class:`NumericalError`.
"""

from __future__ import annotations


class ClusterPermError(Exception):
    """Base class for all errors raised by clusterperm."""


class ValidationError(ClusterPermError):
    """Bad input: wrong shape, out-of-domain value, malformed file."""


class ShapeError(ValidationError):
    """Array input has the wrong shape or length."""


class DomainError(ValidationError):
    """Scalar argument outside its mathematical domain."""


class CapacityError(ValidationError):
    """Requested enumeration exceeds the configured size cap."""


class ContractError(ValidationError):
    """A documented precondition was violated by the caller."""


class InfeasibleLevelError(ValidationError):
    """No usable critical value exists at the requested level.

    Carries ``smallest_feasible`` when a worst-case size bound is
    available for the cluster-count pair, so callers can report the
    smallest level at which the test is guaranteed to work.
    """

    def __init__(self, message: str, smallest_feasible: float | None = None):
        super().__init__(message)
        self.smallest_feasible = smallest_feasible


class DegenerateDataError(ValidationError):
    """Data admit no meaningful fit (constant outcome, separation, etc.)."""


class EstimationError(ClusterPermError):
    """A per-cluster or pooled fit failed; message names the cluster."""


class RankDeficientError(EstimationError):
    """Design matrix is rank deficient within a cluster or pooled fit."""


class InputFormatError(ValidationError):
    """Malformed CSV or config input; message carries the offending row."""


class NumericalError(ClusterPermError):
    """An iterative routine failed to reach its tolerance.

    ``partial`` holds the best estimate available at the point of
    failure, when one exists.
    """

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial


class DegeneracyWarning(UserWarning):
    """Data were degenerate (e.g. constant estimates); a conservative
    answer was returned instead of an error."""
