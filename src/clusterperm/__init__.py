"""Permutation inference for treatment effects with a small number of
large, heterogeneous clusters.

The package computes the comparison-of-means permutation test with a
level adjustment that keeps the test valid when cluster-level variances
differ arbitrarily, plus the supporting machinery: worst-case size
bounds, Monte-Carlo level calibration, power lower bounds, per-cluster
estimators, rival cluster-robust tests, and the simulation studies that
compare them.
"""

from .errors import (
    CapacityError,
    ClusterPermError,
    ContractError,
    DegenerateDataError,
    DomainError,
    EstimationError,
    InfeasibleLevelError,
    InputFormatError,
    NumericalError,
    RankDeficientError,
    ShapeError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClusterPermError",
    "ContractError",
    "DegenerateDataError",
    "DomainError",
    "EstimationError",
    "InfeasibleLevelError",
    "InputFormatError",
    "NumericalError",
    "RankDeficientError",
    "ShapeError",
    "ValidationError",
    "__version__",
]
