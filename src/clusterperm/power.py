"""Lower bound on the power of the adjusted test.

Whenever bar_alpha is at least one over the number of assignments, the
test rejects at least on the event that every treated estimate exceeds
every control estimate.  For independent normal estimates that event
probability is one integral over the largest control estimate x:

    integral of  f0'(x) * prod_j Phi((delta - x) / sigma_j)  dx

where j runs over treated clusters and F0(x) = prod_k Phi(x / s_k) is
the cdf of the largest control estimate, so that
f0'(x) = F0(x) * sum_k phi(x/s_k) / (s_k Phi(x/s_k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError

# The window spans this many sigmas on either side of the control and
# treated distributions; the mass it leaves out is below q * Phi(-10).
# Breakpoints sit at the same reach around 0 and delta for every sigma,
# so no cluster's feature, tails included, hides inside a subinterval
# much wider than that sigma.
_WINDOW_SIGMAS = 10.0
_BREAK_SIGMAS = (-_WINDOW_SIGMAS, -3.0, 0.0, 3.0, _WINDOW_SIGMAS)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class PowerSpec:
    """Effect size plus per-cluster standard deviations, treated first."""

    delta: float
    sigmas_treated: tuple[float, ...]
    sigmas_control: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if not math.isfinite(self.delta):
            raise DomainError(f"delta must be finite, got {self.delta}")
        for name in ("sigmas_treated", "sigmas_control"):
            raw = getattr(self, name)
            sig = tuple(float(s) for s in raw)
            if not sig:
                raise ShapeError(f"{name} must be nonempty")
            if any(not math.isfinite(s) or s <= 0 for s in sig):
                raise DomainError(f"{name} must be strictly positive, got {raw!r}")
            object.__setattr__(self, name, sig)

    @property
    def q1(self) -> int:
        return len(self.sigmas_treated)

    @property
    def q0(self) -> int:
        return len(self.sigmas_control)


def power_lower_bound(spec: PowerSpec) -> float:
    """The guaranteed-rejection probability P(min treated > max control)
    for independent normal estimates with mean delta on treated clusters
    and mean 0 on controls.

    The integrand is evaluated in log space, so neither tail underflows
    early.  One adaptive quadrature runs over the window where the
    largest control estimate lives and the treated ones have not all
    dropped below it, with breakpoints at multiples of every sigma
    around 0 and delta.  Non-convergence raises NumericalError carrying
    the partial value.
    """
    from scipy.integrate import quad
    from scipy.special import log_ndtr

    s_c = np.array(spec.sigmas_control)
    s_t = np.array(spec.sigmas_treated)
    delta = spec.delta
    lo = -_WINDOW_SIGMAS * s_c.max()
    hi = min(-lo, delta + _WINDOW_SIGMAS * s_t.max())
    if hi <= lo:
        return 0.0
    log_s_c = np.log(s_c)

    def integrand(x: float) -> float:
        z = x / s_c
        log_cdf = log_ndtr(z)
        # log F0(x) + log of the treated survival product, plus the log
        # of each cluster's share phi/(s Phi) of f0'/F0
        log_common = log_cdf.sum() + log_ndtr((delta - x) / s_t).sum()
        log_share = -0.5 * z * z - _LOG_SQRT_2PI - log_s_c - log_cdf
        return float(np.exp(log_common + log_share).sum())

    offsets = np.array(_BREAK_SIGMAS)
    points = np.unique(np.concatenate([np.outer(s_c, offsets).ravel(),
                                       delta + np.outer(s_t, offsets).ravel()]))
    points = points[(points > lo) & (points < hi)]
    out = quad(integrand, lo, hi, points=points, epsabs=1e-11, epsrel=1e-10,
               limit=50 * (points.size + 1), full_output=1)
    if len(out) == 4:
        raise NumericalError(f"power bound quadrature did not converge: "
                             f"{out[3]}", partial=out[0])
    return min(1.0, max(0.0, out[0]))
