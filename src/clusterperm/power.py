"""Lower bound on the power of the adjusted test.

Whenever bar_alpha is at least one over the number of assignments, the
test rejects at least on the event that every treated estimate exceeds
every control estimate.  For independent normal estimates that event
probability has a one-dimensional integral form: with F0 the cdf of the
largest control estimate,

    integral over t in (0,1) of  prod_j Phi((delta - F0^{-1}(t)) / sigma_j)

where j runs over treated clusters.  This module evaluates F0, its
inverse, and the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, DomainError, NumericalError, ShapeError
from .numerics import (
    Tolerance,
    adaptive_quadrature,
    std_normal_cdf,
    std_normal_quantile,
)

_T_EDGE = 1e-10          # integration window is (edge, 1 - edge)
_INVERSE_TOL = 1e-10     # |F0(result) - t| tolerance for the inverse


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


def f0_cdf(x: float, spec: PowerSpec) -> float:
    """Probability that the largest control estimate is at most x."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    out = 1.0
    for s in spec.sigmas_control:
        out *= std_normal_cdf(x / s)
    return out


def f0_inverse(t: float, spec: PowerSpec) -> float:
    """The x with f0_cdf(x) = t, located to |f0_cdf(x) - t| <= 1e-10.

    An analytic bracket comes from the equal-sigma solution: with
    g = Phi^{-1}(t^(1/q0)), the points g*min(sigma) and g*max(sigma)
    straddle the root, because replacing every sigma by the smallest
    (largest) one only raises (lowers) the cdf at positive arguments and
    conversely at negative ones.  The bracket is widened geometrically
    if rounding at extreme inputs leaves the root outside, then closed
    by bisection.
    """
    t = float(t)
    if not (0.0 < t < 1.0):
        raise DomainError(f"t must lie strictly inside (0,1), got {t}")
    g = std_normal_quantile(math.exp(math.log(t) / spec.q0))
    s_min = min(spec.sigmas_control)
    s_max = max(spec.sigmas_control)
    if g >= 0:
        lo, hi = g * s_min, g * s_max
    else:
        lo, hi = g * s_max, g * s_min
    pad = 1e-8 * (1.0 + abs(g) * s_max)
    lo, hi = lo - pad, hi + pad
    span = max(hi - lo, 1.0)
    for _ in range(100):
        if f0_cdf(lo, spec) <= t:
            break
        lo -= span
        span *= 2.0
    else:
        raise BracketError(f"no lower bracket for f0_inverse at t={t}")
    span = max(hi - lo, 1.0)
    for _ in range(100):
        if f0_cdf(hi, spec) >= t:
            break
        hi += span
        span *= 2.0
    else:
        raise BracketError(f"no upper bracket for f0_inverse at t={t}")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = f0_cdf(mid, spec)
        if abs(val - t) <= _INVERSE_TOL:
            return mid
        if val < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-30 * (1.0 + abs(mid)):
            return mid
    raise NumericalError(
        f"f0_inverse failed to reach tolerance at t={t}",
        partial=0.5 * (lo + hi))


def _knots(spec: PowerSpec) -> list[float]:
    """Breakpoints in t for piecewise integration.

    The integrand's variation happens where the treated normal cdfs
    transition (x within a few treated sigmas of delta) and where F0
    itself moves (x within a few control sigmas of zero).  Mapping an
    x-grid over those scales through F0 yields t-knots that keep each
    piece's feature size comparable to its width; without them, a large
    delta pushes the whole transition into an exponentially thin layer
    at t near 1 that uniform adaptive refinement cannot reach.
    """
    s_t = max(spec.sigmas_treated)
    s_c = max(spec.sigmas_control)
    xs = [spec.delta + s_t * k for k in range(-12, 13)]
    xs += [s_c * k for k in range(-12, 13, 2)]
    ts = sorted({f0_cdf(x, spec) for x in xs})
    lo, hi = _T_EDGE, 1.0 - _T_EDGE
    out = [lo]
    for t in ts:
        if out[-1] + 1e-14 < t < hi - 1e-14:
            out.append(t)
    out.append(hi)
    return out


def power_lower_bound(spec: PowerSpec) -> float:
    """The guaranteed-rejection probability P(min treated > max control)
    for independent normal estimates with mean delta on treated clusters
    and mean 0 on controls."""

    def integrand(t: float) -> float:
        x = f0_inverse(t, spec)
        out = 1.0
        for s in spec.sigmas_treated:
            out *= std_normal_cdf((spec.delta - x) / s)
        return out

    knots = _knots(spec)
    budget = 1e-9 / (len(knots) - 1)
    tol = Tolerance(abs_tol=budget, rel_tol=0.0, max_iter=20_000)
    val = 0.0
    for a, b in zip(knots, knots[1:]):
        val += adaptive_quadrature(integrand, a, b, tol)
    return min(1.0, max(0.0, val))
