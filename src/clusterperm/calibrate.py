"""Monte-Carlo calibration of the adjustment level bar_alpha.

For cluster counts without a tabulated entry, bar_alpha is found by
simulation: draw many heteroskedastic variance patterns, estimate the
rejection rate of the candidate critical value under each, and lower the
candidate level until no pattern over-rejects.  Two procedures are
provided, one that enumerates the assignment collection exactly (small
designs) and one that works on a sampled assignment collection (large
designs).  Both use common random numbers across candidate levels so the
estimated rejection rate is exactly monotone along the search path, and
both make a cheap first pass over all variance draws before re-scoring
the worst few at higher precision.

Both passes draw and count in float32 (`permkit.relabeling_counts` on a
float32 weight matrix).  Counted in float64, the same first-pass draws
give a different count on 2,252 of 3,000,000 draws (6+5, seed 3): near
ties that round the other way.  That is below the calibration's Monte
Carlo error, so the float32 arithmetic is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    InfeasibleLevelError,
    ShapeError,
)
from .permkit import (
    Design,
    RngStream,
    _as_generator,
    positive_int,
    relabeling_counts,
    sample_assignments,
    weight_matrix,
)
from .permtest import AlphaEntry, order_index_from_level, size_bound


@dataclass(frozen=True)
class CalibrationParams:
    """Knobs for the Monte-Carlo calibration procedures.

    R variance patterns are drawn with independent Beta(beta_a, beta_b)
    entries, used directly as variances.  Each candidate level gets a
    first pass of S1 simulations per pattern; the worst top_fraction of
    patterns are then re-scored with S2 simulations, and only those
    refined rates are compared against alpha (+ tolerance_eta).  epsilon
    is the level-grid step of the sampled procedure, m the assignment
    sample size, and enumeration_threshold the assignment-count cutoff
    between the exhaustive and sampled procedures.
    """

    R: int = 3000
    S1: int = 1000
    S2: int = 10_000
    top_fraction: float = 0.01
    beta_a: float = 0.1
    beta_b: float = 0.1
    tolerance_eta: float = 0.0
    epsilon: float = 0.005
    m: int = 1500
    seed: int = 0
    enumeration_threshold: int = 1500

    def __post_init__(self):
        for name in ("R", "S1", "S2", "m", "enumeration_threshold"):
            positive_int(name, getattr(self, name))
        if not (0 < self.top_fraction <= 1):
            raise DomainError(
                f"top_fraction must lie in (0,1], got {self.top_fraction}")
        for name in ("beta_a", "beta_b", "epsilon"):
            v = getattr(self, name)
            if not (v > 0) or not math.isfinite(v):
                raise DomainError(f"{name} must be a positive real, got {v!r}")
        if not (0 <= self.tolerance_eta < math.inf):
            raise DomainError(f"tolerance_eta must be finite and "
                              f"nonnegative, got {self.tolerance_eta}")
        if isinstance(self.seed, bool) or int(self.seed) != self.seed \
                or not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit integer, got {self.seed!r}")


def _checked_variances(variances, q: int) -> np.ndarray:
    v = np.asarray(variances, dtype=float)
    if v.ndim != 1 or v.size != q:
        raise ShapeError(f"variances must be a length-{q} vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v <= 0) or np.any(v > 1):
        raise DomainError("variances must all lie in (0, 1]")
    return v


def rejection_rate(design: Design, order_index_or_level, variances,
                   S: int, rng) -> float:
    """Monte-Carlo probability that the statistic exceeds the chosen
    order statistic of its fully enumerated permutation distribution,
    under independent N(0, variances) cluster estimates.

    `order_index_or_level` is either the 1-based order index j itself or
    a level p in (0,1), mapped to j = ceil((1-p)*n).
    """
    v = _checked_variances(variances, design.q)
    S = positive_int("S", S)
    n = design.n_assignments
    if isinstance(order_index_or_level, (int, np.integer)) \
            and not isinstance(order_index_or_level, bool):
        j = int(order_index_or_level)
        if not (1 <= j <= n):
            raise DomainError(f"order index must lie in [1, {n}], got {j}")
    else:
        j = order_index_from_level(order_index_or_level, n)
    x = _as_generator(rng).standard_normal((S, design.q)) * np.sqrt(v)
    return int((relabeling_counts(x, design) <= n - j).sum()) / S


# ---------------------------------------------------------------------------
# shared two-pass search engine
# ---------------------------------------------------------------------------

class _TwoPassEngine:
    """Cached per-pattern rejection counts over one assignment collection.

    Column 0 of the weight matrix must be the identity assignment.  The
    count of relabeled values >= the observed one is precomputed for
    every variance pattern at the first-pass size, so the rejection rate
    at any candidate threshold is a cheap comparison; second-pass counts
    are computed lazily per pattern and cached, which keeps the random
    numbers common across every candidate level in the search.  Both
    passes draw and count pattern by pattern.
    """

    def __init__(self, design: Design, w: np.ndarray, variances: np.ndarray,
                 params: CalibrationParams, root: RngStream):
        self.design = design
        self.w32 = np.ascontiguousarray(w, dtype=np.float32)
        self.V = variances
        self.params = params
        self.root = root
        self._c2_cache: dict[int, np.ndarray] = {}
        self._sig32 = np.sqrt(variances).astype(np.float32)
        self.c1 = np.stack([self._counts(1, r, params.S1)
                            for r in range(params.R)])

    def _counts(self, pass_: int, r: int, S: int) -> np.ndarray:
        """Counts of S float32 draws under pattern r, from the stream
        root.derived(pass_, r)."""
        gen = self.root.derived(pass_, r).generator()
        x = gen.standard_normal((S, self.design.q), dtype=np.float32)
        x *= self._sig32[r]
        return relabeling_counts(x, self.design, self.w32)

    def _second_pass_counts(self, r: int) -> np.ndarray:
        if r not in self._c2_cache:
            self._c2_cache[r] = self._counts(2, r, self.params.S2)
        return self._c2_cache[r]

    def worst_refined_rate(self, threshold: int) -> tuple[float, int, np.ndarray]:
        """(max second-pass rate, its pattern index, re-scored pattern
        indices) at the rule 'reject iff count <= threshold'.

        First-pass rates are discrete (multiples of 1/S1), so the 'worst
        top_fraction' cutoff usually falls inside a tie class; every
        pattern tied with the cutoff rate is re-scored (capped at ten
        times the nominal set size) so a borderline pattern can never be
        dropped by an arbitrary tiebreak.
        """
        rates1 = (self.c1 <= threshold).mean(axis=1)
        k = max(1, math.ceil(self.params.R * self.params.top_fraction))
        order = np.argsort(-rates1, kind="stable")
        cutoff = rates1[order[k - 1]]
        if cutoff > 0:
            n_take = int(np.searchsorted(-rates1[order], -cutoff, side="right"))
            n_take = min(max(n_take, k), 10 * k)
        else:
            n_take = k
        worst = order[:n_take]
        best_rate, best_r = -1.0, int(worst[0])
        for r in worst:
            rate = float((self._second_pass_counts(int(r)) <= threshold).mean())
            if rate > best_rate:
                best_rate, best_r = rate, int(r)
        return best_rate, best_r, worst


def _draw_variances(params: CalibrationParams, root: RngStream, q: int,
                    variance_draws) -> np.ndarray:
    if variance_draws is not None:
        V = np.asarray(variance_draws, dtype=float)
        if V.ndim != 2 or V.shape[1] != q:
            raise ShapeError(
                f"variance_draws must have shape (draws, {q}), got {V.shape}")
        if not np.all(np.isfinite(V)) or np.any(V <= 0) or np.any(V > 1):
            raise DomainError("variance_draws must all lie in (0, 1]")
        if V.shape[0] != params.R:
            raise ShapeError(
                f"variance_draws must supply R={params.R} rows, got {V.shape[0]}")
        return V
    gen = root.derived(0).generator()
    V = gen.beta(params.beta_a, params.beta_b, size=(params.R, q))
    # guard against underflow to exactly 0, which would degenerate draws
    return np.clip(V, 1e-12, 1.0)


def _diagnostics(method: str, params: CalibrationParams, root_seed,
                 engine: _TwoPassEngine, worst_idx: np.ndarray,
                 final_rate: float, final_r: int, binding, extra: dict) -> dict:
    diag = {
        "method": method,
        "seed": root_seed,
        "eta": params.tolerance_eta,
        "worst_rate": final_rate,
        "worst_variances": engine.V[final_r].tolist(),
        "top_variances": engine.V[worst_idx].tolist(),
        "binding": binding,
        "params": {
            "R": params.R, "S1": params.S1, "S2": params.S2,
            "top_fraction": params.top_fraction,
            "beta_a": params.beta_a, "beta_b": params.beta_b,
            "epsilon": params.epsilon, "m": params.m,
        },
    }
    diag.update(extra)
    return diag


def calibrate_exhaustive(design: Design, alpha: float,
                         params: CalibrationParams | None = None,
                         rng: RngStream | None = None,
                         variance_draws=None) -> AlphaEntry:
    """Search the exact permutation distribution's order statistics for
    the most liberal usable critical value.

    Starting from the next-to-most-conservative order index j = n-2, the
    index descends while no variance pattern's refined rejection rate
    exceeds alpha (+ tolerance_eta); the first violating j stops the
    search and j* = j+1 is returned with bar_alpha = 1 - j*/n.  A
    feasibility pre-check at j = n-1 raises if even the most conservative
    rule over-rejects.  `variance_draws` (shape (R, q), entries in (0,1])
    replaces the Beta draws to calibrate over a restricted variance set.
    """
    params = params or CalibrationParams()
    if not (0 < alpha < 1):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    n = design.n_assignments
    if n >= params.enumeration_threshold:
        raise CapacityError(
            f"exhaustive calibration requires fewer than "
            f"{params.enumeration_threshold} assignments, got {n}; "
            "use calibrate_sampled")
    root = rng if rng is not None else RngStream(params.seed)
    V = _draw_variances(params, root, design.q, variance_draws)
    engine = _TwoPassEngine(design, weight_matrix(design), V, params,
                            root)
    limit = alpha + params.tolerance_eta

    rate, r_idx, worst = engine.worst_refined_rate(1)  # j = n-1
    if rate > limit:
        raise InfeasibleLevelError(
            f"no usable critical value at level {alpha} for q1={design.q1}, "
            f"q0={design.q0}: even the second-largest order statistic "
            f"over-rejects (worst refined rate {rate:.4f}); the smallest "
            f"worst-case size is {size_bound(design.q1, design.q0):.6f}",
            smallest_feasible=size_bound(design.q1, design.q0))
    j_star, binding = 1, None
    final = (rate, r_idx, worst)
    for j in range(n - 2, 0, -1):
        rate, r_idx, worst = engine.worst_refined_rate(n - j)
        if rate > limit:
            j_star = j + 1
            binding = {"j": j, "rate": rate, "draw_index": r_idx}
            break
        final = (rate, r_idx, worst)
    bar_exact = Fraction(n - j_star, n)
    diag = _diagnostics(
        "exhaustive", params, None if rng is not None else params.seed,
        engine, final[2], final[0], final[1], binding,
        {"n_assignments": n, "j_star": j_star,
         "restricted": variance_draws is not None})
    return AlphaEntry(q1=design.q1, q0=design.q0, alpha=float(alpha),
                      bar_alpha=float(bar_exact), source="calibrated",
                      bar_alpha_exact=bar_exact,
                      diagnostics=diag)


def calibrate_sampled(design: Design, alpha: float,
                      params: CalibrationParams | None = None,
                      rng: RngStream | None = None,
                      start: float | None = None,
                      variance_draws=None) -> AlphaEntry:
    """Calibrate over a sampled assignment collection of size m.

    One collection (identity included) is drawn per run; candidate
    levels descend from `start` (default alpha) on the epsilon grid, and
    the first level at which no variance pattern's refined rejection
    rate exceeds alpha (+ tolerance_eta) is returned as bar_alpha.  The
    grid arithmetic is exact, so repeated runs visit identical levels.
    """
    params = params or CalibrationParams()
    if not (0 < alpha < 1):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    n = design.n_assignments
    if n < params.enumeration_threshold:
        raise ContractError(
            f"design has only {n} assignments, below the sampling threshold "
            f"{params.enumeration_threshold}; use calibrate_exhaustive")
    p0 = alpha if start is None else float(start)
    if not (0 < p0 < 1):
        raise DomainError(f"start must lie in (0,1), got {start}")
    root = rng if rng is not None else RngStream(params.seed)
    m = params.m
    draws = sample_assignments(design, m, rng=root.derived(3))
    V = _draw_variances(params, root, design.q, variance_draws)
    engine = _TwoPassEngine(design, weight_matrix(design, draws), V,
                            params, root)
    limit = alpha + params.tolerance_eta
    floor = Fraction(1, m)

    p = Fraction(float(p0))
    step = Fraction(float(params.epsilon))
    binding = None
    while p >= floor:
        j_m = order_index_from_level(p, m)
        rate, r_idx, worst = engine.worst_refined_rate(m - j_m)
        if rate <= limit:
            diag = _diagnostics(
                "sampled", params, None if rng is not None else params.seed,
                engine, worst, rate, r_idx, binding,
                {"m": m, "j_m": j_m, "grid_step": float(step),
                 "start": float(p0), "n_assignments": n,
                 "restricted": variance_draws is not None})
            return AlphaEntry(q1=design.q1, q0=design.q0, alpha=float(alpha),
                              bar_alpha=float(p), source="calibrated",
                              bar_alpha_exact=p,
                              diagnostics=diag)
        binding = {"level": float(p), "rate": rate, "draw_index": r_idx}
        p -= step
    raise InfeasibleLevelError(
        f"no level on the grid down to 1/m={float(floor):.6f} was usable at "
        f"alpha={alpha} for q1={design.q1}, q0={design.q0}; the smallest "
        f"worst-case size is {size_bound(design.q1, design.q0):.6f}",
        smallest_feasible=size_bound(design.q1, design.q0))
