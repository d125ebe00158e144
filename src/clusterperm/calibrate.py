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
float32 0/1 treated-indicator matrix).  Counted in float64, the same
first-pass draws give a different count on 2,943 of 3,000,000 draws
(6+5, seed 3): near ties that round the other way.  That is below the
calibration's Monte Carlo error, so the float32 arithmetic is kept.

Each variance pattern is scored on its own random stream, so the
patterns of a pass are scored on a pool of threads, one per CPU the
process may use, and the results do not depend on how many there are.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

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
    count_dtype,
    positive_int,
    relabeling_counts,
    sample_assignments,
    seed_int,
    weight_matrix,
)
from .permtest import AlphaEntry, check_alpha, order_index_from_level, size_bound

# Designs with fewer assignments than this are calibrated over their full
# assignment collection (calibrate_exhaustive), larger ones over a sample
# of m assignments (calibrate_sampled).
ENUMERATION_THRESHOLD = 1500
# the CalibrationParams fields that only calibrate_sampled reads
SAMPLED_PARAMS = ("epsilon", "m")


@dataclass(frozen=True)
class CalibrationParams:
    """Knobs for the Monte-Carlo calibration procedures.

    R variance patterns are drawn with independent Beta(beta_a, beta_b)
    entries, used directly as variances.  Each candidate level gets a
    first pass of S1 simulations per pattern; the worst top_fraction of
    patterns are then re-scored with S2 simulations, and only those
    refined rates are compared against alpha (+ tolerance_eta).  epsilon
    is the level-grid step of the sampled procedure and m the assignment
    sample size.
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

    def __post_init__(self):
        for name in ("R", "S1", "S2", "m"):
            object.__setattr__(self, name,
                               positive_int(name, getattr(self, name)))
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
        object.__setattr__(self, "seed", seed_int("seed", self.seed))


# ---------------------------------------------------------------------------
# shared two-pass search engine
# ---------------------------------------------------------------------------

def _cpus() -> int:
    """The number of CPUs this process may run on (all of them where the
    platform has no affinity call, as on macOS and Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pattern_map(fn, patterns) -> list:
    """[fn(r) for r in patterns], on one thread per CPU this process may
    use; serial on one CPU.  fn's numpy work releases the interpreter
    lock, so the threads run it in parallel."""
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_cpus(), len(patterns))
    if workers <= 1:
        return [fn(r) for r in patterns]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, patterns))


class _TwoPassEngine:
    """Cached per-pattern rejection counts over one assignment collection.

    Column 0 of the weight matrix must be the identity assignment.  The
    count of relabeled values >= the observed one is precomputed for
    every variance pattern at the first-pass size, so the rejection rate
    at any candidate threshold is a cheap comparison; second-pass counts
    are computed lazily per pattern and cached, which keeps the random
    numbers common across every candidate level in the search.  Each
    pattern draws from its own stream, root.derived(pass, r), and its
    counts go to their own row of c1 or cache entry, so both passes
    score their patterns in parallel (`_pattern_map`) and every count is
    the same whatever the thread count.
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
        self.c1 = np.empty((params.R, params.S1),
                           dtype=count_dtype(self.w32.shape[1]))

        def first_pass(r: int) -> None:
            self.c1[r] = self._counts(1, r, params.S1)

        _pattern_map(first_pass, range(params.R))

    def _counts(self, pass_: int, r: int, S: int) -> np.ndarray:
        """Counts of S float32 draws under pattern r, from the stream
        root.derived(pass_, r)."""
        gen = self.root.derived(pass_, r).generator()
        x = gen.standard_normal((S, self.design.q), dtype=np.float32)
        x *= self._sig32[r]
        return relabeling_counts(x, self.design, self.w32)

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
        new = [r for r in worst.tolist() if r not in self._c2_cache]
        counts = _pattern_map(
            lambda r: self._counts(2, r, self.params.S2), new)
        self._c2_cache.update(zip(new, counts))
        best_rate, best_r = -1.0, int(worst[0])
        for r in worst:
            rate = float((self._c2_cache[int(r)] <= threshold).mean())
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


def _rate_se(rate: float, params: CalibrationParams) -> float:
    """Monte Carlo standard error of a second-pass rejection rate."""
    return math.sqrt(rate * (1.0 - rate) / params.S2)


def _diagnostics(method: str, params: CalibrationParams, alpha: float,
                 engine: _TwoPassEngine, worst_idx: np.ndarray,
                 final_rate: float, final_r: int, binding, extra: dict) -> dict:
    """The calibration's diagnostics object.  binding, the rejected step
    next to the result (or None), gains the standard error of its rate
    and its margin over alpha + eta in standard errors (None at a zero
    standard error, where every draw rejected)."""
    if binding is not None:
        se = _rate_se(binding["rate"], params)
        margin = binding["rate"] - alpha - params.tolerance_eta
        binding = {**binding, "rate_se": se,
                   "margin_in_se": margin / se if se else None}
    diag = {
        "method": method,
        "seed": params.seed,
        "eta": params.tolerance_eta,
        "worst_rate": final_rate,
        "worst_rate_se": _rate_se(final_rate, params),
        "worst_variances": engine.V[final_r].tolist(),
        "top_variances": engine.V[worst_idx].tolist(),
        "binding": binding,
        "params": {name: getattr(params, name) for name in (
            "R", "S1", "S2", "top_fraction", "beta_a", "beta_b",
            *(SAMPLED_PARAMS if method == "sampled" else ()))},
    }
    diag.update(extra)
    return diag


def calibrate_exhaustive(design: Design, alpha: float,
                         params: CalibrationParams | None = None,
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
    check_alpha(alpha)
    n = design.n_assignments
    if n >= ENUMERATION_THRESHOLD:
        raise CapacityError(
            f"exhaustive calibration requires fewer than "
            f"{ENUMERATION_THRESHOLD} assignments, got {n}; "
            "use calibrate_sampled")
    root = RngStream(params.seed)
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
        "exhaustive", params, alpha, engine, final[2], final[0], final[1],
        binding, {"n_assignments": n, "j_star": j_star,
                  "restricted": variance_draws is not None})
    return AlphaEntry(q1=design.q1, q0=design.q0, alpha=float(alpha),
                      bar_alpha_exact=bar_exact, source="calibrated",
                      diagnostics=diag)


def calibrate_sampled(design: Design, alpha: float,
                      params: CalibrationParams | None = None,
                      variance_draws=None) -> AlphaEntry:
    """Calibrate over a sampled assignment collection of size m.

    One collection (identity included) is drawn per run; candidate
    levels descend from alpha on the epsilon grid, and the first level
    at which no variance pattern's refined rejection rate exceeds alpha
    (+ tolerance_eta) is returned as bar_alpha.  The grid arithmetic is
    exact, so repeated runs visit identical levels.
    """
    params = params or CalibrationParams()
    check_alpha(alpha)
    n = design.n_assignments
    if n < ENUMERATION_THRESHOLD:
        raise ContractError(
            f"design has only {n} assignments, below the sampling threshold "
            f"{ENUMERATION_THRESHOLD}; use calibrate_exhaustive")
    root = RngStream(params.seed)
    m = params.m
    draws = sample_assignments(design, m, rng=root.derived(3))
    V = _draw_variances(params, root, design.q, variance_draws)
    engine = _TwoPassEngine(design, weight_matrix(design, draws), V,
                            params, root)
    limit = alpha + params.tolerance_eta
    floor = Fraction(1, m)

    p = Fraction(float(alpha))
    step = Fraction(float(params.epsilon))
    binding = None
    while p >= floor:
        j_m = order_index_from_level(p, m)
        rate, r_idx, worst = engine.worst_refined_rate(m - j_m)
        if rate <= limit:
            diag = _diagnostics(
                "sampled", params, alpha, engine, worst, rate, r_idx,
                binding, {"m": m, "j_m": j_m, "grid_step": float(step),
                          "start": float(alpha), "n_assignments": n,
                          "restricted": variance_draws is not None})
            return AlphaEntry(q1=design.q1, q0=design.q0, alpha=float(alpha),
                              bar_alpha_exact=p, source="calibrated",
                              diagnostics=diag)
        binding = {"level": float(p), "rate": rate, "draw_index": r_idx}
        p -= step
    raise InfeasibleLevelError(
        f"no level on the grid down to 1/m={float(floor):.6f} was usable at "
        f"alpha={alpha} for q1={design.q1}, q0={design.q0}; the smallest "
        f"worst-case size is {size_bound(design.q1, design.q0):.6f}",
        smallest_feasible=size_bound(design.q1, design.q0))
