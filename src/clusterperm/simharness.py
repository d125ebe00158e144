"""Monte Carlo studies: a normal location experiment and a
difference-in-differences panel with autocorrelated errors.

Both studies pit the adjusted permutation test against its rivals on
identical data, replication by replication.  Replication r of a study
with seed s draws everything from RngStream(s, r) in a fixed order, so
results are bit-identical no matter how replications are chunked or how
many workers run them.  A block opens its replications' streams with
permkit.stream_generators, which seeds them in one vectorised pass and
gives the draws of RngStream(s, r).generator().

Draw order per replication:
  normal location study: one standard normal vector of length q.
  DiD study: innovations (burn_in + T, q), then W, X2, X3 (T, q) each,
  then the bootstrap sign matrix (B, q).  T = n0 + n1 periods.  Scale
  factors and effect shifts are applied outside the generator, so every
  (h, delta) grid cell reuses the same underlying randomness.

A DiD cell's outcome is the outcome at delta = 0 plus delta times the
pooled target column I_t * D_k, so each replication is fitted once per
h: the per-cluster slopes of a cell are those at delta = 0 plus delta *
D_k, and pooled_t derives every cell's pooled t and bootstrap t* from
the shifts along its target column.

Replications are scheduled in blocks, which run in one process or are
spread over a worker pool and are each decided at once; counts add up
and data checksums XOR together across blocks.  A normal-study block
holds _BLOCK replications.  A DiD block holds at most that many, and
few enough that the largest per-replication intermediate stays within
_DID_BYTES (see _did_step), so a worker's peak memory stays bounded
whatever bootstrap_B and the grids are.  Every replication draws from
its own stream, so the block size does not change a result.  The permutation
arm counts relabelings with permkit.relabeling_counts on their treated
sums, through the 0/1 treated-indicator matrix or, above its cap, by
enumeration_sums; the rivals come
from the batched kernels in rivals (group_t, pooled_t,
bootstrap_p_values).
This module holds the draws, the per-cluster fits of the DiD panel, the
block scheduling and the result tables.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .permkit import (
    Design,
    _check_magnitudes,
    positive_int,
    relabeling_counts,
    seed_int,
    stream_generators,
)
from .permtest import check_alpha, lookup_bar_alpha
from .rivals import bootstrap_p_values, dof_adjustment, group_t, pooled_t

_BLOCK = 256  # replications per scheduled block
_DID_BYTES = 1 << 22  # bytes of the largest intermediate per DiD block
_METHODS_NORMAL = ("adjusted-permutation", "group-t")
_METHODS_DID = ("adjusted-permutation", "group-t", "pooled-cluster-t",
                "wild-cluster-bootstrap")


def _study_setup(cfg):
    """(design, adjustment entry, the largest relabeling count at which
    the permutation arm rejects, the group t-test's critical value) of a
    study, or an error if its design and level have no adjustment."""
    from scipy.special import stdtrit

    entry = lookup_bar_alpha(cfg.q1, cfg.q0, cfg.alpha)
    design = Design(cfg.q1, cfg.q0)
    return (design, entry, design.n_assignments - entry.order_index,
            stdtrit(min(cfg.q1, cfg.q0) - 1, 1.0 - cfg.alpha))


def _check_common(cfg, *counts):
    """Check the fields both studies share and the further positive
    counts named, keeping each count and the seed as an int."""
    for name in ("q1", "q0", "replications", *counts):
        object.__setattr__(cfg, name, positive_int(name, getattr(cfg, name)))
    check_alpha(cfg.alpha)
    object.__setattr__(cfg, "seed", seed_int("seed", cfg.seed))


def _check_scales(cfg, name: str, rule: str) -> None:
    """DomainError unless the field `name`, one count h of high-sigma
    clusters or a tuple of them, holds integers in [0, q] (the message
    opens with `rule`), and both sigmas are positive and within the
    magnitude bound."""
    value = getattr(cfg, name)
    q = cfg.q1 + cfg.q0
    if not all(isinstance(h, int) and 0 <= h <= q
               for h in (value if isinstance(value, tuple) else (value,))):
        raise DomainError(f"{rule} in [0, {q}], got {value}")
    _check_magnitudes(cfg, ("sigma_low", "sigma_high"))
    if not (cfg.sigma_low > 0 and cfg.sigma_high > 0):
        raise DomainError("sigma_low and sigma_high must be positive")


def _sigmas(cfg, h: int) -> np.ndarray:
    """Per-cluster sigmas: sigma_high on the last h clusters, sigma_low
    on the rest."""
    q = cfg.q1 + cfg.q0
    s = np.full(q, cfg.sigma_low)
    s[q - h:] = cfg.sigma_high
    return s


@dataclass(frozen=True)
class NormalLocationConfig:
    """Study of q1 treated draws N(mu1, sigma_k^2) against q0 control
    draws N(mu0, sigma_k^2), where the last h of the q clusters have
    sigma_high and the rest sigma_low."""

    q1: int = 6
    q0: int = 6
    mu0: float = 0.0
    mu1_grid: tuple[float, ...] = (0.0,)
    h: int = 1
    sigma_low: float = 1.0
    sigma_high: float = 100.0
    replications: int = 10_000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _check_common(self)
        object.__setattr__(self, "mu1_grid",
                           tuple(float(m) for m in self.mu1_grid))
        if not self.mu1_grid:
            raise DomainError("mu1_grid must be nonempty")
        _check_magnitudes(self, ("mu0", "mu1_grid"))
        _check_scales(self, "h", "h must be an integer")


@dataclass(frozen=True)
class DidConfig:
    """Panel study: q clusters observed for n0 pre and n1 post periods,
    outcome theta0*I_t + delta*I_t*D_k + beta.(X1,X2,X3) + zeta + U with
    AR(1) errors, X1 = gamma*I_t*D_k + W, and (X2,X3,V,W) scaled by
    sigma_k (sigma_high on the last h clusters)."""

    q1: int = 6
    q0: int = 6
    n0: int = 10
    n1: int = 10
    theta0: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    beta3: float = 1.0
    zeta: float = 1.0
    rho: float = 0.5
    gamma: float = 0.8
    delta_grid: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    h_grid: tuple[int, ...] = (1, 3, 5, 7)
    sigma_low: float = 1.0
    sigma_high: float = 20.0
    burn_in: int = 500
    replications: int = 10_000
    bootstrap_B: int = 199
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _check_common(self, "n0", "n1", "bootstrap_B")
        object.__setattr__(self, "delta_grid",
                           tuple(float(d) for d in self.delta_grid))
        object.__setattr__(self, "h_grid", tuple(self.h_grid))
        if not abs(self.rho) < 1.0:
            raise DomainError(f"rho must satisfy |rho| < 1, got {self.rho}")
        object.__setattr__(self, "burn_in",
                           positive_int("burn_in", self.burn_in, least=0))
        if not (self.delta_grid and self.h_grid):
            raise DomainError("delta_grid and h_grid must be nonempty")
        _check_magnitudes(self, ("delta_grid", "theta0", "beta1", "beta2",
                                 "beta3", "zeta", "gamma"))
        _check_scales(self, "h_grid", "h_grid entries must be integers")


def _ar1(v: np.ndarray, rho: float) -> np.ndarray:
    """AR(1) recursion u_t = rho*u_{t-1} + v_t along axis 1, started at
    zero.  The result is a view whose axis 1 varies slowest in memory,
    so that each step updates one contiguous slice."""
    u = np.moveaxis(v, 1, 0).copy()
    for s in range(1, len(u)):
        u[s] += rho * u[s - 1]
    return np.moveaxis(u, 0, 1)


# ---------------------------------------------------------------------------
# Result table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultTable:
    """Rates per grid cell and method, plus run metadata.

    write_csv emits '# key=value' comment lines (metadata, insertion
    order) followed by a plain CSV of the rows.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict

    def write_csv(self, path) -> None:
        lines = [f"# {k}={v}" for k, v in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


# ---------------------------------------------------------------------------
# Normal location study
# ---------------------------------------------------------------------------

def _normal_block(cfg: NormalLocationConfig, lo: int, hi: int):
    design, _, count_max, t_crit = _study_setup(cfg)
    q = design.q
    sig = _sigmas(cfg, cfg.h)

    z = np.empty((hi - lo, q))
    checksum = 0
    for i, gen in enumerate(stream_generators(cfg.seed, range(lo, hi))):
        gen.standard_normal(out=z[i])
        checksum ^= zlib.crc32(z[i].tobytes())

    counts = np.zeros((len(cfg.mu1_grid), 2), dtype=np.int64)
    base = np.full(q, cfg.mu0)
    scaled = z * sig
    for gi, mu1 in enumerate(cfg.mu1_grid):
        mu = base.copy()
        mu[:cfg.q1] = mu1
        x = mu + scaled
        ap = relabeling_counts(x, design) <= count_max
        im = group_t(x, cfg.q1) > t_crit
        counts[gi, 0] = ap.sum()
        counts[gi, 1] = im.sum()
    return counts, checksum


def run_normal_location_study(cfg: NormalLocationConfig,
                              workers: int = 1) -> ResultTable:
    """Rejection frequencies of the adjusted permutation test and the
    group t-test on identical draws, for each mu1 on the grid."""
    entry = _study_setup(cfg)[1]
    counts, checksum = _run_blocks(_normal_block, cfg, workers, _BLOCK)
    return _result_table(cfg, entry, {"mu1": cfg.mu1_grid, "h": (cfg.h,)},
                         _METHODS_NORMAL, counts, checksum, {})


# ---------------------------------------------------------------------------
# Difference-in-differences study
# ---------------------------------------------------------------------------

def _did_layout(cfg: DidConfig):
    q = cfg.q1 + cfg.q0
    t = cfg.n0 + cfg.n1
    i_t = np.concatenate([np.zeros(cfg.n0), np.ones(cfg.n1)])
    d_k = np.concatenate([np.ones(cfg.q1), np.zeros(cfg.q0)])
    itd = np.outer(i_t, d_k)
    return q, t, i_t, d_k, itd


POOLED_COLUMNS = ("intercept", "post", "post_x_treated", "x1", "x2", "x3")


def _did_step(cfg: DidConfig) -> int:
    """Replications per DiD block at most: as many as keep the largest
    per-replication intermediate within _DID_BYTES, and at least one.
    The candidates, in doubles: the bootstrap sign products, |delta_grid|
    * bootstrap_B * q (or the per-delta sandwich matrices, |delta_grid| *
    q * q, if q is larger); the restricted score products of the two
    basis outcomes, 2 * T * 6 * q, which do not grow with the delta grid;
    and the AR(1) innovations, (burn_in + T) * q."""
    q = cfg.q1 + cfg.q0
    t = cfg.n0 + cfg.n1
    widest = max(len(cfg.delta_grid) * max(cfg.bootstrap_B, q),
                 2 * t * len(POOLED_COLUMNS), cfg.burn_in + t)
    return max(1, _DID_BYTES // (8 * q * widest))


def _did_block(cfg: DidConfig, lo: int, hi: int):
    from scipy.special import stdtrit

    design, _, count_max, t_crit_im = _study_setup(cfg)
    q, t, i_t, d_k, itd = _did_layout(cfg)
    n_rep = hi - lo
    b_boot = cfg.bootstrap_B
    total_t = cfg.burn_in + t

    zv = np.empty((n_rep, total_t, q))
    zw = np.empty((n_rep, t, q))
    zx2 = np.empty((n_rep, t, q))
    zx3 = np.empty((n_rep, t, q))
    signs = np.empty((n_rep, b_boot, q))
    checksum = 0
    for i, gen in enumerate(stream_generators(cfg.seed, range(lo, hi))):
        for arr in (zv[i], zw[i], zx2[i], zx3[i]):
            gen.standard_normal(out=arr)
        signs[i] = gen.integers(0, 2, size=(b_boot, q)) * 2.0 - 1.0
        for arr in (zv[i], zw[i], zx2[i], zx3[i], signs[i]):
            checksum ^= zlib.crc32(arr.tobytes())
    # C order: the reductions below may sum in a layout-dependent order
    u0 = np.ascontiguousarray(_ar1(zv, cfg.rho)[:, cfg.burn_in:])

    n_pool = q * t
    starts = np.arange(0, n_pool, t)
    t_idx = POOLED_COLUMNS.index("post_x_treated")
    adj = dof_adjustment(n_pool, q, len(POOLED_COLUMNS))
    t_crit_pool = stdtrit(q - 1, 1.0 - cfg.alpha)
    deltas = np.asarray(cfg.delta_grid)

    # pooled design rows are cluster-major: cluster 0 periods 1..T, then
    # cluster 1, and so on
    x_pool = np.empty((n_rep, n_pool, len(POOLED_COLUMNS)))
    x_pool[..., 0] = 1.0
    x_pool[..., 1] = np.tile(i_t, q)
    x_pool[..., 2] = x_pool[..., 1] * np.repeat(d_k, t)
    counts = np.zeros((len(cfg.h_grid), len(cfg.delta_grid), 4),
                      dtype=np.int64)
    for hi_idx, h in enumerate(cfg.h_grid):
        sig = _sigmas(cfg, h)
        x1 = cfg.gamma * itd + sig * zw
        x2 = sig * zx2
        x3 = sig * zx3
        # the outcome at delta = 0, (rep, cluster, T); a cell's outcome
        # adds delta * I_t * D_k, which is the pooled target column
        y_base = (cfg.theta0 * i_t[:, None] + cfg.beta1 * x1
                  + cfg.beta2 * x2 + cfg.beta3 * x3 + cfg.zeta
                  + sig * u0).transpose(0, 2, 1)

        # per-cluster least squares on [I_t, X1, X2, X3, 1]: theta, the
        # I_t slope.  Its weights have dot product 1 with I_t, so a
        # cell's slopes are theta(0) + delta * D_k, (rep, delta, cluster)
        dloc = np.empty((n_rep, q, t, 5))
        dloc[..., 0] = i_t
        for c, z in enumerate((x1, x2, x3), start=1):
            dloc[..., c] = z.transpose(0, 2, 1)
        dloc[..., 4] = 1.0
        gram_loc = np.einsum("bktd,bkte->bkde", dloc, dloc, optimize=True)
        slope_w = np.matvec(dloc, np.linalg.inv(gram_loc)[..., 0, :])
        theta = (np.vecdot(slope_w, y_base)[:, None]
                 + deltas[:, None] * d_k)

        # the cells' pooled outcomes are y_base shifted along the target
        # column, so one fit of y_base gives every delta
        x_pool[..., 3:] = dloc[..., 1:4].reshape(n_rep, n_pool, 3)
        _, _, t_obs, t_star = pooled_t(x_pool, y_base.reshape(n_rep, n_pool),
                                       starts, t_idx, adj, signs, deltas)
        flags = (relabeling_counts(theta, design) <= count_max,
                 group_t(theta, cfg.q1) > t_crit_im,
                 t_obs > t_crit_pool,
                 bootstrap_p_values(t_star, t_obs)[0] <= cfg.alpha)
        for mi, f in enumerate(flags):
            counts[hi_idx, :, mi] = f.sum(axis=0)
    return counts, checksum


def run_did_study(cfg: DidConfig, workers: int = 1) -> ResultTable:
    """Rejection frequencies of all four tests on identical panel draws,
    for each (h, delta) grid cell."""
    entry = _study_setup(cfg)[1]
    q, t, *_ = _did_layout(cfg)
    if t < 5:
        raise DomainError("the per-cluster regression needs at least 5 "
                          f"periods, got {t}")
    if q * t <= 6:
        raise DomainError("pooled design has more regressors than rows")
    counts, checksum = _run_blocks(_did_block, cfg, workers,
                                   min(_BLOCK, _did_step(cfg)))
    dof = Fraction(q * t - 1, 1) * q / Fraction((q * t - 6) * (q - 1))
    return _result_table(
        cfg, entry, {"h": cfg.h_grid, "delta": cfg.delta_grid}, _METHODS_DID,
        counts, checksum, {"pooled_columns": " ".join(POOLED_COLUMNS),
                           "dof_adjustment": str(dof)})


# ---------------------------------------------------------------------------
# Block scheduling
# ---------------------------------------------------------------------------

def _run_blocks(block_fn, cfg, workers, block: int):
    """Counts and data checksum of all replications, decided by block_fn
    in blocks of `block` replications."""
    if not (isinstance(workers, int) and workers >= 1):
        raise DomainError("workers must be a positive integer")
    reps = cfg.replications
    ranges = [(lo, min(lo + block, reps)) for lo in range(0, reps, block)]
    # a forked pool starts all its workers at once: no more than blocks
    workers = min(workers, len(ranges))
    if workers == 1:
        results = [block_fn(cfg, lo, hi) for lo, hi in ranges]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block_fn, itertools.repeat(cfg),
                                    *zip(*ranges)))
    counts, checksum = 0, 0
    for c, s in results:
        counts, checksum = counts + c, checksum ^ s
    return counts, checksum


def _result_table(cfg, entry, grids: dict, methods, counts, checksum,
                  extra: dict) -> ResultTable:
    """One row per grid cell and method, cells in the row-major order of
    the grids, which is the order of the leading axes of counts (last
    axis: method).  Metadata: the study, every config field, the
    adjustment, `extra`, then the data checksum."""
    reps = cfg.replications
    rows = []
    for cell, cell_counts in zip(itertools.product(*grids.values()),
                                 counts.reshape(-1, len(methods))):
        for method, count in zip(methods, cell_counts):
            rate = count / reps
            rows.append((*cell, method, rate,
                         math.sqrt(rate * (1.0 - rate) / reps)))
    meta = {"study": type(cfg).__name__}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            meta[f.name] = ",".join(_fmt(v) for v in value)
        else:
            meta[f.name] = _fmt(value)
    meta["bar_alpha"] = format(entry.bar_alpha, ".10g")
    meta["order_index"] = str(entry.order_index)
    meta.update(extra)
    meta["data_checksum"] = f"{checksum:08x}"
    return ResultTable((*grids, "method", "rejection_rate", "mc_se"),
                       tuple(rows), meta)
