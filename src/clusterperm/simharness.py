"""Monte Carlo studies: a normal location experiment and a
difference-in-differences panel with autocorrelated errors.

Both studies pit the adjusted permutation test against its rivals on
identical data, replication by replication.  Replication r of a study
with seed s draws everything from RngStream(s, r) in a fixed order, so
results are bit-identical no matter how replications are chunked or how
many workers run them.

Draw order per replication:
  normal location study: one standard normal vector of length q.
  DiD study: innovations (burn_in + T, q), then W, X2, X3 (T, q) each,
  then the bootstrap sign matrix (B, q).  T = n0 + n1 periods.  Scale
  factors and effect shifts are applied outside the generator, so every
  (h, delta) grid cell reuses the same underlying randomness.

Each block of replications is decided at once.  The permutation arm
counts relabelings with permkit.relabeling_counts, through the weight
matrix or, above its cap, by split subset sums; the rivals come from the
batched kernels in rivals (group_t, pooled_t, bootstrap_p_values), the
same functions the single-dataset tests call.  This module holds the
draws, the per-cluster fits of the DiD panel, the block scheduling and
the result tables.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import ContractError, DomainError, InputFormatError
from .permkit import Design, RngStream, relabeling_counts
from .permtest import lookup_bar_alpha
from .rivals import bootstrap_p_values, dof_adjustment, group_t, pooled_t

_BLOCK = 256
_METHODS_NORMAL = ("adjusted-permutation", "group-t")
_METHODS_DID = ("adjusted-permutation", "group-t", "pooled-cluster-t",
                "wild-cluster-bootstrap")


def _check_common(q1, q0, alpha, replications, seed):
    if not (isinstance(q1, int) and isinstance(q0, int) and q1 >= 1
            and q0 >= 1):
        raise DomainError("q1 and q0 must be positive integers")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if not (isinstance(replications, int) and replications >= 1):
        raise DomainError("replications must be a positive integer")
    if not isinstance(seed, int):
        raise DomainError("seed must be an integer")


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
        _check_common(self.q1, self.q0, self.alpha, self.replications,
                      self.seed)
        object.__setattr__(self, "mu1_grid",
                           tuple(float(m) for m in self.mu1_grid))
        if not self.mu1_grid or not all(math.isfinite(m)
                                        for m in self.mu1_grid):
            raise DomainError("mu1_grid must be a nonempty finite vector")
        if not math.isfinite(self.mu0):
            raise DomainError("mu0 must be finite")
        q = self.q1 + self.q0
        if not (isinstance(self.h, int) and 0 <= self.h <= q):
            raise DomainError(f"h must be an integer in [0, {q}], "
                              f"got {self.h}")
        if not (0 < self.sigma_low < math.inf
                and 0 < self.sigma_high < math.inf):
            raise DomainError(
                "sigma_low and sigma_high must be finite and positive")

    def sigmas(self) -> np.ndarray:
        q = self.q1 + self.q0
        s = np.full(q, self.sigma_low)
        s[q - self.h:] = self.sigma_high
        return s


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
        _check_common(self.q1, self.q0, self.alpha, self.replications,
                      self.seed)
        object.__setattr__(self, "delta_grid",
                           tuple(float(d) for d in self.delta_grid))
        object.__setattr__(self, "h_grid",
                           tuple(int(h) for h in self.h_grid))
        if not (isinstance(self.n0, int) and isinstance(self.n1, int)
                and self.n0 >= 1 and self.n1 >= 1):
            raise DomainError("n0 and n1 must be positive integers")
        if not abs(self.rho) < 1.0:
            raise DomainError(f"rho must satisfy |rho| < 1, got {self.rho}")
        if not (isinstance(self.burn_in, int) and self.burn_in >= 0):
            raise DomainError("burn_in must be a nonnegative integer")
        if not (isinstance(self.bootstrap_B, int) and self.bootstrap_B >= 1):
            raise DomainError("bootstrap_B must be a positive integer")
        if not self.delta_grid or not all(math.isfinite(d)
                                          for d in self.delta_grid):
            raise DomainError("delta_grid must be a nonempty finite vector")
        q = self.q1 + self.q0
        if not self.h_grid or not all(0 <= h <= q for h in self.h_grid):
            raise DomainError(f"h_grid entries must lie in [0, {q}]")
        if not (0 < self.sigma_low < math.inf
                and 0 < self.sigma_high < math.inf):
            raise DomainError(
                "sigma_low and sigma_high must be finite and positive")
        for name in ("theta0", "beta1", "beta2", "beta3", "zeta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    def sigmas(self, h: int) -> np.ndarray:
        q = self.q1 + self.q0
        s = np.full(q, self.sigma_low)
        if h > 0:
            s[q - h:] = self.sigma_high
        return s


def _ar1(v: np.ndarray, rho: float) -> np.ndarray:
    """AR(1) recursion u_t = rho*u_{t-1} + v_t along axis 1, started at
    zero."""
    u = v.copy()
    for s in range(1, u.shape[1]):
        u[:, s] += rho * u[:, s - 1]
    return u


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

    def rate(self, method: str, **cell) -> float:
        """The rejection_rate of the unique row matching the given
        method and cell coordinates."""
        want = dict(cell, method=method)
        rate_idx = self.columns.index("rejection_rate")
        hits = [r for r in self.rows
                if all(r[self.columns.index(k)] == v
                       for k, v in want.items())]
        if len(hits) != 1:
            raise DomainError(f"{len(hits)} rows match {want}")
        return float(hits[0][rate_idx])

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


def parse_key_value_file(path) -> dict[str, str]:
    """Flat key=value config file: one pair per line, '#' comments and
    blank lines ignored."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(
                f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise InputFormatError(f"line {lineno}: empty key")
        if key in out:
            raise InputFormatError(f"line {lineno}: duplicate key "
                                   f"{key!r}")
        out[key] = value.strip()
    return out


def _coerce_mapping(cls, mapping):
    kwargs = {}
    known = {f.name: f for f in fields(cls)}
    try:
        for key, value in mapping.items():
            if key not in known:
                raise DomainError(f"unknown config key {key!r} for "
                                  f"{cls.__name__}")
            default = known[key].default
            if isinstance(default, tuple) or key.endswith("_grid"):
                parts = [p for p in str(value).split(",") if p.strip() != ""]
                elem = int if key == "h_grid" else float
                kwargs[key] = tuple(elem(p) for p in parts)
            elif isinstance(default, bool):
                kwargs[key] = str(value).lower() in ("1", "true", "yes")
            elif isinstance(default, int):
                kwargs[key] = int(value)
            elif isinstance(default, float):
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad config for {cls.__name__}: {exc}") from None


def normal_config_from_mapping(mapping) -> NormalLocationConfig:
    return _coerce_mapping(NormalLocationConfig, mapping)


def did_config_from_mapping(mapping) -> DidConfig:
    return _coerce_mapping(DidConfig, mapping)


# ---------------------------------------------------------------------------
# Normal location study
# ---------------------------------------------------------------------------

def _normal_block(cfg: NormalLocationConfig, lo: int, hi: int):
    from scipy.special import stdtrit

    design = Design(cfg.q1, cfg.q0)
    q = design.q
    entry = lookup_bar_alpha(cfg.q1, cfg.q0, cfg.alpha)
    count_max = design.n_assignments - entry.order_index
    t_crit = stdtrit(min(cfg.q1, cfg.q0) - 1, 1.0 - cfg.alpha)
    sig = cfg.sigmas()

    z = np.empty((hi - lo, q))
    checksum = 0
    for i, rep in enumerate(range(lo, hi)):
        z[i] = RngStream(cfg.seed, rep).generator().standard_normal(q)
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
    entry = lookup_bar_alpha(cfg.q1, cfg.q0, cfg.alpha)  # fails fast if infeasible
    if min(cfg.q1, cfg.q0) < 2:
        raise ContractError("the group t-test needs q1 >= 2 and q0 >= 2")
    counts, checksum = _run_blocks(_normal_block, cfg, workers,
                                   (len(cfg.mu1_grid), 2))
    reps = cfg.replications
    rows = []
    for gi, mu1 in enumerate(cfg.mu1_grid):
        for mi, method in enumerate(_METHODS_NORMAL):
            rate = counts[gi, mi] / reps
            rows.append((mu1, cfg.h, method, rate,
                         math.sqrt(rate * (1.0 - rate) / reps)))
    meta = _config_metadata(cfg)
    meta["bar_alpha"] = format(entry.bar_alpha, ".10g")
    meta["order_index"] = str(entry.order_index)
    meta["data_checksum"] = f"{checksum:08x}"
    return ResultTable(("mu1", "h", "method", "rejection_rate", "mc_se"),
                       tuple(rows), meta)


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


def _did_block(cfg: DidConfig, lo: int, hi: int):
    from scipy.special import stdtrit

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
    for i, rep in enumerate(range(lo, hi)):
        gen = RngStream(cfg.seed, rep).generator()
        zv[i] = gen.standard_normal((total_t, q))
        zw[i] = gen.standard_normal((t, q))
        zx2[i] = gen.standard_normal((t, q))
        zx3[i] = gen.standard_normal((t, q))
        signs[i] = gen.integers(0, 2, size=(b_boot, q)) * 2.0 - 1.0
        for arr in (zv[i], zw[i], zx2[i], zx3[i], signs[i]):
            checksum ^= zlib.crc32(arr.tobytes())
    u0 = _ar1(zv, cfg.rho)[:, cfg.burn_in:]

    n_pool = q * t
    starts = np.arange(0, n_pool, t)
    t_idx = POOLED_COLUMNS.index("post_x_treated")
    adj = dof_adjustment(n_pool, q, len(POOLED_COLUMNS))
    t_crit_pool = stdtrit(q - 1, 1.0 - cfg.alpha)
    t_crit_im = stdtrit(min(cfg.q1, cfg.q0) - 1, 1.0 - cfg.alpha)
    design = Design(cfg.q1, cfg.q0)
    entry = lookup_bar_alpha(cfg.q1, cfg.q0, cfg.alpha)
    count_max = design.n_assignments - entry.order_index
    deltas = np.asarray(cfg.delta_grid)[:, None, None]

    # pooled design rows are cluster-major: cluster 0 periods 1..T, then
    # cluster 1, and so on; axis 1 broadcasts over the delta grid
    x_pool = np.empty((n_rep, 1, n_pool, len(POOLED_COLUMNS)))
    x_pool[..., 0] = 1.0
    x_pool[..., 1] = np.tile(i_t, q)
    x_pool[..., 2] = x_pool[..., 1] * np.repeat(d_k, t)
    counts = np.zeros((len(cfg.h_grid), len(cfg.delta_grid), 4),
                      dtype=np.int64)
    for hi_idx, h in enumerate(cfg.h_grid):
        sig = cfg.sigmas(h)
        x1 = cfg.gamma * itd + sig * zw
        x2 = sig * zx2
        x3 = sig * zx3
        y_base = (cfg.theta0 * i_t[:, None] + cfg.beta1 * x1
                  + cfg.beta2 * x2 + cfg.beta3 * x3 + cfg.zeta + sig * u0)
        # (rep, delta, cluster, T)
        y = (y_base[:, None] + deltas * itd).transpose(0, 1, 3, 2)

        # per-cluster least squares on [I_t, X1, X2, X3, 1]: theta, the
        # I_t slope, is (rep, delta, cluster)
        dloc = np.empty((n_rep, q, t, 5))
        dloc[..., 0] = i_t
        for c, z in enumerate((x1, x2, x3), start=1):
            dloc[..., c] = z.transpose(0, 2, 1)
        dloc[..., 4] = 1.0
        gram_loc = np.einsum("bktd,bkte->bkde", dloc, dloc, optimize=True)
        slope_w = np.matvec(dloc, np.linalg.inv(gram_loc)[..., 0, :])
        theta = np.vecdot(slope_w[:, None], y)

        x_pool[:, 0, :, 3:] = dloc[..., 1:4].reshape(n_rep, n_pool, 3)
        _, _, t_obs, t_star = pooled_t(x_pool, y.reshape(n_rep, -1, n_pool),
                                       starts, t_idx, adj, signs[:, None])
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
    entry = lookup_bar_alpha(cfg.q1, cfg.q0, cfg.alpha)  # fails fast if infeasible
    if min(cfg.q1, cfg.q0) < 2:
        raise ContractError("the group t-test needs q1 >= 2 and q0 >= 2")
    q, t, *_ = _did_layout(cfg)
    if t < 5:
        raise DomainError("the per-cluster regression needs at least 5 "
                          f"periods, got {t}")
    if q * t <= 6:
        raise DomainError("pooled design has more regressors than rows")
    counts, checksum = _run_blocks(
        _did_block, cfg, workers,
        (len(cfg.h_grid), len(cfg.delta_grid), 4))
    reps = cfg.replications
    rows = []
    for hi_idx, h in enumerate(cfg.h_grid):
        for di, delta in enumerate(cfg.delta_grid):
            for mi, method in enumerate(_METHODS_DID):
                rate = counts[hi_idx, di, mi] / reps
                rows.append((h, delta, method, rate,
                             math.sqrt(rate * (1.0 - rate) / reps)))
    meta = _config_metadata(cfg)
    meta["bar_alpha"] = format(entry.bar_alpha, ".10g")
    meta["order_index"] = str(entry.order_index)
    meta["pooled_columns"] = " ".join(POOLED_COLUMNS)
    meta["dof_adjustment"] = str(
        Fraction(q * t - 1, 1) * q / Fraction((q * t - 6) * (q - 1)))
    meta["data_checksum"] = f"{checksum:08x}"
    return ResultTable(("h", "delta", "method", "rejection_rate", "mc_se"),
                       tuple(rows), meta)


# ---------------------------------------------------------------------------
# Block scheduling
# ---------------------------------------------------------------------------

def _block_ranges(replications: int):
    return [(lo, min(lo + _BLOCK, replications))
            for lo in range(0, replications, _BLOCK)]


def _run_blocks(block_fn, cfg, workers, counts_shape):
    if not (isinstance(workers, int) and workers >= 1):
        raise DomainError("workers must be a positive integer")
    ranges = _block_ranges(cfg.replications)
    counts = np.zeros(counts_shape, dtype=np.int64)
    checksum = 0
    if workers == 1 or len(ranges) == 1:
        for lo, hi in ranges:
            c, s = block_fn(cfg, lo, hi)
            counts += c
            checksum ^= s
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(block_fn, cfg, lo, hi)
                       for lo, hi in ranges]
            for fut in futures:
                c, s = fut.result()
                counts += c
                checksum ^= s
    return counts, checksum


def _config_metadata(cfg) -> dict:
    meta = {"study": type(cfg).__name__}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            meta[f.name] = ",".join(_fmt(v) for v in value)
        else:
            meta[f.name] = _fmt(value)
    return meta
