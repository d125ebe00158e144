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

The rejection decisions come from vectorized re-implementations of the
per-test arithmetic (permutation counting via the weight matrix, the
studentized group statistic, the pooled sandwich t, and the restricted
wild bootstrap); the test suite pins them to the public single-dataset
functions rep by rep.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
from scipy.signal import lfilter
from scipy.special import stdtrit

from .errors import (
    ContractError,
    DomainError,
    InputFormatError,
    ShapeError,
)
from .permkit import (
    Design,
    RngStream,
    _as_generator,
    count_at_or_above,
    weight_matrix,
)
from .permtest import lookup_bar_alpha
from .rivals import dof_adjustment

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
        if not (self.sigma_low > 0 and self.sigma_high > 0):
            raise DomainError("sigma_low and sigma_high must be positive")

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
        if not (self.sigma_low > 0 and self.sigma_high > 0):
            raise DomainError("sigma_low and sigma_high must be positive")
        for name in ("theta0", "beta1", "beta2", "beta3", "zeta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    def sigmas(self, h: int) -> np.ndarray:
        q = self.q1 + self.q0
        s = np.full(q, self.sigma_low)
        if h > 0:
            s[q - h:] = self.sigma_high
        return s


def ar1_simulate(rho: float, innovations, burn_in: int = 0,
                 rng=None) -> np.ndarray:
    """AR(1) recursion u_t = rho*u_{t-1} + v_t started at zero, with the
    first burn_in values discarded.

    innovations is either the innovation vector itself (rng is ignored)
    or an integer count of standard normal innovations to draw from rng
    (an RngStream, Generator, or integer seed).
    """
    if not abs(rho) < 1.0:
        raise DomainError(f"rho must satisfy |rho| < 1, got {rho}")
    if not (isinstance(burn_in, int) and burn_in >= 0):
        raise DomainError("burn_in must be a nonnegative integer")
    if isinstance(innovations, (int, np.integer)):
        if rng is None:
            raise ContractError("drawing innovations by count requires rng")
        if isinstance(rng, (int, np.integer)):
            rng = RngStream(int(rng))
        v = _as_generator(rng).standard_normal(int(innovations))
    else:
        v = np.asarray(innovations, dtype=float)
        if v.ndim != 1:
            raise ShapeError("innovations must be one-dimensional")
    if burn_in >= v.size:
        raise DomainError(f"burn_in {burn_in} leaves no observations "
                          f"from {v.size} innovations")
    u = lfilter([1.0], [1.0, -float(rho)], v)
    return u[burn_in:]


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
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    design = Design(cfg.q1, cfg.q0)
    q = design.q
    w = weight_matrix(design)
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
        stats = x @ w
        ap = count_at_or_above(stats) <= count_max
        m1 = x[:, :cfg.q1].mean(axis=1)
        m0 = x[:, cfg.q1:].mean(axis=1)
        v1 = x[:, :cfg.q1].var(axis=1, ddof=1) / cfg.q1
        v0 = x[:, cfg.q1:].var(axis=1, ddof=1) / cfg.q0
        im = (m1 - m0) / np.sqrt(v1 + v0) > t_crit
        counts[gi, 0] = ap.sum()
        counts[gi, 1] = im.sum()
    return counts, checksum


def run_normal_location_study(cfg: NormalLocationConfig,
                              workers: int = 1) -> ResultTable:
    """Rejection frequencies of the adjusted permutation test and the
    group t-test on identical draws, for each mu1 on the grid."""
    design = Design(cfg.q1, cfg.q0)
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


def _pooled_fixed_columns(cfg: DidConfig):
    """Intercept, I_t, and I_t*D_k stacked cluster-major: row order is
    cluster 0 periods 1..T, then cluster 1, and so on."""
    q, t, i_t, d_k, _ = _did_layout(cfg)
    n = q * t
    codes = np.repeat(np.arange(q), t)
    it_col = np.tile(i_t, q)
    itd_col = it_col * np.repeat(d_k, t)
    return np.column_stack([np.ones(n), it_col, itd_col]), codes


def pooled_column_names(cfg: DidConfig) -> tuple[str, ...]:
    return ("intercept", "post", "post_x_treated", "x1", "x2", "x3")


def _did_block(cfg: DidConfig, lo: int, hi: int):
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
    u0 = lfilter([1.0], [1.0, -cfg.rho], zv, axis=1)[:, cfg.burn_in:, :]

    # per-cluster design is [I_t, X1, X2, X3, 1]; pooled design is
    # [1, I_t, I_t*D_k, X1, X2, X3]
    fixed_cols, codes = _pooled_fixed_columns(cfg)
    n_pool = q * t
    d_pool = 6
    t_idx = 2
    adj = dof_adjustment(n_pool, q, d_pool)
    t_crit_pool = stdtrit(q - 1, 1.0 - cfg.alpha)
    t_crit_im = stdtrit(min(cfg.q1, cfg.q0) - 1, 1.0 - cfg.alpha)
    design = Design(cfg.q1, cfg.q0)
    w_perm = weight_matrix(design)
    entry = lookup_bar_alpha(cfg.q1, cfg.q0, cfg.alpha)
    count_max = design.n_assignments - entry.order_index

    counts = np.zeros((len(cfg.h_grid), len(cfg.delta_grid), 4),
                      dtype=np.int64)
    ones_t = np.ones(t)
    for hi_idx, h in enumerate(cfg.h_grid):
        sig = cfg.sigmas(h)
        x1 = cfg.gamma * itd + sig * zw
        x2 = sig * zx2
        x3 = sig * zx3
        u = sig * u0
        y_base = (cfg.theta0 * i_t[:, None] + cfg.beta1 * x1
                  + cfg.beta2 * x2 + cfg.beta3 * x3 + cfg.zeta + u)

        # per-cluster least squares: design tensor (rep, cluster, T, 5)
        dloc = np.empty((n_rep, q, t, 5))
        dloc[..., 0] = i_t
        dloc[..., 1] = x1.transpose(0, 2, 1)
        dloc[..., 2] = x2.transpose(0, 2, 1)
        dloc[..., 3] = x3.transpose(0, 2, 1)
        dloc[..., 4] = ones_t
        gram_loc = np.einsum("bktd,bkte->bkde", dloc, dloc, optimize=True)
        gram_loc_inv = np.linalg.inv(gram_loc)

        # pooled design (rep, n_pool, d_pool), cluster-major rows
        x_pool = np.empty((n_rep, n_pool, d_pool))
        x_pool[:, :, :3] = fixed_cols
        x_pool[:, :, 3] = x1.transpose(0, 2, 1).reshape(n_rep, n_pool)
        x_pool[:, :, 4] = x2.transpose(0, 2, 1).reshape(n_rep, n_pool)
        x_pool[:, :, 5] = x3.transpose(0, 2, 1).reshape(n_rep, n_pool)
        gram_pool = np.einsum("bnd,bne->bde", x_pool, x_pool, optimize=True)
        bread = np.linalg.inv(gram_pool)
        a_vec = bread[:, :, t_idx]
        xa = np.einsum("bnd,bd->bn", x_pool, a_vec)
        keep = [i for i in range(d_pool) if i != t_idx]
        x_restr = x_pool[:, :, keep]
        gram_restr = np.einsum("bnd,bne->bde", x_restr, x_restr,
                               optimize=True)
        bread_restr = np.linalg.inv(gram_restr)
        xb = np.einsum("bnd,bde->bne", x_pool, bread, optimize=True)

        for di, delta in enumerate(cfg.delta_grid):
            y = y_base + delta * itd  # (rep, T, q)

            # adjusted permutation and group t on per-cluster slopes
            y_loc = y.transpose(0, 2, 1)  # (rep, cluster, T)
            rhs = np.einsum("bktd,bkt->bkd", dloc, y_loc, optimize=True)
            theta = np.einsum("bkde,bke->bkd", gram_loc_inv, rhs,
                              optimize=True)[..., 0]
            stats = theta @ w_perm
            ap = count_at_or_above(stats) <= count_max
            m1 = theta[:, :cfg.q1].mean(axis=1)
            m0 = theta[:, cfg.q1:].mean(axis=1)
            v1 = theta[:, :cfg.q1].var(axis=1, ddof=1) / cfg.q1
            v0 = theta[:, cfg.q1:].var(axis=1, ddof=1) / cfg.q0
            im = (m1 - m0) / np.sqrt(v1 + v0) > t_crit_im

            # pooled cluster-robust t
            y_flat = y_loc.reshape(n_rep, n_pool)
            coef = np.einsum("bde,be->bd", bread,
                             np.einsum("bnd,bn->bd", x_pool, y_flat,
                                       optimize=True), optimize=True)
            resid = y_flat - np.einsum("bnd,bd->bn", x_pool, coef,
                                       optimize=True)
            s_cl = np.einsum("bktd,bkt->bkd",
                             x_pool.reshape(n_rep, q, t, d_pool),
                             resid.reshape(n_rep, q, t), optimize=True)
            sa = np.einsum("bkd,bd->bk", s_cl, a_vec, optimize=True)
            var = adj * (sa ** 2).sum(axis=1)
            t_obs = coef[:, t_idx] / np.sqrt(var)
            bch = t_obs > t_crit_pool

            # wild cluster bootstrap with the null imposed
            coef_r = np.einsum("bde,be->bd", bread_restr,
                               np.einsum("bnd,bn->bd", x_restr, y_flat,
                                         optimize=True), optimize=True)
            resid_r = y_flat - np.einsum("bnd,bd->bn", x_restr, coef_r,
                                         optimize=True)
            r_scores = np.einsum("bktd,bkt->bkd",
                                 x_pool.reshape(n_rep, q, t, d_pool),
                                 resid_r.reshape(n_rep, q, t),
                                 optimize=True)
            rho_v = np.einsum("bkd,bd->bk", r_scores, a_vec, optimize=True)
            w_lin = -np.einsum("bne,bke->bnk", xb, r_scores, optimize=True)
            w_lin[:, np.arange(n_pool), codes] += resid_r
            m_mat = np.einsum("bkt,bktj->bkj",
                              xa.reshape(n_rep, q, t),
                              w_lin.reshape(n_rep, q, t, q), optimize=True)
            delta_star = np.einsum("bk,brk->br", rho_v, signs,
                                   optimize=True)
            a_star = np.einsum("bkj,brj->brk", m_mat, signs, optimize=True)
            var_star = adj * (a_star ** 2).sum(axis=2)
            t_star = np.divide(delta_star, np.sqrt(var_star),
                               out=np.zeros_like(delta_star),
                               where=var_star > 0.0)
            tol = 1e-9 * np.maximum(1.0, np.abs(t_obs))
            exceed = (t_star >= (t_obs - tol)[:, None]).sum(axis=1)
            wcb = (1.0 + exceed) / (b_boot + 1.0) <= cfg.alpha

            for mi, flags in enumerate((ap, im, bch, wcb)):
                counts[hi_idx, di, mi] = flags.sum()
    return counts, checksum


def run_did_study(cfg: DidConfig, workers: int = 1) -> ResultTable:
    """Rejection frequencies of all four tests on identical panel draws,
    for each (h, delta) grid cell."""
    design = Design(cfg.q1, cfg.q0)
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
    meta["pooled_columns"] = " ".join(pooled_column_names(cfg))
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
