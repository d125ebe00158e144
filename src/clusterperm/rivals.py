"""Comparison methods: group t-test, pooled cluster-robust t-test, and
the wild cluster bootstrap.

These are the benchmarks the adjusted permutation test is judged
against.  The group t-test studentizes the treated-minus-control mean
of per-cluster estimates and uses a t reference with min(q1, q0) - 1
degrees of freedom.  The pooled test regresses in the stacked sample,
computes the cluster-robust sandwich variance with the small-sample
adjustment (n-1)q/((n-d)(q-1)), and compares to a t with q - 1 degrees
of freedom.  The wild cluster bootstrap imposes the null by refitting
without the target regressor, flips the restricted residuals cluster by
cluster with Rademacher signs, and recomputes the cluster-robust
t-statistic on each rebuilt sample.

The arithmetic lives in three kernels with leading batch axes:
group_t, pooled_t and bootstrap_p_values.  The single-dataset test
functions below call them on one dataset; the Monte Carlo studies in
simharness call them on a block of replications.  pooled_t takes rows
sorted by cluster, so cluster sums are one np.add.reduceat over the row
axis for ragged data tables and equal-sized study panels alike.

Pooled data is a plain mapping from column name to a one-dimensional
array; PooledRegressionSpec names the columns that matter.  Interaction
regressors (for example a post-times-treated column) are supplied as
precomputed columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    ContractError,
    DegenerateDataError,
    DomainError,
    RankDeficientError,
    ShapeError,
)
from .permkit import RngStream, _as_generator, positive_int
from .permtest import ClusterEstimates, TestOutcome, check_side_alpha


@dataclass(frozen=True)
class PooledRegressionSpec:
    """Column roles for a pooled regression.

    regressors lists every design column, in order, including the one
    whose coefficient is under test (target).  The regressor count d
    feeds the sandwich adjustment, so an intercept or fixed-effect
    dummies must appear here explicitly if the design has them.
    """

    outcome: str
    regressors: tuple[str, ...]
    target: str
    cluster: str

    def __post_init__(self):
        regs = tuple(self.regressors)
        object.__setattr__(self, "regressors", regs)
        if len(regs) < 1:
            raise DomainError("need at least one regressor")
        if len(set(regs)) != len(regs):
            raise DomainError("regressor names must be distinct")
        if self.target not in regs:
            raise DomainError(f"target {self.target!r} is not a regressor")
        for name in (self.outcome, self.cluster):
            if name in regs:
                raise DomainError(f"column {name!r} cannot be both a "
                                  "regressor and a role column")
        if self.outcome == self.cluster:
            raise DomainError("outcome and cluster columns must differ")

    @property
    def d(self) -> int:
        return len(self.regressors)


def dof_adjustment(n: int, q: int, d: int) -> float:
    """Small-sample scaling (n-1)q/((n-d)(q-1)) of the sandwich variance."""
    if q < 2:
        raise DomainError(f"need at least 2 clusters, got {q}")
    if n <= d:
        raise DegenerateDataError(
            f"adjustment undefined: n={n} rows for d={d} regressors")
    return (n - 1) * q / ((n - d) * (q - 1))


def _column(data: Mapping[str, object], name: str, n: int | None):
    if name not in data:
        raise DomainError(f"data table is missing column {name!r}")
    col = np.asarray(data[name])
    if col.ndim != 1:
        raise ShapeError(f"column {name!r} must be one-dimensional")
    if n is not None and col.size != n:
        raise ShapeError(f"column {name!r} has {col.size} rows, expected {n}")
    return col


def _assemble(data: Mapping[str, object], spec: PooledRegressionSpec):
    """The arguments of pooled_t for one data table: rows sorted by
    cluster (stable), the cluster start rows, the target column and the
    sandwich adjustment.  Raises on a rank-deficient design."""
    from scipy.linalg import qr

    y = _column(data, spec.outcome, None).astype(float)
    n = y.size
    if n == 0:
        raise ShapeError("data table has no rows")
    x = np.column_stack([_column(data, name, n).astype(float)
                         for name in spec.regressors])
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
        raise DomainError("outcome and regressors must be finite")
    labels = _column(data, spec.cluster, n)
    _, codes = np.unique(labels, return_inverse=True)
    q = int(codes.max()) + 1
    if q < 2:
        raise DomainError("need at least 2 clusters")
    adj = dof_adjustment(n, q, spec.d)
    diag = np.abs(np.diag(qr(x, mode="r", pivoting=True)[0]))
    if diag[0] == 0.0 or np.any(diag < 1e-10 * diag[0]):
        raise RankDeficientError("pooled design matrix is rank deficient")
    order = np.argsort(codes, kind="stable")
    starts = np.searchsorted(codes[order], np.arange(q))
    return (x[order], y[order], starts, spec.regressors.index(spec.target),
            adj)


def pooled_t(x: np.ndarray, y: np.ndarray, starts: np.ndarray, t_idx: int,
             adj: float, signs: np.ndarray | None = None):
    """Pooled OLS coefficient of column t_idx, its cluster-robust
    standard error and their ratio t, over any leading batch axes.

    x is (..., n, d) and y (..., n), with rows sorted by cluster and
    cluster k's rows starting at starts[k]; adj scales the sandwich
    variance.  With Rademacher signs (..., R, q) the restricted wild
    cluster bootstrap statistics t* (..., R) are returned as well.
    """
    gram = x.mT @ x
    bread = np.linalg.inv(gram)
    a = bread[..., t_idx]
    xty = np.vecmat(y, x)
    coef = np.matvec(bread, xty)
    resid = y - np.matvec(x, coef)
    scores = np.add.reduceat(x * resid[..., None], starts, axis=-2)
    se = np.sqrt(adj * np.square(np.matvec(scores, a)).sum(axis=-1))
    beta = coef[..., t_idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = beta / se
    if signs is None:
        return beta, se, t

    # The restricted fit drops the target column.  With g the vector of
    # cluster signs, the rebuilt outcome is fitted_r + sum_j g_j resid_j,
    # and because the restricted columns sit inside the full design the
    # target coefficient and residuals are linear in g:
    #   coef*(g)  = rho' g           rho_j = a' X_j' resid_j
    #   resid*(g) = W g              W = scatter(resid) - X bread R'
    # where a is the target column of (X'X)^{-1} and R stacks the
    # per-cluster scores X_j' resid_j.  The per-cluster sandwich terms
    # a' X_j' resid*_j(g) are then the rows of M g, with
    #   M = diag(sum_{i in j} xa_i resid_i) - C R',
    #   C_j = sum_{i in j} xa_i X_i bread,  xa = X a.
    keep = [i for i in range(x.shape[-1]) if i != t_idx]
    resid_r = y
    if keep:
        coef_r = np.matvec(np.linalg.inv(gram[..., keep, :][..., keep]),
                           xty[..., keep])
        resid_r = y - np.matvec(x[..., keep], coef_r)
    r_scores = np.add.reduceat(x * resid_r[..., None], starts, axis=-2)
    xa = np.matvec(x, a)
    m = -(np.add.reduceat(xa[..., None] * (x @ bread), starts, axis=-2)
          @ r_scores.mT)
    q = len(starts)
    m[..., np.arange(q), np.arange(q)] += np.add.reduceat(xa * resid_r,
                                                          starts, axis=-1)
    coef_star = np.matvec(signs, np.matvec(r_scores, a))
    var_star = adj * np.square(signs @ m.mT).sum(axis=-1)
    t_star = np.divide(coef_star, np.sqrt(var_star),
                       out=np.zeros_like(coef_star), where=var_star > 0.0)
    return beta, se, t, t_star


def bootstrap_p_values(t_star: np.ndarray, t):
    """Right, left and two-sided bootstrap p-values (1 + #{exceedances})
    / (R + 1) of t against its R statistics t* on the last axis.

    Exceedance counts use a 1e-9 relative tolerance: the all-plus sign
    vector reproduces the observed statistic exactly in exact
    arithmetic, and that tie must not be lost to roundoff.
    """
    t = np.asarray(t)[..., None]
    tol = 1e-9 * np.maximum(1.0, np.abs(t))
    n = t_star.shape[-1] + 1
    return ((1 + (t_star >= t - tol).sum(axis=-1)) / n,
            (1 + (t_star <= t + tol).sum(axis=-1)) / n,
            (1 + (np.abs(t_star) >= np.abs(t) - tol).sum(axis=-1)) / n)


def cluster_robust_ols(data: Mapping[str, object],
                       spec: PooledRegressionSpec) -> tuple[float, float]:
    """Pooled OLS coefficient of the target regressor and its
    cluster-robust standard error (sandwich with cluster-summed scores,
    scaled by dof_adjustment)."""
    coef, se, _ = pooled_t(*_assemble(data, spec))
    return float(coef), float(se)


def _t_reference_outcome(statistic: float, df: int, alpha: float, side: str,
                         method: str, extra: dict) -> TestOutcome:
    from scipy.special import stdtr, stdtrit

    p_left = float(stdtr(df, statistic))
    p_right = 1.0 - p_left
    p_two = 2.0 * min(p_right, p_left)
    if side == "right":
        crit = stdtrit(df, 1.0 - alpha)
        reject = statistic > crit
    elif side == "left":
        crit = stdtrit(df, alpha)
        reject = statistic < crit
    else:
        crit = stdtrit(df, 1.0 - alpha / 2.0)
        reject = abs(statistic) > crit
    return TestOutcome(
        statistic=float(statistic), critical_value=float(crit),
        p_value_right=float(p_right), p_value_left=float(p_left),
        p_value_two_sided=float(min(p_two, 1.0)),
        decision="reject" if reject else "retain", side=side, alpha=alpha,
        bar_alpha_used=None, method=method, extra=extra)


def group_t(x: np.ndarray, q1: int) -> np.ndarray:
    """Studentized treated-minus-control mean difference over the last
    axis of x, whose first q1 entries are treated:
    (mean1 - mean0) / sqrt(s1^2/q1 + s0^2/q0) with sample variances."""
    x1, x0 = x[..., :q1], x[..., q1:]
    var_term = (x1.var(axis=-1, ddof=1) / q1
                + x0.var(axis=-1, ddof=1) / x0.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return (x1.mean(axis=-1) - x0.mean(axis=-1)) / np.sqrt(var_term)


def im_test(theta_hat: ClusterEstimates, alpha: float,
            side: str = "right") -> TestOutcome:
    """Two-sample t-test on the cluster estimates: group_t against a t
    reference with min(q1, q0) - 1 degrees of freedom."""
    check_side_alpha(side, alpha)
    d = theta_hat.design
    if d.q1 < 2 or d.q0 < 2:
        raise ContractError("both groups need at least 2 clusters for "
                            "sample variances")
    statistic = float(group_t(theta_hat.values, d.q1))
    if not math.isfinite(statistic):
        raise DegenerateDataError("both groups are constant; the "
                                  "studentized statistic is undefined")
    df = min(d.q1, d.q0) - 1
    return _t_reference_outcome(statistic, df, alpha, side, "group-t",
                                {"df": df})


def bch_test(data: Mapping[str, object], spec: PooledRegressionSpec,
             alpha: float, side: str = "right") -> TestOutcome:
    """Pooled cluster-robust t-test: coefficient/se from
    cluster_robust_ols against a t reference with q - 1 degrees of
    freedom."""
    check_side_alpha(side, alpha)
    x, y, starts, t_idx, adj = _assemble(data, spec)
    coef, se, statistic = pooled_t(x, y, starts, t_idx, adj)
    if se == 0.0:
        raise DegenerateDataError("cluster-robust standard error is zero")
    df = len(starts) - 1
    return _t_reference_outcome(
        float(statistic), df, alpha, side, "pooled-cluster-t",
        {"df": df, "coefficient": float(coef), "se": float(se),
         "adjustment": adj})


def wild_cluster_bootstrap_test(data: Mapping[str, object],
                                spec: PooledRegressionSpec, alpha: float,
                                side: str = "right", B: int = 199,
                                rng=None) -> TestOutcome:
    """Wild cluster bootstrap with the null imposed.

    The restricted fit drops the target regressor.  Each replication
    flips every cluster's restricted residuals by one Rademacher sign,
    rebuilds the outcome, and recomputes the pooled cluster-robust
    t-statistic.  One-sided p-value: (1 + #{t*_b >= t}) / (B + 1) on the
    right and the mirror image on the left; two-sided compares absolute
    values (bootstrap_p_values).  Rejects iff the p-value for the
    requested side is <= alpha.

    The replication statistics are not recentered: the null value of the
    target coefficient is zero in the bootstrap world, so t* = coef*/se*.
    """
    check_side_alpha(side, alpha)
    B = positive_int("B", B)
    if rng is None:
        rng = RngStream(0)
    elif isinstance(rng, (int, np.integer)):
        rng = RngStream(int(rng))
    gen = _as_generator(rng)

    x, y, starts, t_idx, adj = _assemble(data, spec)
    signs = gen.integers(0, 2, size=(B, len(starts))).astype(float) * 2.0 - 1.0
    coef, se, t_obs, t_star = pooled_t(x, y, starts, t_idx, adj, signs)
    if se == 0.0:
        raise DegenerateDataError("cluster-robust standard error is zero")
    t_obs = float(t_obs)
    p_right, p_left, p_two = map(float, bootstrap_p_values(t_star, t_obs))

    n_b = t_star.size
    if side == "right":
        p_used, ref = p_right, np.sort(t_star)
        k = math.ceil((1.0 - alpha) * (n_b + 1)) - 1
        crit = float(ref[k]) if k < n_b else math.inf
    elif side == "left":
        p_used, ref = p_left, np.sort(-t_star)
        k = math.ceil((1.0 - alpha) * (n_b + 1)) - 1
        crit = -float(ref[k]) if k < n_b else -math.inf
    else:
        p_used, ref = p_two, np.sort(np.abs(t_star))
        k = math.ceil((1.0 - alpha) * (n_b + 1)) - 1
        crit = float(ref[k]) if k < n_b else math.inf
    return TestOutcome(
        statistic=t_obs, critical_value=crit,
        p_value_right=p_right, p_value_left=p_left, p_value_two_sided=p_two,
        decision="reject" if p_used <= alpha else "retain",
        side=side, alpha=alpha, bar_alpha_used=None,
        n_assignments=B, assignment_source="bootstrap",
        method="wild-cluster-bootstrap",
        extra={"coefficient": float(coef), "se": float(se), "B": B})
