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
from scipy.linalg import qr, solve_triangular
from scipy.special import stdtr, stdtrit

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
    return y, x, codes, q


def _pooled_inverse_gram(x: np.ndarray) -> np.ndarray:
    """(X'X)^{-1} via pivoted QR, raising on rank deficiency."""
    qm, r, piv = qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0 or np.any(diag < 1e-10 * diag[0]):
        raise RankDeficientError("pooled design matrix is rank deficient")
    rinv = solve_triangular(r, np.eye(r.shape[0]))
    bread_piv = rinv @ rinv.T
    d = x.shape[1]
    bread = np.empty((d, d))
    bread[np.ix_(piv, piv)] = bread_piv
    return bread


def _cluster_scores(x: np.ndarray, u: np.ndarray, codes: np.ndarray,
                    q: int) -> np.ndarray:
    """(q, d) matrix whose j-th row is X_j' u_j."""
    scores = np.zeros((q, x.shape[1]))
    np.add.at(scores, codes, x * u[:, None])
    return scores


def _fit(data, spec):
    y, x, codes, q = _assemble(data, spec)
    n, d = x.shape
    adj = dof_adjustment(n, q, d)
    bread = _pooled_inverse_gram(x)
    coef = bread @ (x.T @ y)
    u = y - x @ coef
    scores = _cluster_scores(x, u, codes, q)
    meat = scores.T @ scores
    cov = adj * (bread @ meat @ bread)
    t_idx = spec.regressors.index(spec.target)
    variance = cov[t_idx, t_idx]
    se = math.sqrt(variance) if variance > 0.0 else 0.0
    return y, x, codes, q, adj, bread, coef, u, t_idx, se


def cluster_robust_ols(data: Mapping[str, object],
                       spec: PooledRegressionSpec) -> tuple[float, float]:
    """Pooled OLS coefficient of the target regressor and its
    cluster-robust standard error (sandwich with cluster-summed scores,
    scaled by dof_adjustment)."""
    *_, coef, _u, t_idx, se = _fit(data, spec)
    return float(coef[t_idx]), float(se)


def _t_reference_outcome(statistic: float, df: int, alpha: float, side: str,
                         method: str, extra: dict) -> TestOutcome:
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


def im_test(theta_hat: ClusterEstimates, alpha: float,
            side: str = "right") -> TestOutcome:
    """Two-sample t-test on the cluster estimates: the treated-minus-
    control mean difference, studentized by sqrt(s1^2/q1 + s0^2/q0)
    with sample variances, against a t reference with
    min(q1, q0) - 1 degrees of freedom."""
    check_side_alpha(side, alpha)
    d = theta_hat.design
    if d.q1 < 2 or d.q0 < 2:
        raise ContractError("both groups need at least 2 clusters for "
                            "sample variances")
    x1 = theta_hat.treated_values
    x0 = theta_hat.control_values
    var_term = x1.var(ddof=1) / d.q1 + x0.var(ddof=1) / d.q0
    if var_term == 0.0:
        raise DegenerateDataError("both groups are constant; the "
                                  "studentized statistic is undefined")
    statistic = (x1.mean() - x0.mean()) / math.sqrt(var_term)
    df = min(d.q1, d.q0) - 1
    return _t_reference_outcome(statistic, df, alpha, side, "group-t",
                                {"df": df})


def bch_test(data: Mapping[str, object], spec: PooledRegressionSpec,
             alpha: float, side: str = "right") -> TestOutcome:
    """Pooled cluster-robust t-test: coefficient/se from
    cluster_robust_ols against a t reference with q - 1 degrees of
    freedom."""
    check_side_alpha(side, alpha)
    y, x, codes, q, adj, bread, coef, u, t_idx, se = _fit(data, spec)
    if se == 0.0:
        raise DegenerateDataError("cluster-robust standard error is zero")
    statistic = float(coef[t_idx]) / se
    df = q - 1
    return _t_reference_outcome(
        statistic, df, alpha, side, "pooled-cluster-t",
        {"df": df, "coefficient": float(coef[t_idx]), "se": se,
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
    values.  Rejects iff the p-value for the requested side is <= alpha.

    The replication statistics are not recentered: the null value of the
    target coefficient is zero in the bootstrap world, so t* = coef*/se*.
    Exceedance counts use a 1e-9 relative tolerance: the all-plus sign
    vector reproduces the observed statistic exactly in exact arithmetic,
    and that tie must not be lost to roundoff.
    """
    check_side_alpha(side, alpha)
    B = positive_int("B", B)
    if rng is None:
        rng = RngStream(0)
    elif isinstance(rng, (int, np.integer)):
        rng = RngStream(int(rng))
    gen = _as_generator(rng)

    y, x, codes, q, adj, bread, coef, u, t_idx, se = _fit(data, spec)
    if se == 0.0:
        raise DegenerateDataError("cluster-robust standard error is zero")
    t_obs = float(coef[t_idx]) / se

    # restricted fit without the target column
    keep = [i for i in range(x.shape[1]) if i != t_idx]
    if keep:
        x_r = x[:, keep]
        bread_r = _pooled_inverse_gram(x_r)
        coef_r = bread_r @ (x_r.T @ y)
        resid = y - x_r @ coef_r
    else:
        resid = y.copy()

    # With g the vector of cluster signs, the rebuilt outcome is
    # fitted_r + sum_j g_j resid_j, and because the restricted columns
    # sit inside the full design the target coefficient and residuals
    # are linear in g:
    #   coef*(g)  = rho' g           rho_j = a' X_j' resid_j
    #   resid*(g) = W g              W = scatter(resid) - X bread R'
    # where a is the target column of (X'X)^{-1} and R stacks the
    # per-cluster scores X_j' resid_j.  The per-cluster sandwich terms
    # a' X_j' resid*_j(g) are then rows of M g.
    a = bread[:, t_idx]
    r_scores = _cluster_scores(x, resid, codes, q)
    rho = r_scores @ a
    scatter = np.zeros((y.size, q))
    scatter[np.arange(y.size), codes] = resid
    w = scatter - x @ (bread @ r_scores.T)
    xa = x @ a
    m = np.zeros((q, q))
    np.add.at(m, codes, w * xa[:, None])

    signs = gen.integers(0, 2, size=(B, q)).astype(float) * 2.0 - 1.0
    coef_star = signs @ rho
    var_star = adj * np.square(signs @ m.T).sum(axis=1)
    t_star = np.divide(coef_star, np.sqrt(var_star),
                       out=np.zeros_like(coef_star), where=var_star > 0.0)

    n_b = t_star.size
    tol = 1e-9 * max(1.0, abs(t_obs))
    p_right = (1 + int((t_star >= t_obs - tol).sum())) / (n_b + 1)
    p_left = (1 + int((t_star <= t_obs + tol).sum())) / (n_b + 1)
    p_two = (1 + int((np.abs(t_star) >= abs(t_obs) - tol).sum())) / (n_b + 1)
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
        extra={"coefficient": float(coef[t_idx]), "se": se, "B": B})
