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
group_t, pooled_t and bootstrap_p_values.  The Monte Carlo studies in
simharness call them on a block of replications and apply the t
references themselves.  pooled_t takes rows sorted by cluster, so
cluster sums are one np.add.reduceat over the row axis.

pooled_t also takes a grid of shifts s of the outcome along the target
column x_t, which is how a study's effect grid enters the pooled
outcome: y(s) = y + s x_t.  x_t is a column of the design, so the fit of
y(s) is the fit of y with s added to the target coefficient, and the
residuals, the sandwich and the se do not change; t(s) = (beta + s)/se.
The restricted fit drops x_t, so there its residuals do change, but
linearly: they are those of y plus s times those of x_t.  Everything the
bootstrap forms from them before the signs act (the per-cluster target
scores and the q x q sandwich map) is linear as well, so one restricted
fit of the two basis outcomes y and x_t gives every shift, and only the
sign products are formed per shift, all shifts in one matmul per
dataset.  The identities are exact in exact arithmetic; in floating
point the statistics agree with a fit of each shifted outcome to
roundoff.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError, DomainError


def dof_adjustment(n: int, q: int, d: int) -> float:
    """Small-sample scaling (n-1)q/((n-d)(q-1)) of the sandwich variance."""
    if q < 2:
        raise DomainError(f"need at least 2 clusters, got {q}")
    if n <= d:
        raise DegenerateDataError(
            f"adjustment undefined: n={n} rows for d={d} regressors")
    return (n - 1) * q / ((n - d) * (q - 1))


def pooled_t(x: np.ndarray, y: np.ndarray, starts: np.ndarray, t_idx: int,
             adj: float, signs: np.ndarray | None = None,
             shifts: np.ndarray | None = None):
    """Pooled OLS coefficient of column t_idx, its cluster-robust
    standard error and their ratio t, over any leading batch axes.

    x is (..., n, d) and y (..., n), with rows sorted by cluster and
    cluster k's rows starting at starts[k]; adj scales the sandwich
    variance.  With Rademacher signs (..., R, q) the restricted wild
    cluster bootstrap statistics t* (..., R) are returned as well.

    With shifts (D,), the outcomes are y + s * x[..., t_idx] for each
    shift s, and every output gains a shift axis: the coefficient, se
    and t are (..., D) and t* (..., D, R).  The shifted outcomes are
    never fitted: see the module docstring for why one fit of y and one
    restricted fit of the target column give every shift.
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
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        beta = beta[..., None] + shifts
        se = np.repeat(se[..., None], len(shifts), axis=-1)
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
    # With shifts, the restricted fit is made once for each of the basis
    # outcomes y and x_t, stacked on a new leading axis; rho and M are
    # linear in the outcome, so those of y + s x_t are rho_y + s rho_x
    # and M_y + s M_x.
    basis, xt_basis = y, xty
    if shifts is not None:
        basis = np.stack([y, x[..., t_idx]])
        xt_basis = np.stack([xty, gram[..., t_idx, :]])
    keep = [i for i in range(x.shape[-1]) if i != t_idx]
    resid_r = basis
    if keep:
        coef_r = np.matvec(np.linalg.inv(gram[..., keep, :][..., keep]),
                           xt_basis[..., keep])
        resid_r = basis - np.matvec(x[..., keep], coef_r)
    r_scores = np.add.reduceat(x * resid_r[..., None], starts, axis=-2)
    xa = np.matvec(x, a)
    m = -(np.add.reduceat(xa[..., None] * (x @ bread), starts, axis=-2)
          @ r_scores.mT)
    q = len(starts)
    m[..., np.arange(q), np.arange(q)] += np.add.reduceat(xa * resid_r,
                                                          starts, axis=-1)
    rho = np.matvec(r_scores, a)
    if shifts is None:
        coef_star = np.matvec(signs, rho)
        sign_products = signs @ m.mT
    else:
        s = shifts[:, None]
        rho = rho[0, ..., None, :] + s * rho[1, ..., None, :]
        m = m[0, ..., None, :, :] + s[..., None] * m[1, ..., None, :, :]
        coef_star = np.matvec(signs[..., None, :, :], rho)
        # the shifts' maps side by side, (..., q, D q), so that the signs
        # meet every shift in one product; then back to (..., D, R, q)
        side = np.moveaxis(m, -1, -3).reshape(*m.shape[:-3], q, -1)
        sign_products = np.moveaxis(
            (signs @ side).reshape(*signs.shape[:-1], len(shifts), q), -2, -3)
    var_star = adj * np.einsum("...i,...i->...", sign_products, sign_products)
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


def group_t(x: np.ndarray, q1: int) -> np.ndarray:
    """Studentized treated-minus-control mean difference over the last
    axis of x, whose first q1 entries are treated:
    (mean1 - mean0) / sqrt(s1^2/q1 + s0^2/q0) with sample variances."""
    x1, x0 = x[..., :q1], x[..., q1:]
    var_term = (x1.var(axis=-1, ddof=1) / q1
                + x0.var(axis=-1, ddof=1) / x0.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return (x1.mean(axis=-1) - x0.mean(axis=-1)) / np.sqrt(var_term)
