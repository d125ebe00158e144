"""Tests for the comparison kernels: group t, pooled cluster-robust t
and the wild cluster bootstrap.

One-table calls go through _assemble, which sorts a data table's rows
by cluster as pooled_t requires; the t references are applied here.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import t as t_dist

from clusterperm.errors import DegenerateDataError, DomainError
from clusterperm.permkit import RngStream
from clusterperm.rivals import (
    bootstrap_p_values,
    dof_adjustment,
    group_t,
    pooled_t,
)
from clusterperm.simharness import NormalLocationConfig, _study_setup

REGS = ("one", "x1", "tr")  # intercept, covariate, treatment indicator


def _assemble(table, regs=("one", "x"), target="x"):
    """pooled_t's arguments for a table with outcome "y" and cluster
    column "cid": design and outcome rows sorted by cluster, the start
    row of each cluster, the target column and the adjustment."""
    _, codes = np.unique(np.asarray(table["cid"]), return_inverse=True)
    order = np.argsort(codes, kind="stable")
    q = int(codes.max()) + 1
    x = np.column_stack([np.asarray(table[r], dtype=float) for r in regs])
    y = np.asarray(table["y"], dtype=float)
    return (x[order], y[order], np.searchsorted(codes[order], np.arange(q)),
            regs.index(target), dof_adjustment(y.size, q, len(regs)))


def _coef_se(table, regs=("one", "x"), target="x"):
    """The pooled OLS coefficient of the target and its cluster-robust
    standard error."""
    return pooled_t(*_assemble(table, regs, target))[:2]


def _bootstrap(table, regs, target, B, stream):
    """The observed t and the right, left and two-sided wild bootstrap
    p-values from B sign vectors drawn from stream."""
    x, y, starts, t_idx, adj = _assemble(table, regs, target)
    signs = stream.generator().integers(0, 2, (B, len(starts))) * 2.0 - 1.0
    _, _, t, t_star = pooled_t(x, y, starts, t_idx, adj, signs)
    return float(t), tuple(map(float, bootstrap_p_values(t_star, t)))


# =========================================================================
# Oracles
# =========================================================================
# Hand sandwich on the 4-point dataset y=(0,1,1,2), x=(0,1,2,3), design
# [1, x], one observation per cluster:
#   X'X = [[4,6],[6,14]], inverse = [[.7,-.3],[-.3,.2]], X'y = [4,9]
#   coefficients (0.1, 0.6); residuals (-.1,.3,-.3,.1)
#   meat = sum u_i^2 (1,x)(1,x)' = [[.2,.3],[.3,.54]]
#   (bread meat bread)[x,x] = 0.0036; adjustment (3*4)/(2*3) = 2
#   se = sqrt(0.0072)
FOUR_POINT = {"y": [0.0, 1.0, 2.0, 1.0], "one": [1.0] * 4,
              "x": [0.0, 1.0, 3.0, 2.0], "cid": ["a", "b", "d", "c"]}
FOUR_POINT_COEF = 0.6
FOUR_POINT_SE = math.sqrt(0.0072)

# Studentized two-sample statistic at (1,2,3 | 4,5,6): group means 2 and
# 5, each sample variance 1, variance term 1/3 + 1/3.
IM_ORACLE = -3.0 / math.sqrt(2.0 / 3.0)


def _zero_mean_clusters(wide=False):
    """Orthogonal-by-construction table: both group means are exactly
    zero (so the coefficient on the treatment column is zero) while the
    individual cluster sums stay nonzero (so the sandwich meat does
    not collapse).  wide=True uses eight clusters with asymmetric sums,
    thinning the bootstrap atoms that tie at zero."""
    if wide:
        patterns = [(2.0, -1.0, 0.0), (3.0, -1.0, 0.0), (4.0, -1.0, 0.0),
                    (-7.0, 1.0, 0.0), (1.0, 0.0, 0.0), (-5.0, 1.0, 0.0),
                    (6.0, -1.0, 0.0), (-3.0, 1.0, 0.0)]
    else:
        patterns = [(2.0, 1.0, 0.0), (-2.0, -1.0, 0.0),
                    (3.0, -1.0, 0.0), (-3.0, 1.0, 0.0)]
    y, cid, tr = [], [], []
    half = len(patterns) // 2
    for k in range(len(patterns)):
        for v in patterns[k]:
            y.append(v)
            cid.append(f"c{k}")
            tr.append(1.0 if k < half else 0.0)
    return {"y": y, "one": [1.0] * (3 * len(patterns)), "tr": tr,
            "cid": cid}


def _random_table(rng, q=4, n_per=5, scale_by_cluster=True):
    cid = np.repeat(np.arange(q), n_per)
    x1 = rng.normal(size=q * n_per)
    tr = (cid < q // 2).astype(float)
    noise = rng.normal(size=q * n_per)
    if scale_by_cluster:
        noise = noise * (1.0 + cid)
    return {"y": 0.5 + 0.3 * x1 + noise, "one": np.ones(q * n_per),
            "x1": x1, "tr": tr, "cid": cid}


def _enumerated_bootstrap_p(table, regs, target, side="right"):
    """Independent oracle: enumerate every Rademacher sign vector,
    rebuild the outcome from the restricted fit, refit through pooled_t
    without signs, and average the exceedance indicator."""
    y = np.asarray(table["y"], dtype=float)
    x = np.column_stack([np.asarray(table[r], dtype=float) for r in regs])
    _, codes = np.unique(np.asarray(table["cid"]), return_inverse=True)
    q = codes.max() + 1
    t_idx = regs.index(target)

    coef, se = _coef_se(table, regs, target)
    t_obs = coef / se
    keep = [i for i in range(x.shape[1]) if i != t_idx]
    if keep:
        br, *_ = np.linalg.lstsq(x[:, keep], y, rcond=None)
        fit_r = x[:, keep] @ br
    else:
        fit_r = np.zeros_like(y)
    resid = y - fit_r

    stats = []
    for g in itertools.product([-1.0, 1.0], repeat=int(q)):
        ystar = fit_r + resid * np.asarray(g)[codes]
        c, s = _coef_se(dict(table, y=ystar), regs, target)
        stats.append(c / s)
    stats = np.asarray(stats)
    tol = 1e-9 * max(1.0, abs(t_obs))
    if side == "right":
        return float((stats >= t_obs - tol).mean()), t_obs
    if side == "left":
        return float((stats <= t_obs + tol).mean()), t_obs
    return float((np.abs(stats) >= abs(t_obs) - tol).mean()), t_obs


# =========================================================================
# The adjustment factor
# =========================================================================

class TestDofAdjustment:
    def test_printed_arithmetic(self):
        # (239*12)/(235*11) = 2868/2585
        assert dof_adjustment(240, 12, 5) == pytest.approx(
            float(Fraction(2868, 2585)), rel=1e-15)

    def test_four_point_factor_is_two(self):
        assert dof_adjustment(4, 4, 2) == 2.0

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            dof_adjustment(10, 1, 2)
        with pytest.raises(DegenerateDataError):
            dof_adjustment(5, 3, 5)


# =========================================================================
# pooled_t on one data table
# =========================================================================

class TestClusterRobustOls:
    def test_hand_oracle(self):
        coef, se = _coef_se(FOUR_POINT)
        assert coef == pytest.approx(FOUR_POINT_COEF, abs=1e-12)
        assert se == pytest.approx(FOUR_POINT_SE, abs=1e-12)

    def test_single_row_clusters_match_pointwise_sandwich(self):
        # with one observation per cluster the meat reduces to the
        # heteroskedasticity-robust sum, so se = sqrt(adj) * hc0 se
        rng = np.random.default_rng(2)
        n = 7
        x = rng.normal(size=n)
        y = 1.0 + 0.5 * x + rng.normal(size=n)
        table = {"y": y, "one": np.ones(n), "x": x, "cid": np.arange(n)}
        coef, se = _coef_se(table)

        xd = np.column_stack([np.ones(n), x])
        bread = np.linalg.inv(xd.T @ xd)
        b = bread @ xd.T @ y
        u = y - xd @ b
        meat = (xd * (u ** 2)[:, None]).T @ xd
        hc0 = math.sqrt((bread @ meat @ bread)[1, 1])
        assert coef == pytest.approx(b[1], rel=1e-12)
        assert se == pytest.approx(
            math.sqrt(dof_adjustment(n, n, 2)) * hc0, rel=1e-12)

    def test_duplication_leaves_coefficient_unchanged(self):
        rng = np.random.default_rng(5)
        table = _random_table(rng)
        coef, _ = _coef_se(table, REGS, "tr")
        doubled = {k: np.concatenate([np.asarray(v), np.asarray(v)])
                   for k, v in table.items()}
        coef2, _ = _coef_se(doubled, REGS, "tr")
        assert coef2 == pytest.approx(coef, rel=1e-12)

    def test_tiny_covariate_is_not_rank_deficient(self):
        # x scaled by 2^-40 next to the intercept scales the coefficient
        # and its standard error by 2^40 and nothing else
        table = dict(FOUR_POINT, x=[2.0 ** -40 * v for v in FOUR_POINT["x"]])
        coef, se = _coef_se(table)
        assert coef == pytest.approx(2.0 ** 40 * FOUR_POINT_COEF, rel=1e-12)
        assert se == pytest.approx(2.0 ** 40 * FOUR_POINT_SE, rel=1e-12)

    def test_single_cluster_rejected(self):
        table = {"y": [1.0, 2.0], "one": [1.0, 1.0], "cid": ["a", "a"]}
        with pytest.raises(DomainError):
            _coef_se(table, ("one",), "one")


# =========================================================================
# group_t and its reference
# =========================================================================

class TestImTest:
    def test_hand_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert group_t(x, 3) == pytest.approx(IM_ORACLE, abs=1e-12)

    def test_symmetric_data_retains(self):
        statistic = group_t(np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0]), 3)
        assert statistic == 0.0
        assert not statistic > t_dist.ppf(0.95, 2)

    def test_degrees_of_freedom_six_six(self):
        # the studies' critical value: t with min(q1, q0) - 1 = 5 df
        assert _study_setup(NormalLocationConfig())[3] == pytest.approx(
            t_dist.ppf(0.95, 5), abs=1e-12)

    def test_unbalanced_df_uses_smaller_group(self):
        cfg = NormalLocationConfig(q1=4, q0=9, alpha=0.10)
        assert _study_setup(cfg)[3] == pytest.approx(t_dist.ppf(0.90, 3),
                                                     abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=10)
        assert group_t(vals + 11.5, 5) == pytest.approx(group_t(vals, 5),
                                                        abs=1e-9)

    def test_swap_and_negation_each_flip_sign(self):
        rng = np.random.default_rng(4)
        t_vals = rng.normal(size=4)
        c_vals = rng.normal(size=7)
        a = group_t(np.concatenate([t_vals, c_vals]), 4)
        swapped = group_t(np.concatenate([c_vals, t_vals]), 7)
        negated = group_t(np.concatenate([-t_vals, -c_vals]), 4)
        both = group_t(np.concatenate([-c_vals, -t_vals]), 7)
        assert swapped == pytest.approx(-a, rel=1e-12)
        assert negated == pytest.approx(-a, rel=1e-12)
        assert both == pytest.approx(a, rel=1e-12)

    def test_left_side_mirrors_right_on_negated(self):
        # negating the data negates the statistic exactly, so the left
        # tail of the negated data is the right tail of the data
        rng = np.random.default_rng(6)
        vals = rng.normal(size=8) + np.repeat([1.0, 0.0], 4)
        right, left = group_t(np.stack([vals, -vals]), 4)
        assert left == -right
        assert t_dist.cdf(left, 3) == pytest.approx(t_dist.sf(right, 3),
                                                    abs=1e-15)

    def test_errors(self):
        # constant groups leave no variance to studentize by: the
        # statistic is infinite with the sign of the mean difference, or
        # nan at equal means, and no RuntimeWarning is raised
        stats = group_t(np.array([[1.0, 1.0, 4.0, 4.0], [4.0, 4.0, 1.0, 1.0],
                                  [2.0, 2.0, 2.0, 2.0]]), 2)
        assert stats[0] == -math.inf and stats[1] == math.inf
        assert math.isnan(stats[2])


# =========================================================================
# pooled_t and its reference
# =========================================================================

class TestBchTest:
    def test_orthogonal_outcome_retains(self):
        coef, _, t = pooled_t(*_assemble(_zero_mean_clusters(),
                                         ("one", "tr"), "tr"))
        assert coef == pytest.approx(0.0, abs=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)
        assert not t > t_dist.ppf(0.95, 3)

    def test_statistic_matches_ols_ratio(self):
        # least squares coefficient over the clustered sandwich se,
        # both formed here from per-cluster score sums
        rng = np.random.default_rng(10)
        table = _random_table(rng, q=6, n_per=8)
        t = pooled_t(*_assemble(table, REGS, "tr"))[2]
        xd = np.column_stack([table[r] for r in REGS])
        b, *_ = np.linalg.lstsq(xd, table["y"], rcond=None)
        u = table["y"] - xd @ b
        scores = np.stack([xd[table["cid"] == k].T @ u[table["cid"] == k]
                           for k in range(6)])
        bread = np.linalg.inv(xd.T @ xd)
        var = (bread @ scores.T @ scores @ bread)[2, 2]
        assert t == pytest.approx(
            b[2] / math.sqrt(dof_adjustment(48, 6, 3) * var), rel=1e-10)

    def test_homogeneous_null_size_near_nominal(self):
        # identical clusters, no effect: rejection rate near alpha
        rng = np.random.default_rng(11)
        cid = np.repeat(np.arange(12), 5)
        table = {"y": np.zeros(60), "one": np.ones(60),
                 "tr": (cid < 6).astype(float), "cid": cid}
        x, _, starts, t_idx, adj = _assemble(table, ("one", "tr"), "tr")
        t = pooled_t(x, rng.normal(size=(500, 60)), starts, t_idx, adj)[2]
        rate = float(np.mean(t > t_dist.ppf(0.95, 11)))
        assert 0.01 <= rate <= 0.12


# =========================================================================
# the wild cluster bootstrap: pooled_t with signs, bootstrap_p_values
# =========================================================================

class TestWildClusterBootstrap:
    def test_zero_statistic_gives_half_p(self):
        t, (p_right, _, _) = _bootstrap(_zero_mean_clusters(wide=True),
                                        ("one", "tr"), "tr", 4999,
                                        RngStream(1))
        assert t == pytest.approx(0.0, abs=1e-12)
        assert abs(p_right - 0.5) < 0.06

    def test_single_draw_p_values(self):
        rng = np.random.default_rng(13)
        table = _random_table(rng)
        for seed in range(6):
            _, (p_right, _, _) = _bootstrap(table, REGS, "tr", 1,
                                            RngStream(seed))
            assert p_right in (0.5, 1.0)

    @pytest.mark.parametrize("q,seed", [(4, 7), (5, 21)])
    def test_sampling_converges_to_enumeration(self, q, seed):
        rng = np.random.default_rng(40 + q)
        table = _random_table(rng, q=q, n_per=5)
        p_exact, _ = _enumerated_bootstrap_p(table, REGS, "tr")
        B = 40_000
        _, (p_right, _, _) = _bootstrap(table, REGS, "tr", B,
                                        RngStream(seed))
        se = math.sqrt(p_exact * (1 - p_exact) / B)
        assert abs(p_right - p_exact) < max(3 * se + 2 / B, 1e-4)
        assert abs(p_right - p_exact) < 0.01

    def test_enumeration_agreement_all_sides(self):
        rng = np.random.default_rng(44)
        table = _random_table(rng, q=4, n_per=6)
        _, p_used = _bootstrap(table, REGS, "tr", 40_000, RngStream(3))
        for side, p in zip(("right", "left", "two-sided"), p_used):
            p_exact, _ = _enumerated_bootstrap_p(table, REGS, "tr", side)
            assert abs(p - p_exact) < 0.01

    def test_target_only_design(self):
        # restricted fit with every other regressor removed is empty,
        # so the restricted residuals are the outcomes themselves
        rng = np.random.default_rng(15)
        table = _random_table(rng, q=4, n_per=5)
        p_exact, t_obs = _enumerated_bootstrap_p(table, ("tr",), "tr")
        t, (p_right, _, _) = _bootstrap(table, ("tr",), "tr", 40_000,
                                        RngStream(2))
        assert t == pytest.approx(t_obs, rel=1e-12)
        assert abs(p_right - p_exact) < 0.01

    def test_seed_reproducibility(self):
        # one stream gives identical p-values, and asking for t* leaves
        # the observed coefficient, se and t as they are without signs
        rng = np.random.default_rng(16)
        table = _random_table(rng, q=6, n_per=4)
        a = _bootstrap(table, REGS, "tr", 499, RngStream(99))
        assert a == _bootstrap(table, REGS, "tr", 499, RngStream(99))
        args = _assemble(table, REGS, "tr")
        signs = np.ones((3, 6))
        assert pooled_t(*args, signs)[:3] == pooled_t(*args)

    def test_identity_tie_always_counted(self):
        # some replication reproduces the observed statistic whenever the
        # all-plus vector is drawn, so p can never fall below that mass
        rng = np.random.default_rng(18)
        table = _random_table(rng, q=3, n_per=5)
        _, (p_right, _, _) = _bootstrap(table, REGS, "tr", 8000,
                                        RngStream(5))
        # the all-plus share of 8000 draws is about 1/8
        assert p_right > 0.05


# =========================================================================
# Batched kernel
# =========================================================================

class TestBatchedKernel:
    """One pooled_t call over a stack of same-layout datasets, as the
    studies make it, against one call per dataset."""

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_call_matches_single_calls(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(4, 11))
        # ragged clusters, rows shuffled across clusters
        cid = rng.permutation(np.repeat(np.arange(q), rng.integers(2, 7, q)))
        n = cid.size
        tr = (cid < q // 2).astype(float)
        tables = []
        for _ in range(5):
            x1 = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            y = 0.4 * tr + 0.3 * x1 + rng.normal(size=n) * (1.0 + cid)
            tables.append({"y": y, "one": np.ones(n), "x1": x1, "tr": tr,
                           "cid": cid})
        parts = [_assemble(table, REGS, "tr") for table in tables]
        _, _, starts, t_idx, adj = parts[0]
        signs = np.stack([
            RngStream(seed, b).generator().integers(0, 2, size=(199, q))
            * 2.0 - 1.0 for b in range(len(tables))])
        _, _, t, t_star = pooled_t(np.stack([p[0] for p in parts]),
                                   np.stack([p[1] for p in parts]), starts,
                                   t_idx, adj, signs)
        stacked = bootstrap_p_values(t_star, t)
        for b, table in enumerate(tables):
            t_b, p_b = _bootstrap(table, REGS, "tr", 199, RngStream(seed, b))
            assert t[b] == pytest.approx(t_b, rel=1e-9)
            assert tuple(p[b] for p in stacked) == p_b


class TestShiftedOutcomes:
    """pooled_t(..., shifts=s) on a stack of datasets against one call
    per shift on the shifted outcome y + s_i * x[:, t_idx]."""

    SHIFTS = np.array([0.5, -3.0, 1e6, 0.5, -0.25, 0.0, 2.0])

    @staticmethod
    def _stack(seed):
        rng = np.random.default_rng(seed)
        q = 7
        # unequal cluster sizes, so each cluster sum is a reduceat slice
        sizes = rng.integers(2, 7, q)
        cid = np.repeat(np.arange(q), sizes)
        n = cid.size
        tr = (cid < 3).astype(float)
        x = np.stack([np.column_stack([np.ones(n), rng.normal(size=n),
                                       tr, rng.normal(size=n) * 5.0])
                      for _ in range(3)])
        y = 0.4 * x[..., 2] + x[..., 1] + rng.normal(size=(3, n)) * (1 + cid)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        signs = rng.integers(0, 2, (3, 99, q)) * 2.0 - 1.0
        signs[:, 0] = 1.0
        return x, y, starts, 2, dof_adjustment(n, q, 4), signs

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("with_signs", [False, True])
    def test_matches_per_shift_calls(self, seed, with_signs):
        x, y, starts, t_idx, adj, signs = self._stack(seed)
        signs = signs if with_signs else None
        got = pooled_t(x, y, starts, t_idx, adj, signs, shifts=self.SHIFTS)
        for i, s in enumerate(self.SHIFTS):
            want = pooled_t(x, y + s * x[..., t_idx], starts, t_idx, adj,
                            signs)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g[:, i], w, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_sign_products_of_all_shifts_are_exact(self, seed):
        # the signs meet every shift's map in one matmul per dataset; t*
        # is bit-identical to one shift's map alone and, at shift 0, to
        # the call without shifts, which forms signs @ M' itself
        x, y, starts, t_idx, adj, signs = self._stack(seed)
        t_star = pooled_t(x, y, starts, t_idx, adj, signs,
                          shifts=self.SHIFTS)[3]
        for i in range(len(self.SHIFTS)):
            one = pooled_t(x, y, starts, t_idx, adj, signs,
                           shifts=self.SHIFTS[i:i + 1])[3]
            assert np.array_equal(t_star[:, i], one[:, 0])
        zero = list(self.SHIFTS).index(0.0)
        assert np.array_equal(t_star[:, zero],
                              pooled_t(x, y, starts, t_idx, adj, signs)[3])

    @pytest.mark.parametrize("seed", range(3))
    def test_all_plus_row_ties_with_t(self, seed):
        x, y, starts, t_idx, adj, signs = self._stack(seed)
        _, _, t, t_star = pooled_t(x, y, starts, t_idx, adj, signs,
                                   shifts=self.SHIFTS)
        assert t.shape == (3, len(self.SHIFTS))
        assert t_star.shape == (3, len(self.SHIFTS), 99)
        tol = 1e-9 * np.maximum(1.0, np.abs(t))
        assert np.all(np.abs(t_star[..., 0] - t) <= tol)
        # so every right p-value counts the all-plus row
        assert np.all(bootstrap_p_values(t_star, t)[0] >= 2 / 100)
