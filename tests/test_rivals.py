"""Tests for the comparison methods (group t, pooled cluster-robust t,
wild cluster bootstrap)."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import t as t_dist

from clusterperm.errors import (
    ContractError,
    DegenerateDataError,
    DomainError,
    RankDeficientError,
    ShapeError,
)
from clusterperm.permkit import Design, RngStream
from clusterperm.permtest import ClusterEstimates
from clusterperm.rivals import (
    PooledRegressionSpec,
    bch_test,
    cluster_robust_ols,
    dof_adjustment,
    im_test,
    wild_cluster_bootstrap_test,
)


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


def _spec(regs=("one", "x"), target="x"):
    return PooledRegressionSpec("y", regs, target, "cid")


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


def _enumerated_bootstrap_p(table, spec, side="right"):
    """Independent oracle: enumerate every Rademacher sign vector,
    rebuild the outcome from the restricted fit, refit through the
    public estimator, and average the exceedance indicator."""
    y = np.asarray(table[spec.outcome], dtype=float)
    x = np.column_stack([np.asarray(table[r], dtype=float)
                         for r in spec.regressors])
    labels = np.asarray(table[spec.cluster])
    _, codes = np.unique(labels, return_inverse=True)
    q = codes.max() + 1
    t_idx = spec.regressors.index(spec.target)

    coef, se = cluster_robust_ols(table, spec)
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
        t2 = dict(table)
        t2[spec.outcome] = ystar
        c, s = cluster_robust_ols(t2, spec)
        stats.append(c / s)
    stats = np.asarray(stats)
    tol = 1e-9 * max(1.0, abs(t_obs))
    if side == "right":
        return float((stats >= t_obs - tol).mean()), t_obs
    if side == "left":
        return float((stats <= t_obs + tol).mean()), t_obs
    return float((np.abs(stats) >= abs(t_obs) - tol).mean()), t_obs


# =========================================================================
# PooledRegressionSpec and the adjustment factor
# =========================================================================

class TestPooledRegressionSpec:
    def test_valid(self):
        spec = _spec(("one", "x", "tr"), "tr")
        assert spec.d == 3

    @pytest.mark.parametrize("kwargs", [
        dict(outcome="y", regressors=(), target="x", cluster="cid"),
        dict(outcome="y", regressors=("x", "x"), target="x", cluster="cid"),
        dict(outcome="y", regressors=("one",), target="x", cluster="cid"),
        dict(outcome="y", regressors=("y", "x"), target="x", cluster="cid"),
        dict(outcome="y", regressors=("cid", "x"), target="x", cluster="cid"),
        dict(outcome="y", regressors=("x",), target="x", cluster="y"),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            PooledRegressionSpec(**kwargs)


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
# cluster_robust_ols
# =========================================================================

class TestClusterRobustOls:
    def test_hand_oracle(self):
        coef, se = cluster_robust_ols(FOUR_POINT, _spec())
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
        coef, se = cluster_robust_ols(table, _spec())

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
        spec = _spec(("one", "x1", "tr"), "tr")
        coef, _ = cluster_robust_ols(table, spec)
        doubled = {k: np.concatenate([np.asarray(v), np.asarray(v)])
                   for k, v in table.items()}
        coef2, _ = cluster_robust_ols(doubled, spec)
        assert coef2 == pytest.approx(coef, rel=1e-12)

    def test_rank_deficient_design(self):
        table = dict(FOUR_POINT)
        table["x2"] = [2.0 * v for v in FOUR_POINT["x"]]
        with pytest.raises(RankDeficientError):
            cluster_robust_ols(table, _spec(("one", "x", "x2"), "x"))

    def test_missing_and_ragged_columns(self):
        with pytest.raises(DomainError, match="missing"):
            cluster_robust_ols(FOUR_POINT, _spec(("one", "zz"), "zz"))
        bad = dict(FOUR_POINT)
        bad["x"] = [0.0, 1.0]
        with pytest.raises(ShapeError):
            cluster_robust_ols(bad, _spec())

    def test_single_cluster_rejected(self):
        table = {"y": [1.0, 2.0], "one": [1.0, 1.0], "cid": ["a", "a"]}
        with pytest.raises(DomainError):
            cluster_robust_ols(table, _spec(("one",), "one"))


# =========================================================================
# im_test
# =========================================================================

class TestImTest:
    def test_hand_oracle(self):
        est = ClusterEstimates(Design(3, 3), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        out = im_test(est, 0.05)
        assert out.statistic == pytest.approx(IM_ORACLE, abs=1e-12)
        assert out.extra["df"] == 2
        assert out.method == "group-t"

    def test_symmetric_data_retains(self):
        est = ClusterEstimates(Design(3, 3), [1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
        out = im_test(est, 0.05)
        assert out.statistic == 0.0
        assert out.decision == "retain"

    def test_degrees_of_freedom_six_six(self):
        rng = np.random.default_rng(0)
        est = ClusterEstimates(Design(6, 6), rng.normal(size=12))
        out = im_test(est, 0.05)
        assert out.extra["df"] == 5
        assert out.critical_value == pytest.approx(
            t_dist.ppf(0.95, 5), abs=1e-12)

    def test_unbalanced_df_uses_smaller_group(self):
        rng = np.random.default_rng(1)
        out = im_test(ClusterEstimates(Design(4, 9), rng.normal(size=13)),
                      0.05)
        assert out.extra["df"] == 3

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=10)
        a = im_test(ClusterEstimates(Design(5, 5), vals), 0.05)
        b = im_test(ClusterEstimates(Design(5, 5), vals + 11.5), 0.05)
        assert b.statistic == pytest.approx(a.statistic, abs=1e-9)

    def test_swap_and_negation_each_flip_sign(self):
        rng = np.random.default_rng(4)
        t_vals = rng.normal(size=4)
        c_vals = rng.normal(size=7)
        a = im_test(ClusterEstimates(
            Design(4, 7), np.concatenate([t_vals, c_vals])), 0.05)
        swapped = im_test(ClusterEstimates(
            Design(7, 4), np.concatenate([c_vals, t_vals])), 0.05)
        negated = im_test(ClusterEstimates(
            Design(4, 7), np.concatenate([-t_vals, -c_vals])), 0.05)
        both = im_test(ClusterEstimates(
            Design(7, 4), np.concatenate([-c_vals, -t_vals])), 0.05)
        assert swapped.statistic == pytest.approx(-a.statistic, rel=1e-12)
        assert negated.statistic == pytest.approx(-a.statistic, rel=1e-12)
        assert both.statistic == pytest.approx(a.statistic, rel=1e-12)

    def test_left_side_mirrors_right_on_negated(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=8) + np.repeat([1.0, 0.0], 4)
        right = im_test(ClusterEstimates(Design(4, 4), vals), 0.10, "right")
        left = im_test(ClusterEstimates(Design(4, 4), -vals), 0.10, "left")
        assert left.statistic == pytest.approx(-right.statistic, rel=1e-12)
        assert left.decision == right.decision
        assert left.p_value_left == pytest.approx(right.p_value_right,
                                                  abs=1e-12)

    def test_two_sided_uses_half_alpha_quantile(self):
        rng = np.random.default_rng(8)
        est = ClusterEstimates(Design(5, 5), rng.normal(size=10))
        out = im_test(est, 0.10, "two-sided")
        assert out.critical_value == pytest.approx(
            t_dist.ppf(0.95, 4), abs=1e-12)
        assert (out.decision == "reject") == (
            abs(out.statistic) > out.critical_value)

    def test_errors(self):
        with pytest.raises(ContractError):
            im_test(ClusterEstimates(Design(1, 3), [1.0, 2.0, 3.0, 4.0]),
                    0.05)
        with pytest.raises(DegenerateDataError):
            im_test(ClusterEstimates(Design(2, 2), [1.0, 1.0, 4.0, 4.0]),
                    0.05)
        est = ClusterEstimates(Design(2, 2), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DomainError):
            im_test(est, 0.0)
        with pytest.raises(DomainError):
            im_test(est, 0.05, side="both")


# =========================================================================
# bch_test
# =========================================================================

class TestBchTest:
    def test_orthogonal_outcome_retains(self):
        table = _zero_mean_clusters()
        out = bch_test(table, PooledRegressionSpec(
            "y", ("one", "tr"), "tr", "cid"), 0.05)
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert out.decision == "retain"
        assert out.extra["coefficient"] == pytest.approx(0.0, abs=1e-12)

    def test_twelve_cluster_critical_value(self):
        rng = np.random.default_rng(9)
        table = _random_table(rng, q=12, n_per=4, scale_by_cluster=False)
        out = bch_test(table, PooledRegressionSpec(
            "y", ("one", "x1", "tr"), "tr", "cid"), 0.05)
        assert out.extra["df"] == 11
        assert out.critical_value == pytest.approx(1.7959, abs=2e-4)

    def test_statistic_matches_ols_ratio(self):
        rng = np.random.default_rng(10)
        table = _random_table(rng, q=6, n_per=8)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        coef, se = cluster_robust_ols(table, spec)
        out = bch_test(table, spec, 0.05)
        assert out.statistic == pytest.approx(coef / se, rel=1e-15)

    def test_homogeneous_null_size_near_nominal(self):
        # identical clusters, no effect: rejection rate near alpha
        rng = np.random.default_rng(11)
        spec = PooledRegressionSpec("y", ("one", "tr"), "tr", "cid")
        rejections = 0
        reps = 500
        cid = np.repeat(np.arange(12), 5)
        tr = (cid < 6).astype(float)
        for _ in range(reps):
            table = {"y": rng.normal(size=60), "one": np.ones(60),
                     "tr": tr, "cid": cid}
            out = bch_test(table, spec, 0.05)
            rejections += out.decision == "reject"
        rate = rejections / reps
        assert 0.01 <= rate <= 0.12

    def test_two_sided_and_left(self):
        rng = np.random.default_rng(12)
        table = _random_table(rng, q=8, n_per=6)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        right = bch_test(table, spec, 0.05, "right")
        two = bch_test(table, spec, 0.05, "two-sided")
        assert two.critical_value == pytest.approx(
            t_dist.ppf(0.975, 7), abs=1e-12)
        assert right.p_value_two_sided == pytest.approx(
            2 * min(right.p_value_right, right.p_value_left), abs=1e-15)


# =========================================================================
# wild_cluster_bootstrap_test
# =========================================================================

class TestWildClusterBootstrap:
    def test_zero_statistic_gives_half_p(self):
        table = _zero_mean_clusters(wide=True)
        spec = PooledRegressionSpec("y", ("one", "tr"), "tr", "cid")
        out = wild_cluster_bootstrap_test(table, spec, 0.05, B=4999,
                                          rng=RngStream(1))
        assert out.statistic == pytest.approx(0.0, abs=1e-12)
        assert abs(out.p_value_right - 0.5) < 0.06
        assert out.decision == "retain"

    def test_single_draw_p_values(self):
        rng = np.random.default_rng(13)
        table = _random_table(rng)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        for seed in range(6):
            out = wild_cluster_bootstrap_test(table, spec, 0.5, B=1,
                                              rng=RngStream(seed))
            assert out.p_value_right in (0.5, 1.0)

    @pytest.mark.parametrize("q,seed", [(4, 7), (5, 21)])
    def test_sampling_converges_to_enumeration(self, q, seed):
        rng = np.random.default_rng(40 + q)
        table = _random_table(rng, q=q, n_per=5)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        p_exact, _ = _enumerated_bootstrap_p(table, spec)
        B = 40_000
        out = wild_cluster_bootstrap_test(table, spec, 0.05, B=B,
                                          rng=RngStream(seed))
        se = math.sqrt(p_exact * (1 - p_exact) / B)
        assert abs(out.p_value_right - p_exact) < max(3 * se + 2 / B, 1e-4)
        assert abs(out.p_value_right - p_exact) < 0.01

    def test_enumeration_agreement_all_sides(self):
        rng = np.random.default_rng(44)
        table = _random_table(rng, q=4, n_per=6)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        B = 40_000
        for side in ("right", "left", "two-sided"):
            p_exact, _ = _enumerated_bootstrap_p(table, spec, side)
            out = wild_cluster_bootstrap_test(table, spec, 0.05, side=side,
                                              B=B, rng=RngStream(3))
            p_used = {"right": out.p_value_right, "left": out.p_value_left,
                      "two-sided": out.p_value_two_sided}[side]
            assert abs(p_used - p_exact) < 0.01

    def test_target_only_design(self):
        # restricted fit with every other regressor removed is empty,
        # so the restricted residuals are the outcomes themselves
        rng = np.random.default_rng(15)
        table = _random_table(rng, q=4, n_per=5)
        spec = PooledRegressionSpec("y", ("tr",), "tr", "cid")
        p_exact, t_obs = _enumerated_bootstrap_p(table, spec)
        out = wild_cluster_bootstrap_test(table, spec, 0.05, B=40_000,
                                          rng=RngStream(2))
        assert out.statistic == pytest.approx(t_obs, rel=1e-12)
        assert abs(out.p_value_right - p_exact) < 0.01

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(16)
        table = _random_table(rng, q=6, n_per=4)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        a = wild_cluster_bootstrap_test(table, spec, 0.05, B=499,
                                        rng=RngStream(99))
        b = wild_cluster_bootstrap_test(table, spec, 0.05, B=499,
                                        rng=RngStream(99))
        assert a.p_value_right == b.p_value_right
        assert a.critical_value == b.critical_value

    def test_decision_matches_p_value(self):
        rng = np.random.default_rng(17)
        for seed in range(8):
            table = _random_table(np.random.default_rng(100 + seed),
                                  q=5, n_per=4)
            spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr",
                                        "cid")
            out = wild_cluster_bootstrap_test(table, spec, 0.10, B=199,
                                              rng=RngStream(seed))
            assert (out.decision == "reject") == (out.p_value_right <= 0.10)
            assert out.n_assignments == 199
            assert out.assignment_source == "bootstrap"

    def test_identity_tie_always_counted(self):
        # some replication reproduces the observed statistic whenever the
        # all-plus vector is drawn, so p can never fall below that mass
        rng = np.random.default_rng(18)
        table = _random_table(rng, q=3, n_per=5)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        out = wild_cluster_bootstrap_test(table, spec, 0.05, B=8000,
                                          rng=RngStream(5))
        # the all-plus share of 8000 draws is about 1/8
        assert out.p_value_right > 0.05

    def test_invalid_arguments(self):
        table = _zero_mean_clusters()
        spec = PooledRegressionSpec("y", ("one", "tr"), "tr", "cid")
        with pytest.raises(DomainError):
            wild_cluster_bootstrap_test(table, spec, 0.05, B=0,
                                        rng=RngStream(0))
        with pytest.raises(DomainError):
            wild_cluster_bootstrap_test(table, spec, 0.05, B=199,
                                        rng="seed")
        with pytest.raises(DomainError):
            wild_cluster_bootstrap_test(table, spec, 1.5, B=199,
                                        rng=RngStream(0))

    def test_json_round_trip(self):
        rng = np.random.default_rng(19)
        table = _random_table(rng, q=4, n_per=4)
        spec = PooledRegressionSpec("y", ("one", "x1", "tr"), "tr", "cid")
        out = wild_cluster_bootstrap_test(table, spec, 0.05, B=99,
                                          rng=RngStream(1))
        blob = out.to_json_dict()
        assert blob["method"] == "wild-cluster-bootstrap"
        assert blob["B"] == 99
        assert blob["n_assignments"] == 99
