"""Tests for per-cluster estimation and CSV ingestion."""

import math

import numpy as np
import pytest
from scipy.optimize import fsolve
from scipy.stats import norm

from clusterperm.errors import (
    ContractError,
    DegenerateDataError,
    DomainError,
    EstimationError,
    InputFormatError,
    RankDeficientError,
    ShapeError,
)
from clusterperm.estimators import (
    ClusterDataset,
    EstimatorSpec,
    binary_choice_cluster_estimates,
    ingest_csv,
    load_estimates,
    per_cluster_ols,
)
from clusterperm.permtest import comparison_of_means


# =========================================================================
# Oracles
# =========================================================================
# Three-point least squares by hand, design [1, x] on {(0,0), (1,1), (2,1)}:
#   X'X = [[3, 3], [3, 5]],  X'y = [2, 3],  det = 6
#   (intercept, slope) = ([[5, -3], [-3, 3]] / 6) @ [2, 3] = (1/6, 1/2)
THREE_POINT_X = [0.0, 1.0, 2.0]
THREE_POINT_Y = [0.0, 1.0, 1.0]
THREE_POINT_INTERCEPT = 1.0 / 6.0
THREE_POINT_SLOPE = 0.5

# A binary regression with no covariates solves sum(y - F(theta)) = 0,
# so theta = F^{-1}(success rate) in closed form.
LOGIT_7_OF_10 = math.log(7.0 / 3.0)


def _pooled_interacted_ols(data):
    """Independent route: one pooled regression with every regressor
    fully interacted with cluster dummies, solved by lstsq.  Cluster-k
    coordinates of the solution must match the per-cluster fits."""
    q = data.design.q
    blocks = []
    ys = []
    widths = []
    for k in range(q):
        y, x, _ = data.cluster_rows(k)
        xd = np.hstack([np.ones((y.size, 1)), x])
        widths.append(xd.shape[1])
        blocks.append(xd)
        ys.append(y)
    d = sum(widths)
    big = np.zeros((sum(b.shape[0] for b in blocks), d))
    r0, c0 = 0, 0
    for b in blocks:
        big[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        r0 += b.shape[0]
        c0 += b.shape[1]
    coef, *_ = np.linalg.lstsq(big, np.concatenate(ys), rcond=None)
    offsets = np.concatenate([[0], np.cumsum(widths)])
    return np.array([coef[offsets[k]] for k in range(q)])


def _random_dataset(rng, q1=3, q0=4, n=12, p=2):
    ids, treated, ys, xs = [], [], [], []
    for k in range(q1 + q0):
        ids += [f"c{k}"] * n
        treated += [1 if k < q1 else 0] * n
        x = rng.normal(size=(n, p))
        y = rng.normal(size=n) + x @ rng.normal(size=p)
        ys.append(y)
        xs.append(x)
    return ClusterDataset(ids, treated, np.concatenate(ys),
                          covariates=np.vstack(xs))


# =========================================================================
# ClusterDataset
# =========================================================================

class TestClusterDataset:
    def test_treated_first_stable_order(self):
        ids = ["b", "b", "a", "a", "d", "d", "c", "c"]
        treated = [0, 0, 1, 1, 0, 0, 1, 1]
        ds = ClusterDataset(ids, treated, np.arange(8.0))
        assert ds.cluster_ids == ("a", "c", "b", "d")
        assert (ds.design.q1, ds.design.q0) == (2, 2)
        # rows travel with their cluster, in input order
        y_a, _, _ = ds.cluster_rows(0)
        np.testing.assert_array_equal(y_a, [2.0, 3.0])
        y_d, _, _ = ds.cluster_rows(3)
        np.testing.assert_array_equal(y_d, [4.0, 5.0])

    def test_two_cluster_toy(self):
        ds = ClusterDataset(["u", "v"], [1, 0], [3.0, 7.0])
        assert (ds.design.q1, ds.design.q0) == (1, 1)
        assert ds.n_rows == 2
        assert not ds.has_post
        assert ds.n_covariates == 0

    def test_flag_flip_within_cluster_rejected(self):
        with pytest.raises(InputFormatError, match="c1"):
            ClusterDataset(["c1", "c1", "c2"], [1, 0, 0], [1.0, 2.0, 3.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            ClusterDataset(["a", "b"], [1, 0], [1.0])
        with pytest.raises(DomainError):
            ClusterDataset(["a", "b"], [1, 2], [1.0, 2.0])
        with pytest.raises(DomainError):
            ClusterDataset(["a", "b"], [1, 0], [1.0, np.inf])
        with pytest.raises(DomainError):
            ClusterDataset(["a", "b"], [1, 0], [1.0, 2.0], post=[0, 3])
        with pytest.raises(ShapeError):
            ClusterDataset(["a", "b"], [1, 0], [1.0, 2.0],
                           covariates=np.ones((3, 1)))
        with pytest.raises(DomainError):
            ClusterDataset(["a", "a"], [1, 1], [1.0, 2.0])  # no controls

    def test_immutable(self):
        ds = ClusterDataset(["u", "v"], [1, 0], [3.0, 7.0])
        with pytest.raises(AttributeError):
            ds.design = None
        y, _, _ = ds.cluster_rows(0)
        with pytest.raises(ValueError):
            y[0] = 99.0


# =========================================================================
# EstimatorSpec
# =========================================================================

class TestEstimatorSpec:
    def test_valid_specs(self):
        assert EstimatorSpec("intercept").target_coordinate == 0
        assert EstimatorSpec("did-slope").target_coordinate == 0
        assert EstimatorSpec("binary-choice", link="probit").link == "probit"

    @pytest.mark.parametrize("kwargs", [
        {"mode": "mean"},
        {"mode": "binary-choice"},
        {"mode": "binary-choice", "link": "cauchit"},
        {"mode": "intercept", "link": "logistic"},
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(DomainError):
            EstimatorSpec(**kwargs)


# =========================================================================
# per_cluster_ols
# =========================================================================

class TestPerClusterOls:
    def test_three_point_hand_oracle(self):
        ds = ClusterDataset(["t"] * 3 + ["c"] * 3, [1] * 3 + [0] * 3,
                            THREE_POINT_Y + [4.0, 4.0, 4.0],
                            covariates=np.array(THREE_POINT_X * 2)[:, None])
        est = per_cluster_ols(ds, EstimatorSpec("intercept"))
        assert est.values[0] == pytest.approx(THREE_POINT_INTERCEPT, abs=1e-12)
        assert est.values[1] == pytest.approx(4.0, abs=1e-12)

    def test_noiseless_line_recovered_exactly(self):
        x = np.linspace(-2, 3, 9)
        y = 2.0 + 3.0 * x
        ds = ClusterDataset(["t"] * 9 + ["c"] * 9, [1] * 9 + [0] * 9,
                            np.concatenate([y, -y]),
                            covariates=np.concatenate([x, x])[:, None])
        est = per_cluster_ols(ds, EstimatorSpec("intercept"))
        np.testing.assert_allclose(est.values, [2.0, -2.0], atol=1e-12)

    def test_did_slope_noiseless(self):
        post = [0, 0, 0, 1, 1, 1] * 2
        y = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        ds = ClusterDataset(["p"] * 6 + ["q"] * 6, [1] * 6 + [0] * 6, y,
                            post=post)
        est = per_cluster_ols(ds, EstimatorSpec("did-slope"))
        np.testing.assert_allclose(est.values, [0.5, 0.0], atol=1e-12)

    def test_pooled_interacted_equivalence(self):
        rng = np.random.default_rng(7)
        ds = _random_dataset(rng)
        est = per_cluster_ols(ds, EstimatorSpec("intercept"))
        pooled = _pooled_interacted_ols(ds)
        np.testing.assert_allclose(est.values, pooled, atol=1e-10)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(11)
        ds = _random_dataset(rng)
        shifted = ClusterDataset(
            [cid for k in range(ds.design.q)
             for cid in [ds.cluster_ids[k]] * ds.cluster_rows(k)[0].size],
            [1 if k < ds.design.q1 else 0 for k in range(ds.design.q)
             for _ in range(ds.cluster_rows(k)[0].size)],
            np.concatenate([ds.cluster_rows(k)[0] + 3.25
                            for k in range(ds.design.q)]),
            covariates=np.vstack([ds.cluster_rows(k)[1]
                                  for k in range(ds.design.q)]))
        base = per_cluster_ols(ds, EstimatorSpec("intercept"))
        moved = per_cluster_ols(shifted, EstimatorSpec("intercept"))
        np.testing.assert_allclose(moved.values, base.values + 3.25,
                                   atol=1e-10)
        # the comparison of means never feels a common shift
        assert comparison_of_means(moved) == pytest.approx(
            comparison_of_means(base), abs=1e-10)

    def test_rank_deficiency_names_cluster(self):
        x = np.arange(5.0)
        cov = np.column_stack([x, 2.0 * x])  # collinear pair
        ds = ClusterDataset(["good"] * 5 + ["bad"] * 5, [1] * 5 + [0] * 5,
                            np.arange(10.0),
                            covariates=np.vstack([np.column_stack(
                                [x, x ** 2]), cov]))
        with pytest.raises(RankDeficientError, match="bad"):
            per_cluster_ols(ds, EstimatorSpec("intercept"))

    def test_insufficient_rows_names_cluster(self):
        ds = ClusterDataset(["tiny", "c", "c", "c"], [1, 0, 0, 0],
                            [1.0, 2.0, 3.0, 4.0],
                            covariates=[[0.5], [1.0], [2.0], [3.0]])
        with pytest.raises(DegenerateDataError, match="tiny"):
            per_cluster_ols(ds, EstimatorSpec("intercept"))

    def test_mode_contract(self):
        ds = ClusterDataset(["u", "v"], [1, 0], [1.0, 0.0])
        with pytest.raises(ContractError):
            per_cluster_ols(ds, EstimatorSpec("binary-choice",
                                              link="logistic"))
        with pytest.raises(ContractError):
            per_cluster_ols(ds, EstimatorSpec("did-slope"))  # no post column

    def test_estimates_carry_ids_and_order(self):
        ds = ClusterDataset(["z", "z", "a", "a"], [0, 0, 1, 1],
                            [5.0, 7.0, 1.0, 3.0])
        est = per_cluster_ols(ds, EstimatorSpec("intercept"))
        assert est.cluster_ids == ("a", "z")
        np.testing.assert_allclose(est.values, [2.0, 6.0])


# =========================================================================
# binary_choice_cluster_estimates
# =========================================================================

class TestBinaryChoice:
    def test_no_covariates_closed_form(self):
        # theta = link inverse of the success rate, exactly
        y = [1] * 7 + [0] * 3 + [1] * 5 + [0] * 5
        ds = ClusterDataset(["a"] * 10 + ["b"] * 10, [1] * 10 + [0] * 10, y)
        logit = binary_choice_cluster_estimates(
            ds, EstimatorSpec("binary-choice", link="logistic"))
        np.testing.assert_allclose(logit.values, [LOGIT_7_OF_10, 0.0],
                                   atol=1e-8)
        probit = binary_choice_cluster_estimates(
            ds, EstimatorSpec("binary-choice", link="probit"))
        np.testing.assert_allclose(
            probit.values, [norm.ppf(0.7), 0.0], atol=1e-8)

    @pytest.mark.parametrize("link", ["logistic", "probit"])
    def test_with_covariates_solves_score_equations(self, link):
        rng = np.random.default_rng(23)
        n = 60
        x = rng.normal(size=(n, 2))
        eta = 0.3 + x @ np.array([0.8, -0.5])
        if link == "logistic":
            p = 1.0 / (1.0 + np.exp(-eta))
        else:
            from scipy.special import ndtr
            p = ndtr(eta)
        y = (rng.uniform(size=n) < p).astype(float)
        y2 = (rng.uniform(size=n) < 0.5).astype(float)
        ds = ClusterDataset(["t"] * n + ["c"] * n, [1] * n + [0] * n,
                            np.concatenate([y, y2]),
                            covariates=np.vstack([x, rng.normal(size=(n, 2))]))
        est = binary_choice_cluster_estimates(
            ds, EstimatorSpec("binary-choice", link=link))

        # independent route: generic root finder on the same moments
        from scipy.special import ndtr as _ndtr

        def moments(b, z, yy):
            mean = _ndtr(z @ b) if link == "probit" else (
                1.0 / (1.0 + np.exp(-(z @ b))))
            return z.T @ (yy - mean)

        z1 = np.hstack([np.ones((n, 1)), x])
        root = fsolve(moments, np.zeros(3), args=(z1, y), xtol=1e-12)
        assert est.values[0] == pytest.approx(root[0], abs=1e-6)
        # and the scores really are zero at the reported solution
        assert np.abs(moments(np.concatenate([[est.values[0]],
                                              fsolve(moments, np.zeros(3),
                                                     args=(z1, y))[1:]]),
                              z1, y)).max() < 1e-5

    def test_separation_names_cluster(self):
        ds = ClusterDataset(["sep"] * 4 + ["ok"] * 4, [1] * 4 + [0] * 4,
                            [1, 1, 1, 1, 1, 0, 1, 0])
        with pytest.raises(EstimationError, match="sep"):
            binary_choice_cluster_estimates(
                ds, EstimatorSpec("binary-choice", link="logistic"))

    def test_nonbinary_outcome_rejected(self):
        ds = ClusterDataset(["a"] * 4 + ["b"] * 4, [1] * 4 + [0] * 4,
                            [1, 0, 0.5, 1, 1, 0, 1, 0])
        with pytest.raises(DomainError, match="a"):
            binary_choice_cluster_estimates(
                ds, EstimatorSpec("binary-choice", link="logistic"))

    def test_mode_contract(self):
        ds = ClusterDataset(["u", "v"], [1, 0], [1.0, 0.0])
        with pytest.raises(ContractError):
            binary_choice_cluster_estimates(ds, EstimatorSpec("intercept"))


# =========================================================================
# CSV ingestion
# =========================================================================

class TestIngestCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_minimal_observations(self, tmp_path):
        path = self._write(tmp_path,
                           "cluster_id,treated,outcome\n"
                           "u,1,3.0\nu,1,5.0\nv,0,7.0\n")
        ds = ingest_csv(path)
        assert ds.cluster_ids == ("u", "v")
        assert ds.n_rows == 3
        assert not ds.has_post
        np.testing.assert_array_equal(ds.cluster_rows(0)[0], [3.0, 5.0])

    def test_post_and_covariates(self, tmp_path):
        path = self._write(tmp_path,
                           "cluster_id,treated,outcome,post,x1,x2\n"
                           "a,0,1.0,0,0.1,0.2\n"
                           "a,0,2.0,1,0.3,0.4\n"
                           "b,1,3.0,0,0.5,0.6\n"
                           "b,1,4.0,1,0.7,0.8\n")
        ds = ingest_csv(path)
        assert ds.cluster_ids == ("b", "a")
        assert ds.has_post and ds.n_covariates == 2
        y, x, post = ds.cluster_rows(0)
        np.testing.assert_array_equal(y, [3.0, 4.0])
        np.testing.assert_array_equal(post, [0.0, 1.0])
        np.testing.assert_array_equal(x, [[0.5, 0.6], [0.7, 0.8]])

    def test_covariates_without_post(self, tmp_path):
        path = self._write(tmp_path,
                           "cluster_id,treated,outcome,x1\n"
                           "a,1,1.0,0.5\nb,0,2.0,0.25\n")
        ds = ingest_csv(path)
        assert not ds.has_post
        assert ds.n_covariates == 1

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = self._write(tmp_path,
                           "cluster_id,treated,outcome\n"
                           "a,1,1.0\nb,0,oops\n")
        with pytest.raises(InputFormatError, match="row 3"):
            ingest_csv(path)

    def test_bad_treated_flag_reports_row(self, tmp_path):
        path = self._write(tmp_path,
                           "cluster_id,treated,outcome\na,1,1.0\nb,yes,2.0\n")
        with pytest.raises(InputFormatError, match="row 3"):
            ingest_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = self._write(tmp_path, "id,arm,value\na,1,1.0\n")
        with pytest.raises(InputFormatError, match="header"):
            ingest_csv(path)

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path,
                           "cluster_id,treated,outcome\na,1,1.0\nb,0\n")
        with pytest.raises(InputFormatError, match="row 3"):
            ingest_csv(path)

    def test_empty_and_headerless(self, tmp_path):
        with pytest.raises(InputFormatError):
            ingest_csv(self._write(tmp_path, ""))
        with pytest.raises(InputFormatError):
            ingest_csv(self._write(tmp_path, "cluster_id,treated,outcome\n"))

    def test_flag_flip_reported(self, tmp_path):
        path = self._write(tmp_path,
                           "cluster_id,treated,outcome\n"
                           "a,1,1.0\na,0,2.0\nb,0,3.0\n")
        with pytest.raises(InputFormatError, match="'a'"):
            ingest_csv(path)

    def test_unknown_schema(self, tmp_path):
        path = self._write(tmp_path, "cluster_id,treated,outcome\na,1,1.0\n")
        with pytest.raises(DomainError):
            ingest_csv(path, schema="panel")


class TestLoadEstimates:
    def test_passthrough(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("cluster_id,treated,estimate\n"
                        "c1,0,1.5\nc2,1,2.5\nc3,1,0.25\nc4,0,-1.0\n")
        est = load_estimates(path)
        assert est.cluster_ids == ("c2", "c3", "c1", "c4")
        np.testing.assert_array_equal(est.values, [2.5, 0.25, 1.5, -1.0])
        assert (est.design.q1, est.design.q0) == (2, 2)

    def test_schema_dispatch_matches(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("cluster_id,treated,estimate\nc1,0,1.5\nc2,1,2.5\n")
        a = load_estimates(path)
        b = ingest_csv(path, schema="estimates")
        assert a.cluster_ids == b.cluster_ids
        np.testing.assert_array_equal(a.values, b.values)

    def test_duplicate_cluster_rejected(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("cluster_id,treated,estimate\n"
                        "c1,0,1.5\nc1,0,2.5\nc2,1,0.5\n")
        with pytest.raises(InputFormatError, match="row 3"):
            load_estimates(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("cluster_id,treated,outcome\nc1,0,1.5\n")
        with pytest.raises(InputFormatError, match="header"):
            load_estimates(path)

    def test_one_sided_design_rejected(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("cluster_id,treated,estimate\nc1,1,1.5\nc2,1,2.5\n")
        with pytest.raises(InputFormatError):
            load_estimates(path)


# =========================================================================
# End to end: rows in, decision out
# =========================================================================

class TestPipeline:
    def test_csv_to_estimates_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["cluster_id,treated,outcome,x1"]
        for k in range(8):
            for _ in range(6):
                lines.append(f"k{k},{1 if k < 4 else 0},"
                             f"{rng.normal():.17g},{rng.normal():.17g}")
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = ingest_csv(path)
        est = per_cluster_ols(ds, EstimatorSpec("intercept"))
        assert est.design.q1 == 4 and est.design.q0 == 4
        # write the estimates out and read them back
        out = tmp_path / "est.csv"
        rows = ["cluster_id,treated,estimate"]
        for i, cid in enumerate(est.cluster_ids):
            rows.append(f"{cid},{1 if i < 4 else 0},{est.values[i]:.17g}")
        out.write_text("\n".join(rows) + "\n")
        back = load_estimates(out)
        np.testing.assert_allclose(back.values, est.values, rtol=1e-15)
        assert back.cluster_ids == est.cluster_ids
