"""Tests for per-cluster estimation and CSV ingestion."""

import csv
import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve
from scipy.stats import norm

from clusterperm import estimators
from clusterperm.errors import (
    ClusterPermError,
    ContractError,
    DegenerateDataError,
    DomainError,
    InputFormatError,
    RankDeficientError,
    ShapeError,
)
from clusterperm.estimators import (
    ClusterDataset,
    _parse_binary,
    _parse_float,
    cluster_estimates,
    ingest_csv,
    load_estimates,
)
from clusterperm.permtest import adjusted_test


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
        assert [ds.cluster_rows(k)[0].size for k in range(2)] == [1, 1]
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
# estimator modes
# =========================================================================

class TestEstimatorSpec:
    """The mode name is the whole estimator specification."""

    def test_valid_specs(self):
        ds = ClusterDataset(["a"] * 4 + ["b"] * 4, [1] * 4 + [0] * 4,
                            [1, 0, 0, 1, 0, 1, 1, 0], post=[0, 1] * 4)
        for mode in estimators.MODES:
            est = cluster_estimates(ds, mode)
            assert est.cluster_ids == ("a", "b")
            assert np.all(np.isfinite(est.values))

    @pytest.mark.parametrize("kwargs", [
        {"mode": "mean"},
        {"mode": "binary-choice"},
        {"mode": "cauchit"},
        {"mode": "estimates"},
    ])
    def test_invalid_specs(self, kwargs):
        ds = ClusterDataset(["u", "v"], [1, 0], [1.0, 0.0])
        with pytest.raises(DomainError):
            cluster_estimates(ds, **kwargs)


# =========================================================================
# least-squares modes
# =========================================================================

class TestPerClusterOls:
    def test_three_point_hand_oracle(self):
        ds = ClusterDataset(["t"] * 3 + ["c"] * 3, [1] * 3 + [0] * 3,
                            THREE_POINT_Y + [4.0, 4.0, 4.0],
                            covariates=np.array(THREE_POINT_X * 2)[:, None])
        est = cluster_estimates(ds, "intercept")
        assert est.values[0] == pytest.approx(THREE_POINT_INTERCEPT, abs=1e-12)
        assert est.values[1] == pytest.approx(4.0, abs=1e-12)

    def test_noiseless_line_recovered_exactly(self):
        x = np.linspace(-2, 3, 9)
        y = 2.0 + 3.0 * x
        ds = ClusterDataset(["t"] * 9 + ["c"] * 9, [1] * 9 + [0] * 9,
                            np.concatenate([y, -y]),
                            covariates=np.concatenate([x, x])[:, None])
        est = cluster_estimates(ds, "intercept")
        np.testing.assert_allclose(est.values, [2.0, -2.0], atol=1e-12)

    def test_did_slope_noiseless(self):
        post = [0, 0, 0, 1, 1, 1] * 2
        y = [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        ds = ClusterDataset(["p"] * 6 + ["q"] * 6, [1] * 6 + [0] * 6, y,
                            post=post)
        est = cluster_estimates(ds, "did-slope")
        np.testing.assert_allclose(est.values, [0.5, 0.0], atol=1e-12)

    def test_pooled_interacted_equivalence(self):
        rng = np.random.default_rng(7)
        ds = _random_dataset(rng)
        est = cluster_estimates(ds, "intercept")
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
        base = cluster_estimates(ds, "intercept")
        moved = cluster_estimates(shifted, "intercept")
        np.testing.assert_allclose(moved.values, base.values + 3.25,
                                   atol=1e-10)
        # the comparison of means never feels a common shift
        def diff(x):
            q1 = x.design.q1
            return x.values[:q1].mean() - x.values[q1:].mean()
        assert diff(moved) == pytest.approx(diff(base), abs=1e-10)

    def test_rank_deficiency_names_cluster(self):
        x = np.arange(5.0)
        cov = np.column_stack([x, 2.0 * x])  # collinear pair
        ds = ClusterDataset(["good"] * 5 + ["bad"] * 5, [1] * 5 + [0] * 5,
                            np.arange(10.0),
                            covariates=np.vstack([np.column_stack(
                                [x, x ** 2]), cov]))
        with pytest.raises(RankDeficientError, match="bad"):
            cluster_estimates(ds, "intercept")

    @given(k=st.integers(-60, 60), column=st.integers(0, 1),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_covariate_scale_does_not_move_intercepts(self, k, column, seed):
        # rank was judged against the largest pivoted column, so a small
        # enough covariate made every cluster rank deficient
        rng = np.random.default_rng(seed)
        q, n = 8, 15
        ids = np.repeat([f"c{i}" for i in range(q)], n)
        treated = np.repeat([1] * 4 + [0] * 4, n)
        x = rng.normal(size=(q * n, 2))
        y = 3.0 + x @ rng.normal(size=2) + rng.normal(size=q * n)
        scaled = x.copy()
        scaled[:, column] *= 2.0 ** k
        base = cluster_estimates(ClusterDataset(ids, treated, y, x),
                                 "intercept")
        moved = cluster_estimates(ClusterDataset(ids, treated, y, scaled),
                                  "intercept")
        np.testing.assert_allclose(moved.values, base.values, rtol=1e-12,
                                   atol=0.0)
        assert (adjusted_test(moved, 0.10).decision
                == adjusted_test(base, 0.10).decision)

    def test_insufficient_rows_names_cluster(self):
        ds = ClusterDataset(["tiny", "c", "c", "c"], [1, 0, 0, 0],
                            [1.0, 2.0, 3.0, 4.0],
                            covariates=[[0.5], [1.0], [2.0], [3.0]])
        with pytest.raises(DegenerateDataError, match="tiny"):
            cluster_estimates(ds, "intercept")

    def test_mode_contract(self):
        ds = ClusterDataset(["u", "v"], [1, 0], [1.0, 0.0])
        with pytest.raises(ContractError):
            cluster_estimates(ds, "did-slope")  # no post column

    def test_estimates_carry_ids_and_order(self):
        ds = ClusterDataset(["z", "z", "a", "a"], [0, 0, 1, 1],
                            [5.0, 7.0, 1.0, 3.0])
        est = cluster_estimates(ds, "intercept")
        assert est.cluster_ids == ("a", "z")
        np.testing.assert_allclose(est.values, [2.0, 6.0])


# =========================================================================
# binary-choice modes
# =========================================================================

class TestBinaryChoice:
    def test_no_covariates_closed_form(self):
        # theta = link inverse of the success rate, exactly
        y = [1] * 7 + [0] * 3 + [1] * 5 + [0] * 5
        ds = ClusterDataset(["a"] * 10 + ["b"] * 10, [1] * 10 + [0] * 10, y)
        logit = cluster_estimates(ds, "logistic")
        np.testing.assert_allclose(logit.values, [LOGIT_7_OF_10, 0.0],
                                   atol=1e-8)
        probit = cluster_estimates(ds, "probit")
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
        est = cluster_estimates(ds, link)

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
        with pytest.raises(DegenerateDataError, match="sep"):
            cluster_estimates(ds, "logistic")

    def test_nonbinary_outcome_rejected(self):
        ds = ClusterDataset(["a"] * 4 + ["b"] * 4, [1] * 4 + [0] * 4,
                            [1, 0, 0.5, 1, 1, 0, 1, 0])
        with pytest.raises(DomainError, match="a"):
            cluster_estimates(ds, "logistic")


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
        assert [ds.cluster_rows(k)[0].size for k in range(2)] == [2, 1]
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


class TestLoadEstimates:
    def test_passthrough(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("cluster_id,treated,estimate\n"
                        "c1,0,1.5\nc2,1,2.5\nc3,1,0.25\nc4,0,-1.0\n")
        est = load_estimates(path)
        assert est.cluster_ids == ("c2", "c3", "c1", "c4")
        np.testing.assert_array_equal(est.values, [2.5, 0.25, 1.5, -1.0])
        assert (est.design.q1, est.design.q0) == (2, 2)

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


def _row_loop_ingest(path):
    """Oracle: a row-by-row reader with a per-cell parse, written apart
    from ingest_csv (blank records skipped, row numbers = record index
    + 2)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise InputFormatError(
                    f"row {lineno}: expected {len(header)} fields, "
                    f"got {len(row)}")
            rows.append((lineno, row))
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    if tuple(header[:3]) != ("cluster_id", "treated", "outcome"):
        raise InputFormatError(
            "header must start with cluster_id,treated,outcome; got "
            f"{','.join(header[:3])}")
    rest = header[3:]
    has_post = bool(rest) and rest[0] == "post"
    cov_names = rest[1:] if has_post else rest
    ids, treated, outcome, post, covs = [], [], [], [], []
    for lineno, row in rows:
        ids.append(row[0].strip())
        treated.append(_parse_binary(row[1], "treated", lineno))
        outcome.append(_parse_float(row[2], "outcome", lineno))
        base = 3
        if has_post:
            post.append(_parse_binary(row[3], "post", lineno))
            base = 4
        covs.append([_parse_float(row[base + i], cov_names[i], lineno)
                     for i in range(len(cov_names))])
    return ClusterDataset(
        ids, treated, outcome,
        covariates=np.asarray(covs, dtype=float).reshape(len(ids),
                                                         len(cov_names)),
        post=post if has_post else None)


def _outcome_of(fn, path):
    """What fn(path) gives, as comparable bytes, or its error."""
    try:
        ds = fn(path)
    except ClusterPermError as exc:
        return type(exc).__name__, str(exc)
    blocks = [tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes())
                    for a in ds.cluster_rows(k))
              for k in range(ds.design.q)]
    return ds.cluster_ids, ds.design, ds.has_post, ds.n_covariates, blocks


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False,
              width=32).map(lambda v: f"{v:.6e}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e5", "-2.5E-3", "+1.5", "-0", "+0.0", ".5", "5.",
                     "1_0", "1_000.5", "4.9e-324", "1e-320"]),
)
_NON_FINITE = ["inf", "-Infinity", "nan", "NaN", "1e400"]
_NOT_NUMBERS = ["oops", "", " ", "1,5", "--1", "1e", "0x10", "1__0"]
_NOT_BINARY = ["2", "yes", "", "1.0", "-1"]
_SPACES = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _observations_text(draw):
    """An observations CSV; half the examples are clean, the others carry
    bad cells, non-finite values and flag flips at random rows."""
    q = draw(st.integers(2, 5))
    flags = draw(st.lists(st.integers(0, 1), min_size=q, max_size=q)
                 .filter(lambda f: 0 < sum(f) < len(f)))
    has_post = draw(st.booleans())
    ncov = draw(st.integers(0, 3))
    faulty = draw(st.booleans())

    def fault():
        return faulty and draw(st.integers(0, 24)) == 0

    def number():
        if fault():
            return draw(st.sampled_from(_NOT_NUMBERS + _NON_FINITE))
        return draw(_SPACES) + draw(_FINITE) + draw(_SPACES)

    def binary(value):
        if fault():
            return draw(st.sampled_from(_NOT_BINARY))
        return draw(_SPACES) + str(value) + draw(_SPACES)

    header = ["cluster_id", "treated", "outcome"]
    header += ["post"] if has_post else []
    header += [f"x{j}" for j in range(ncov)]
    lines = [",".join(header)]
    # every cluster appears; the rest of the rows interleave at random
    clusters = list(range(q)) + draw(
        st.lists(st.integers(0, q - 1), max_size=10))
    for k in draw(st.permutations(clusters)):
        if draw(st.integers(0, 9)) == 0:  # a blank record, skipped
            lines.append(",".join(draw(_SPACES) for _ in range(
                draw(st.sampled_from([1, len(header)])))))
        flag = 1 - flags[k] if fault() else flags[k]
        cells = [draw(_SPACES) + f"c{k}", binary(flag), number()]
        if has_post:
            cells.append(binary(draw(st.integers(0, 1))))
        cells += [number() for _ in range(ncov)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestColumnIngestion:
    """ingest_csv against an independent row loop, the oracle for
    values, grouping and error messages."""

    @given(text=_observations_text())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_loop_bit_for_bit(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text(text)
        assert _outcome_of(ingest_csv, path) == _outcome_of(
            _row_loop_ingest, path)

    def test_interleaved_shuffled_ids_keep_orders(self, tmp_path):
        rng = np.random.default_rng(7)
        q, per = 9, 6
        flags = [1, 0, 0, 1, 0, 1, 1, 0, 0]
        labels = rng.permutation([f"k{k}" for k in range(q)]).tolist()
        order = rng.permutation(np.repeat(np.arange(q), per)).tolist()
        lines = ["cluster_id,treated,outcome"]
        for i, k in enumerate(order):
            lines.append(f"{labels[k]},{flags[k]},{i}")
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = ingest_csv(path)
        seen = list(dict.fromkeys(order))
        want = ([labels[k] for k in seen if flags[k]]
                + [labels[k] for k in seen if not flags[k]])
        assert ds.cluster_ids == tuple(want)
        assert (ds.design.q1, ds.design.q0) == (4, 5)
        for pos, cid in enumerate(ds.cluster_ids):
            k = labels.index(cid)
            rows = [float(i) for i, kk in enumerate(order) if kk == k]
            assert ds.cluster_rows(pos)[0].tolist() == rows

    def test_bad_outcome_before_bad_flag(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster_id,treated,outcome\n"
                        "a,1,1.0\nb,0,oops\nc,maybe,2.0\n")
        with pytest.raises(InputFormatError) as info:
            ingest_csv(path)
        assert str(info.value) == ("row 3: non-numeric value 'oops' in "
                                   "column 'outcome'")

    def test_bad_covariate_before_bad_flag(self, tmp_path):
        # a column-major scan would meet the treated column first
        path = tmp_path / "data.csv"
        path.write_text("cluster_id,treated,outcome,x1\n"
                        "a,1,1.0,0.5\nb,0,2.0,n/a\nc,2,3.0,0.25\n")
        with pytest.raises(InputFormatError) as info:
            ingest_csv(path)
        assert str(info.value) == ("row 3: non-numeric value 'n/a' in "
                                   "column 'x1'")

    def test_parse_error_beats_flag_flip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster_id,treated,outcome\n"
                        "a,1,1.0\na,0,2.0\nb,0,oops\n")
        with pytest.raises(InputFormatError, match="row 4: non-numeric"):
            ingest_csv(path)

    def test_blank_record_of_full_width_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster_id,treated,outcome\n"
                        "a,1,1.0\n , ,\t\nb,0,2.0\n")
        ds = ingest_csv(path)
        assert ds.cluster_ids == ("a", "b")
        assert [ds.cluster_rows(k)[0].tolist() for k in range(2)] == [
            [1.0], [2.0]]

    def test_row_numbers_count_blank_records(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster_id,treated,outcome\n"
                        "a,1,1.0\n\n , ,\nb,0,x\n")
        with pytest.raises(InputFormatError, match="row 5: non-numeric"):
            ingest_csv(path)


def _csv_path_ingest(path):
    """ingest_csv with numpy's tokenizer turned off: the csv path alone."""
    with mock.patch.object(estimators, "_tokenized_columns",
                           lambda path: None):
        return ingest_csv(path)


_LIMIT = csv.field_size_limit()


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _raw_observations(draw):
    """Bytes of an observations file in the shapes where the csv module
    and numpy's tokenizer could part: a BOM, quoting, blank lines, mixed
    line ends, numbers only float() reads, loose flags, blank ids, ragged
    rows and fields at and past the csv module's size limit.  Half the
    examples hold only cells both parsers accept, but for the long
    field."""
    q = draw(st.integers(2, 4))
    flags = draw(st.lists(st.integers(0, 1), min_size=q, max_size=q)
                 .filter(lambda f: 0 < sum(f) < len(f)))
    has_post = draw(st.booleans())
    ncov = draw(st.integers(0, 2))
    faulty = draw(st.booleans())

    def pick(common, rare=()):
        # integer draws lean to their ends, so a middle value is the rare one
        if faulty and rare and draw(st.integers(0, 6)) == 3:
            return draw(st.sampled_from(rare))
        return draw(st.sampled_from(common))

    def cluster_id(k):
        c = f"c{k}"
        return pick([c, f" {c} ", _quote(c), _quote(f"{c},x"),
                     _quote(f'{c}"x'), f'{c}"x', f'"{c}"x', f"{c}é",
                     f"{c}\x00", ""],
                    [_quote(f"{c}\nx"), _quote(f"{c}\r\nx"),
                     _quote(f"{c}\rx"), " "])

    def number():
        v = pick([draw(_FINITE.filter(lambda v: "_" not in v))],
                 ["1_000", "١٢", "inf", "-nan", "1e999", "oops", ""])
        return pick([v, f" {v} ", _quote(v), _quote(f"\r\n{v}\n"),
                     f'"{v}"5'])

    def binary(v):
        return pick([str(v)] * 4 + [f" {v} ", _quote(str(v))],
                    [_quote(f"\r\n{v}"), "1.0", "+1"])

    header = ["cluster_id", "treated", "outcome"]
    header += ["post"] if has_post else []
    header += [f"x{j}" for j in range(ncov)]
    header = [pick([h, _quote(h), f" {h} "]) for h in header]
    # a header over two lines, or over the whole file
    header[-1] = pick([header[-1]], [_quote("x\ny"), '"' + header[-1]])
    ids = [cluster_id(k) for k in range(q)]
    rows = []
    for k in draw(st.permutations(list(range(q)) + draw(
            st.lists(st.integers(0, q - 1), max_size=8)))):
        cells = [ids[k], binary(flags[k]), number()]
        cells += [binary(draw(st.integers(0, 1)))] if has_post else []
        cells += [number() for _ in range(ncov)]
        rows.append(cells)
        if draw(st.integers(0, 6)) == 3:
            rows.append(pick([[""]], [["  "], [" ", " ", "\t"],
                                      cells[:-1], cells + ["9"]]))
    if draw(st.booleans()):  # a field at or past the limit
        cells = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(cells) - 1))
        pad = _LIMIT - len(cells[j]) + draw(st.integers(0, 1))
        cells[j] = draw(st.sampled_from([
            " " * pad + cells[j], _quote("\n" * pad + cells[j]),
            _quote("," * pad + cells[j]), cells[j] + "x" * pad]))
    tail = draw(st.sampled_from(["end of line", "none", "open quote"]))
    if tail == "open quote":  # the file ends inside a quoted field
        rows[-1][-1] = '"' + draw(_FINITE)
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   for line in lines)
    if tail != "end of line":
        text = text.rstrip("\r\n")
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode()


class TestTokenizedIngestion:
    """numpy's tokenizer reads observation files only where it gives what
    the csv path gives: the same dataset, or the same error."""

    @given(raw=_raw_observations())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_csv_path(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(raw)
        assert _outcome_of(ingest_csv, path) == _outcome_of(
            _csv_path_ingest, path)

    def test_reads_quoted_fields_and_line_ends(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(
            b'\xef\xbb\xbf"cluster_id",treated,outcome,post,x1\r\n'
            b'"a,1",1,"2.5",0,1e-3\r\n\r\n'
            b'"a,1",1," 3",1,-0\r'
            b'"b""q",0,4,0,"\n7\n"\n'
            b'b"q,0,5,1,inf\n')
        assert estimators._tokenized_columns(path) is not None
        assert _outcome_of(ingest_csv, path) == _outcome_of(
            _csv_path_ingest, path)
        with pytest.raises(DomainError, match="covariates must all be finite"):
            ingest_csv(path)

    @pytest.mark.parametrize("text", [
        "cluster_id,treated,outcome\na,1,1_000\nb,0,2\n",
        'cluster_id,treated,outcome\n"a\rz",1,1\nb,0,2\n',
        'cluster_id,treated,outcome,"x\n1"\na,1,1,2\nb,0,2,3\n',
        'cluster_id,treated,outcome,"x\na,1,1,2\nb,0,2,3\n',
        f'cluster_id,treated,outcome\n"a{"," * _LIMIT}",1,1\nb,0,2\n',
        f"cluster_id,treated,outcome\na,1,{' ' * _LIMIT}1\nb,0,2\n",
        f'cluster_id,treated,outcome\na,1,"{chr(10) * _LIMIT}1"\nb,0,2\n',
        "cluster_id,treated,outcome\n\n\n",
    ])
    def test_refuses_what_it_cannot_vouch_for(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert estimators._tokenized_columns(path) is None

    @given(text=st.text(alphabet=",ab\n", max_size=60),
           size=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_comma_scan_across_chunks(self, tmp_path_factory, text, size):
        path = tmp_path_factory.mktemp("scan") / "data.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(estimators, "_SCAN_BYTES", size):
            got = estimators._longest_comma_free_run(path)
        assert got == max(map(len, text.split(",")))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_reads_a_pipe_once(self, tmp_path):
        # a pipe can be read only once, so it takes the csv path alone;
        # a second open of it would wait for a writer forever
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        read = []
        threads = [
            threading.Thread(target=lambda: read.append(ingest_csv(pipe)),
                             daemon=True),
            threading.Thread(target=pipe.write_text, daemon=True, args=(
                "cluster_id,treated,outcome\na,1,1.5\nb,0,2.5\n",))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert read[0].cluster_ids == ("a", "b")

    def test_peak_memory_of_a_large_file(self, tmp_path):
        # the benchmark's shape: 24 clusters of 2,000 rows, 3 covariates
        rng = np.random.default_rng(5)
        lines = ["cluster_id,treated,outcome,x1,x2,x3"]
        for k in range(24):
            for row in rng.normal(size=(2000, 4)).tolist():
                lines.append(f"c{k:02d},{int(k < 12)},"
                             + ",".join(map(repr, row)))
        path = tmp_path / "large.csv"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 10.0 MB with numpy's tokenizer; the csv path alone needs 28 MB
        assert peak < 12e6


class TestEncoding:
    TEXT = "cluster_id,treated,outcome\nu,1,3.0\nu,1,5.0\nv,0,7.0\n"

    def test_bom_parses_like_its_twin(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(self.TEXT.encode())
        bom.write_bytes(self.TEXT.encode("utf-8-sig"))
        assert _outcome_of(ingest_csv, bom) == _outcome_of(ingest_csv, plain)
        est = "cluster_id,treated,estimate\nc1,0,1.5\nc2,1,2.5\n"
        plain.write_bytes(est.encode())
        bom.write_bytes(est.encode("utf-8-sig"))
        a, b = load_estimates(plain), load_estimates(bom)
        assert a.cluster_ids == b.cluster_ids == ("c2", "c1")
        assert a.values.tobytes() == b.values.tobytes()

    def test_oversized_field_is_a_format_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("cluster_id,treated,estimate\n"
                        f"c1,1,{'1' * 200_000}\nc2,0,0.5\n")
        with pytest.raises(InputFormatError, match="big.csv: field larger"):
            load_estimates(path)
        path.write_text("cluster_id,treated,outcome\n"
                        f"c1,1,{' ' * 200_000}1\nc2,0,0.5\n")
        with pytest.raises(InputFormatError, match="big.csv: field larger"):
            ingest_csv(path)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.TEXT.encode().replace(b"v,0", b"\xff,0"))
        with pytest.raises(InputFormatError, match="bad.csv: not UTF-8"):
            ingest_csv(path)
        with pytest.raises(InputFormatError, match="bad.csv: not UTF-8"):
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
        est = cluster_estimates(ds, "intercept")
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
