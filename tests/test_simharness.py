"""Tests for the Monte Carlo study harness.

The study blocks call the same rival kernels as the single-dataset
tests; they are pinned, replication by replication, to the public
single-dataset functions, which also covers the permutation arm and
the DiD study's own per-cluster fits.
"""

import math
import zlib

import numpy as np
import pytest
from scipy.signal import lfilter

from clusterperm import simharness as sh
from clusterperm.errors import (
    ClusterPermError,
    DomainError,
    InputFormatError,
)
from clusterperm.estimators import ClusterDataset, EstimatorSpec, per_cluster_ols
from clusterperm.permkit import Design, RngStream
from clusterperm.permtest import adjusted_test
from clusterperm.rivals import (
    PooledRegressionSpec,
    bch_test,
    im_test,
    wild_cluster_bootstrap_test,
)
from clusterperm.simharness import (
    DidConfig,
    NormalLocationConfig,
    ResultTable,
    did_config_from_mapping,
    normal_config_from_mapping,
    parse_key_value_file,
    run_did_study,
    run_normal_location_study,
)

# =========================================================================
# Oracles
# =========================================================================
# AR(1) closed forms: u_t = rho*u_{t-1} + v_t started at zero gives
# u_1 = v_1, u_2 = rho*v_1 + v_2, u_3 = rho^2*v_1 + rho*v_2 + v_3; the
# stationary variance is 1/(1 - rho^2) and the lag-1 autocorrelation is
# rho.  For v = (1, 2, 3) and rho = 1/2 the recursion gives exactly
AR1_HAND = (1.0, 2.5, 4.25)

# Stationary variance at rho = 1/2: 1/(1 - 1/4) = 4/3.
AR1_STATIONARY_VAR = 4.0 / 3.0


def _normal_draw(cfg: NormalLocationConfig, rep: int) -> np.ndarray:
    """The documented per-replication draw for the location study."""
    z = RngStream(cfg.seed, rep).generator().standard_normal(cfg.q1 + cfg.q0)
    return z * cfg.sigmas()


def _did_draw(cfg: DidConfig, rep: int):
    """The documented per-replication draws for the panel study, in
    order: AR innovations, W, X2, X3, bootstrap signs."""
    q = cfg.q1 + cfg.q0
    t = cfg.n0 + cfg.n1
    gen = RngStream(cfg.seed, rep).generator()
    zv = gen.standard_normal((cfg.burn_in + t, q))
    zw = gen.standard_normal((t, q))
    zx2 = gen.standard_normal((t, q))
    zx3 = gen.standard_normal((t, q))
    boot_state = gen.bit_generator.state
    u0 = lfilter([1.0], [1.0, -cfg.rho], zv, axis=0)[cfg.burn_in:]
    return zw, zx2, zx3, u0, boot_state


POOLED_SPEC = PooledRegressionSpec(
    outcome="y",
    regressors=("intercept", "post", "post_x_treated", "x1", "x2", "x3"),
    target="post_x_treated",
    cluster="cid",
)


def _did_reference_decisions(cfg: DidConfig, rep: int):
    """Decisions of all four public tests on replication rep, for every
    (h, delta) cell, computed through the single-dataset API."""
    q = cfg.q1 + cfg.q0
    t = cfg.n0 + cfg.n1
    i_t = np.concatenate([np.zeros(cfg.n0), np.ones(cfg.n1)])
    d_k = np.concatenate([np.ones(cfg.q1), np.zeros(cfg.q0)])
    itd = np.outer(i_t, d_k)
    zw, zx2, zx3, u0, boot_state = _did_draw(cfg, rep)
    cids = np.repeat(np.arange(q), t)
    post = np.tile(i_t, q)
    treated = np.repeat(d_k, t)
    out = np.zeros((len(cfg.h_grid), len(cfg.delta_grid), 4), dtype=np.int64)
    for hi, h in enumerate(cfg.h_grid):
        sig = cfg.sigmas(h)
        x1 = cfg.gamma * itd + sig * zw
        x2 = sig * zx2
        x3 = sig * zx3
        y_base = (cfg.theta0 * i_t[:, None] + cfg.beta1 * x1
                  + cfg.beta2 * x2 + cfg.beta3 * x3 + cfg.zeta + sig * u0)
        covs = np.column_stack([x1.T.reshape(-1), x2.T.reshape(-1),
                                x3.T.reshape(-1)])
        for di, delta in enumerate(cfg.delta_grid):
            y = (y_base + delta * itd).T.reshape(-1)
            ds = ClusterDataset(cluster_ids=cids, treated=treated.astype(int),
                                outcome=y, covariates=covs,
                                post=post.astype(int))
            theta = per_cluster_ols(ds, EstimatorSpec("did-slope"))
            data = {"y": y, "cid": cids, "intercept": np.ones(q * t),
                    "post": post, "post_x_treated": post * treated,
                    "x1": covs[:, 0], "x2": covs[:, 1], "x3": covs[:, 2]}
            gen = RngStream(cfg.seed, rep).generator()
            gen.bit_generator.state = boot_state
            outcomes = (
                adjusted_test(theta, cfg.alpha, side="right"),
                im_test(theta, cfg.alpha, side="right"),
                bch_test(data, POOLED_SPEC, cfg.alpha, side="right"),
                wild_cluster_bootstrap_test(data, POOLED_SPEC, cfg.alpha,
                                            side="right", B=cfg.bootstrap_B,
                                            rng=gen),
            )
            for mi, o in enumerate(outcomes):
                out[hi, di, mi] = o.decision == "reject"
    return out


# =========================================================================
# Configuration objects
# =========================================================================

class TestNormalLocationConfig:
    def test_default_matches_study_layout(self):
        cfg = NormalLocationConfig()
        assert (cfg.q1, cfg.q0, cfg.h) == (6, 6, 1)
        assert cfg.sigma_high == 100.0 and cfg.alpha == 0.05

    def test_sigma_pattern_puts_high_values_last(self):
        cfg = NormalLocationConfig(q1=3, q0=3, h=2)
        assert cfg.sigmas().tolist() == [1.0, 1.0, 1.0, 1.0, 100.0, 100.0]

    def test_h_zero_means_homogeneous(self):
        assert NormalLocationConfig(h=0).sigmas().tolist() == [1.0] * 12

    @pytest.mark.parametrize("kwargs", [
        {"q1": 0}, {"alpha": 0.0}, {"alpha": 1.0}, {"h": 13}, {"h": -1},
        {"mu1_grid": ()}, {"mu1_grid": (math.nan,)}, {"sigma_low": 0.0},
        {"replications": 0}, {"mu0": math.inf}, {"sigma_high": math.inf},
        {"sigma_low": math.nan},
    ])
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(DomainError):
            NormalLocationConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NormalLocationConfig().alpha = 0.1


class TestDidConfig:
    def test_default_matches_study_layout(self):
        cfg = DidConfig()
        assert (cfg.q1, cfg.q0, cfg.n0, cfg.n1) == (6, 6, 10, 10)
        assert (cfg.rho, cfg.gamma, cfg.bootstrap_B) == (0.5, 0.8, 199)
        assert cfg.delta_grid == (0.0, 1.0, 2.0, 3.0)
        assert cfg.h_grid == (1, 3, 5, 7)

    def test_sigma_pattern_per_h(self):
        cfg = DidConfig(q1=2, q0=2, h_grid=(0, 3))
        assert cfg.sigmas(0).tolist() == [1.0] * 4
        assert cfg.sigmas(3).tolist() == [1.0, 20.0, 20.0, 20.0]

    @pytest.mark.parametrize("kwargs", [
        {"rho": 1.0}, {"rho": -1.5}, {"burn_in": -1}, {"bootstrap_B": 0},
        {"n0": 0}, {"delta_grid": ()}, {"h_grid": (13,)}, {"h_grid": ()},
        {"theta0": math.nan}, {"gamma": math.inf}, {"sigma_high": -2.0},
        {"sigma_high": math.inf}, {"sigma_low": math.inf},
    ])
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(DomainError):
            DidConfig(**kwargs)


# =========================================================================
# AR(1) simulation
# =========================================================================

class TestAr1Simulate:
    """The study's AR(1) recursion, which runs along axis 1."""

    def test_hand_recursion(self):
        out = sh._ar1(np.array([[1.0, 2.0, 3.0]]), 0.5)
        assert out[0].tolist() == list(AR1_HAND)

    def test_rho_zero_is_passthrough(self):
        v = RngStream(3).generator().standard_normal((2, 50))
        assert np.array_equal(sh._ar1(v, 0.0), v)

    def test_burn_in_slices_the_same_path(self):
        # restarting the recursion at t = 60 from the burned-in state
        # continues the full path exactly
        v = RngStream(4).generator().standard_normal((2, 200))
        full = sh._ar1(v, 0.7)
        tail = v[:, 60:].copy()
        tail[:, 0] += 0.7 * full[:, 59]
        assert np.array_equal(sh._ar1(tail, 0.7), full[:, 60:])

    def test_scale_equivariance(self):
        v = RngStream(5).generator().standard_normal((2, 80))
        np.testing.assert_allclose(sh._ar1(2.5 * v, 0.4),
                                   2.5 * sh._ar1(v, 0.4), rtol=1e-12)

    def test_stationary_moments(self):
        # 200 independent paths of 5,500 steps, the first 500 burned in
        v = RngStream(11).generator().standard_normal((200, 5_500))
        u = sh._ar1(v, 0.5)[:, 500:]
        assert abs(u.var() - AR1_STATIONARY_VAR) < 0.02
        lag1 = np.corrcoef(u[:, :-1].ravel(), u[:, 1:].ravel())[0, 1]
        assert abs(lag1 - 0.5) < 0.01

    @pytest.mark.parametrize("rho", [0.5, -0.3, 0.9, 0.123456789])
    def test_matches_lfilter_bit_for_bit(self, rho):
        v = RngStream(12).generator().standard_normal((256, 520, 12))
        assert np.array_equal(sh._ar1(v, rho),
                              lfilter([1.0], [1.0, -rho], v, axis=1))


# =========================================================================
# Result tables and config files
# =========================================================================

class TestResultTable:
    def _table(self):
        rows = ((0.0, 1, "adjusted-permutation", 0.025, 0.001),
                (0.0, 1, "group-t", 0.009, 0.0009),
                (2.5, 1, "adjusted-permutation", 0.5, 0.005))
        return ResultTable(("mu1", "h", "method", "rejection_rate", "mc_se"),
                           rows, {"study": "demo", "seed": "0"})

    def test_rate_lookup(self):
        t = self._table()
        assert t.rate("group-t", mu1=0.0) == 0.009
        assert t.rate("adjusted-permutation", mu1=2.5, h=1) == 0.5

    def test_rate_requires_unique_match(self):
        t = self._table()
        with pytest.raises(DomainError):
            t.rate("adjusted-permutation")        # two rows match
        with pytest.raises(DomainError):
            t.rate("group-t", mu1=9.0)            # no row matches

    def test_write_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rates.csv"
        self._table().write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# study=demo"
        assert lines[1] == "# seed=0"
        assert lines[2] == "mu1,h,method,rejection_rate,mc_se"
        assert lines[3].split(",")[2] == "adjusted-permutation"
        assert len(lines) == 6


class TestParseKeyValueFile:
    def test_basic_pairs_with_comments(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# a comment\n\nq1 = 6\nalpha=0.05\nnote=a=b\n")
        assert parse_key_value_file(p) == {
            "q1": "6", "alpha": "0.05", "note": "a=b"}

    def test_error_lines_are_numbered(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("q1=6\nnot a pair\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_key_value_file(p)
        p.write_text("q1=6\nq1=7\n")
        with pytest.raises(InputFormatError, match="line 2.*duplicate"):
            parse_key_value_file(p)
        p.write_text("=value\n")
        with pytest.raises(InputFormatError, match="line 1"):
            parse_key_value_file(p)

    def test_bom_parses_like_its_twin(self, tmp_path):
        text = "# study\nq1=5\nreplications=10\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text.encode())
        bom.write_bytes(text.encode("utf-8-sig"))
        assert parse_key_value_file(bom) == parse_key_value_file(plain) == {
            "q1": "5", "replications": "10"}

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"q1=5\nnote=\xff\n")
        with pytest.raises(InputFormatError, match="bad.cfg: not UTF-8"):
            parse_key_value_file(p)


class TestConfigFromMapping:
    def test_normal_mapping_coerces_types(self):
        cfg = normal_config_from_mapping(
            {"q1": "5", "q0": "5", "mu1_grid": "0,2.5,5", "h": "2",
             "replications": "100", "seed": "9"})
        assert cfg.q1 == 5 and cfg.h == 2 and cfg.seed == 9
        assert cfg.mu1_grid == (0.0, 2.5, 5.0)

    def test_did_mapping_coerces_grids(self):
        cfg = did_config_from_mapping(
            {"delta_grid": "0,2", "h_grid": "1,7", "bootstrap_B": "99",
             "rho": "0.25"})
        assert cfg.delta_grid == (0.0, 2.0)
        assert cfg.h_grid == (1, 7)
        assert isinstance(cfg.h_grid[0], int)
        assert cfg.bootstrap_B == 99 and cfg.rho == 0.25

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown config key"):
            normal_config_from_mapping({"qq1": "5"})

    def test_bad_value_rejected(self):
        with pytest.raises((DomainError, ValueError)):
            did_config_from_mapping({"rho": "fast"})


# =========================================================================
# Normal location study
# =========================================================================

class TestNormalLocationStudy:
    def test_matches_public_api_per_replication(self):
        cfg = NormalLocationConfig(q1=5, q0=5, mu1_grid=(0.0, 2.5),
                                   replications=60, seed=2)
        table = run_normal_location_study(cfg)
        design = Design(5, 5)
        for mu1 in cfg.mu1_grid:
            ap = im = 0
            for rep in range(cfg.replications):
                x = _normal_draw(cfg, rep)
                x[:cfg.q1] += mu1
                x[cfg.q1:] += cfg.mu0
                est = __import__("clusterperm.permtest", fromlist=["ClusterEstimates"]).ClusterEstimates(design, x)
                ap += adjusted_test(est, cfg.alpha, side="right").decision == "reject"
                im += im_test(est, cfg.alpha, side="right").decision == "reject"
            reps = cfg.replications
            assert table.rate("adjusted-permutation", mu1=mu1) == ap / reps
            assert table.rate("group-t", mu1=mu1) == im / reps

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(sh, "_BLOCK", 16)
        cfg = NormalLocationConfig(replications=80, mu1_grid=(0.0, 2.5),
                                   seed=5)
        one = run_normal_location_study(cfg, workers=1)
        two = run_normal_location_study(cfg, workers=3)
        assert one.rows == two.rows
        assert one.metadata["data_checksum"] == two.metadata["data_checksum"]

    def test_checksum_invariant_to_block_size(self, monkeypatch):
        cfg = NormalLocationConfig(replications=50, seed=8)
        base = run_normal_location_study(cfg)
        monkeypatch.setattr(sh, "_BLOCK", 7)
        small = run_normal_location_study(cfg)
        assert base.rows == small.rows
        assert base.metadata["data_checksum"] == small.metadata["data_checksum"]

    def test_checksum_matches_documented_draws(self):
        cfg = NormalLocationConfig(replications=20, seed=13)
        table = run_normal_location_study(cfg)
        checksum = 0
        for rep in range(cfg.replications):
            z = RngStream(cfg.seed, rep).generator().standard_normal(12)
            checksum ^= zlib.crc32(z.tobytes())
        assert table.metadata["data_checksum"] == f"{checksum:08x}"

    def test_moderate_replication_anchors(self):
        cfg = NormalLocationConfig(mu1_grid=(0.0, 2.5), replications=2000,
                                   seed=1)
        table = run_normal_location_study(cfg, workers=2)
        size = table.rate("adjusted-permutation", mu1=0.0)
        assert 0.01 <= size <= 0.06
        ap = table.rate("adjusted-permutation", mu1=2.5)
        im = table.rate("group-t", mu1=2.5)
        assert ap > 0.45 and im < 0.12

    def test_level_without_feasible_adjustment_fails_fast(self):
        with pytest.raises(ClusterPermError):
            run_normal_location_study(
                NormalLocationConfig(q1=3, q0=3, alpha=0.01, replications=10))

    def test_metadata_records_the_run(self):
        cfg = NormalLocationConfig(replications=10, seed=3)
        table = run_normal_location_study(cfg)
        assert table.metadata["study"] == "NormalLocationConfig"
        assert table.metadata["order_index"] == "904"
        assert float(table.metadata["bar_alpha"]) == pytest.approx(0.0227)
        assert len(table.rows) == 2

    def test_bad_worker_count(self):
        with pytest.raises(DomainError):
            run_normal_location_study(NormalLocationConfig(replications=10),
                                      workers=0)


# =========================================================================
# Difference-in-differences study
# =========================================================================

class TestDidStudy:
    def test_matches_public_api_per_replication(self):
        cfg = DidConfig(seed=3, replications=6, h_grid=(1, 5),
                        delta_grid=(0.0, 2.0))
        counts, _ = sh._did_block(cfg, 0, cfg.replications)
        expect = sum(_did_reference_decisions(cfg, rep)
                     for rep in range(cfg.replications))
        assert np.array_equal(counts, expect)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(sh, "_BLOCK", 8)
        cfg = DidConfig(replications=24, h_grid=(1,), delta_grid=(0.0, 2.0),
                        seed=6)
        one = run_did_study(cfg, workers=1)
        two = run_did_study(cfg, workers=2)
        assert one.rows == two.rows
        assert one.metadata["data_checksum"] == two.metadata["data_checksum"]

    def test_grid_order_does_not_change_cell_rates(self):
        base = DidConfig(replications=200, h_grid=(1, 7),
                         delta_grid=(0.0, 2.0), seed=4)
        flipped = DidConfig(replications=200, h_grid=(7, 1),
                            delta_grid=(2.0, 0.0), seed=4)
        t1 = run_did_study(base)
        t2 = run_did_study(flipped)
        for h in (1, 7):
            for d in (0.0, 2.0):
                for m in ("adjusted-permutation", "group-t",
                          "pooled-cluster-t", "wild-cluster-bootstrap"):
                    assert t1.rate(m, h=h, delta=d) == t2.rate(m, h=h, delta=d)

    def test_moderate_replication_anchors(self):
        cfg = DidConfig(replications=1500, h_grid=(1,),
                        delta_grid=(0.0, 2.0), seed=0)
        table = run_did_study(cfg, workers=2)
        # Monte Carlo windows around the published 10,000-replication
        # rates: size cells near 0.02-0.04, the delta=2 power ordering
        # WCB > BCH ~ AP > IM.
        assert table.rate("adjusted-permutation", h=1, delta=0.0) < 0.05
        assert table.rate("wild-cluster-bootstrap", h=1, delta=0.0) < 0.07
        ap = table.rate("adjusted-permutation", h=1, delta=2.0)
        im = table.rate("group-t", h=1, delta=2.0)
        bch = table.rate("pooled-cluster-t", h=1, delta=2.0)
        wcb = table.rate("wild-cluster-bootstrap", h=1, delta=2.0)
        assert abs(ap - 0.5541) < 0.05
        assert abs(im - 0.3142) < 0.05
        assert abs(bch - 0.5631) < 0.05
        assert abs(wcb - 0.6326) < 0.05

    def test_metadata_records_design_choices(self):
        cfg = DidConfig(replications=4, h_grid=(1,), delta_grid=(0.0,))
        table = run_did_study(cfg)
        assert table.metadata["pooled_columns"] == \
            "intercept post post_x_treated x1 x2 x3"
        assert table.metadata["dof_adjustment"] == "478/429"
        assert table.metadata["order_index"] == "904"
        assert len(table.rows) == 4

    def test_too_few_periods_rejected(self):
        with pytest.raises(DomainError, match="periods"):
            run_did_study(DidConfig(n0=2, n1=2, replications=4))

    def test_csv_export_roundtrip(self, tmp_path):
        cfg = DidConfig(replications=8, h_grid=(1,), delta_grid=(0.0,),
                        seed=2)
        table = run_did_study(cfg)
        path = tmp_path / "did.csv"
        table.write_csv(path)
        text = path.read_text().splitlines()
        assert "# pooled_columns=intercept post post_x_treated x1 x2 x3" in text
        header = text.index("h,delta,method,rejection_rate,mc_se")
        assert len(text) - header - 1 == 4
