"""Tests for Monte-Carlo calibration of the adjustment level.

Oracles: under equal variances the statistic is exchangeable across
assignments, so the probability of beating the j-th order statistic is
exactly (n-j)/n; the worst-case size of the most conservative rule is
the closed-form size_bound; grid arithmetic bounds are deterministic.
Tabulated anchor values are pinned with the tolerances stated alongside.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from clusterperm.calibrate import (
    CalibrationParams,
    _TwoPassEngine,
    calibrate_exhaustive,
    calibrate_sampled,
    rejection_rate,
)
from clusterperm.errors import (
    CapacityError,
    ContractError,
    DomainError,
    InfeasibleLevelError,
    ShapeError,
)
from clusterperm.permkit import Design, RngStream, weight_matrix
from clusterperm.permtest import order_index_from_level, size_bound

_FAST = CalibrationParams(R=200, S1=200, S2=1000, seed=5)


# ===========================================================================
# parameter validation
# ===========================================================================

class TestCalibrationParams:
    def test_defaults(self):
        p = CalibrationParams()
        assert (p.R, p.S1, p.S2) == (3000, 1000, 10_000)
        assert p.top_fraction == 0.01
        assert p.beta_a == p.beta_b == 0.1
        assert p.tolerance_eta == 0.0
        assert p.epsilon == 0.005
        assert p.m == 1500
        assert p.enumeration_threshold == 1500

    @pytest.mark.parametrize("kwargs", [
        {"R": 0}, {"S1": -1}, {"S2": 2.5}, {"top_fraction": 0.0},
        {"top_fraction": 1.5}, {"beta_a": 0.0}, {"beta_b": -0.1},
        {"tolerance_eta": -1e-9}, {"epsilon": 0.0}, {"m": 0},
        {"seed": -1}, {"seed": 2**64}, {"enumeration_threshold": 0},
        {"tolerance_eta": math.inf}, {"tolerance_eta": math.nan},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            CalibrationParams(**kwargs)


# ===========================================================================
# rejection_rate
# ===========================================================================

class TestRejectionRate:
    def test_maximal_index_never_rejects(self):
        d = Design(3, 3)
        gen = np.random.default_rng(1)
        for _ in range(5):
            v = gen.uniform(0.05, 1.0, size=6)
            assert rejection_rate(d, d.n_assignments, v, 2000, RngStream(2)) == 0.0

    def test_exchangeable_second_largest(self):
        # equal variances: beats the (n-1)-th order statistic iff the
        # observed labeling is the unique argmax, probability exactly 1/n
        d = Design(4, 4)
        S = 100_000
        rate = rejection_rate(d, 69, np.ones(8), S, RngStream(7))
        expect = 1 / 70
        se = math.sqrt(expect * (1 - expect) / S)
        assert abs(rate - expect) <= 3 * se

    def test_exchangeable_general_index(self):
        d = Design(3, 3)
        S = 100_000
        for j in (17, 19):
            rate = rejection_rate(d, j, np.ones(6), S, RngStream(8))
            expect = (20 - j) / 20
            se = math.sqrt(expect * (1 - expect) / S)
            assert abs(rate - expect) <= 3 * se

    def test_degenerate_patterns_respect_size_bound(self):
        d = Design(4, 4)
        S = 20_000
        bound = size_bound(4, 4) + 3 * math.sqrt(0.09 * 0.91 / S)
        eps = 1e-12
        patterns = [
            (1, 1, 1, eps, 1, 1, 1, eps),
            (1, eps, eps, eps, 1, eps, eps, eps),
            (eps, eps, eps, eps, 1, 1, 1, 1),
            (1, 1, eps, eps, eps, eps, 1, 1),
        ]
        for i, v in enumerate(patterns):
            rate = rejection_rate(d, 69, v, S, RngStream(100 + i))
            assert rate <= bound

    def test_level_and_index_agree(self):
        d = Design(4, 4)
        v = np.full(8, 0.5)
        a = rejection_rate(d, 67, v, 4000, RngStream(9))
        b = rejection_rate(d, Fraction(3, 70), v, 4000, RngStream(9))
        assert a == b

    def test_monotone_in_index_under_crn(self):
        d = Design(4, 4)
        v = np.linspace(0.1, 1.0, 8)
        rates = [rejection_rate(d, j, v, 5000, RngStream(10))
                 for j in range(60, 70)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        d = Design(3, 3)
        with pytest.raises(DomainError):
            rejection_rate(d, 19, np.full(6, 1.5), 100, RngStream(0))
        with pytest.raises(DomainError):
            rejection_rate(d, 19, np.zeros(6), 100, RngStream(0))
        with pytest.raises(ShapeError):
            rejection_rate(d, 19, np.ones(5), 100, RngStream(0))
        with pytest.raises(DomainError):
            rejection_rate(d, 0, np.ones(6), 100, RngStream(0))
        with pytest.raises(DomainError):
            rejection_rate(d, 21, np.ones(6), 100, RngStream(0))
        with pytest.raises(DomainError):
            rejection_rate(d, 19, np.ones(6), 0, RngStream(0))


# ===========================================================================
# exhaustive calibration
# ===========================================================================

class TestCalibrateExhaustive:
    def test_four_four_ten_near_table(self):
        e = calibrate_exhaustive(Design(4, 4), 0.10, CalibrationParams(seed=1))
        assert abs(e.order_index - 68) <= 1
        assert e.bar_alpha_exact == Fraction(70 - e.order_index, 70)
        assert e.source == "calibrated"
        assert e.diagnostics["n_assignments"] == 70

    def test_six_six_025_near_table(self):
        e = calibrate_exhaustive(Design(6, 6), 0.025, CalibrationParams(seed=1))
        assert abs(e.order_index - 921) <= 1
        assert e.bar_alpha_exact == Fraction(924 - e.order_index, 924)

    def test_homogeneous_restriction_recovers_unadjusted_level(self):
        # with all variances pinned at 1 the test is exchangeable, so the
        # usable level comes out within one order-statistic step of alpha
        params = CalibrationParams(R=150, S1=500, S2=4000, seed=3)
        e = calibrate_exhaustive(Design(4, 4), 0.10, params,
                                 variance_draws=np.ones((150, 8)))
        assert e.bar_alpha >= 0.10 - 1 / 70 - 1e-12
        assert e.diagnostics["restricted"] is True

    def test_infeasible_level(self):
        params = CalibrationParams(R=800, S1=400, S2=3000, seed=0)
        with pytest.raises(InfeasibleLevelError) as exc:
            calibrate_exhaustive(Design(3, 3), 0.10, params)
        assert exc.value.smallest_feasible == pytest.approx(0.171875)

    def test_requires_enumerable_design(self):
        with pytest.raises(CapacityError):
            calibrate_exhaustive(Design(7, 7), 0.05, _FAST)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            calibrate_exhaustive(Design(4, 4), 0.0, _FAST)

    def test_reproducible(self):
        a = calibrate_exhaustive(Design(4, 4), 0.10, _FAST)
        b = calibrate_exhaustive(Design(4, 4), 0.10, _FAST)
        assert a.order_index == b.order_index
        assert a.bar_alpha_exact == b.bar_alpha_exact
        assert a.diagnostics["worst_rate"] == b.diagnostics["worst_rate"]

    def test_soundness_of_returned_level(self):
        # re-scoring the worst retained patterns at the returned index
        # with fresh, larger simulations must stay at or below alpha
        d = Design(4, 4)
        e = calibrate_exhaustive(d, 0.10, CalibrationParams(seed=1))
        S = 100_000
        bound = 0.10 + 3 * math.sqrt(0.10 * 0.90 / S)
        tops = e.diagnostics["top_variances"][:10]
        for i, v in enumerate(tops):
            v = np.clip(v, 1e-12, 1.0)
            assert rejection_rate(d, e.order_index, v, S,
                                  RngStream(4000 + i)) <= bound

    def test_tightness_binding_recorded(self):
        e = calibrate_exhaustive(Design(4, 4), 0.10, CalibrationParams(seed=1))
        b = e.diagnostics["binding"]
        assert b is not None
        assert b["j"] == e.order_index - 1
        assert b["rate"] > 0.10

    def test_eta_relaxes_the_search(self):
        base = calibrate_exhaustive(Design(4, 4), 0.10, _FAST)
        relaxed_params = CalibrationParams(R=200, S1=200, S2=1000, seed=5,
                                           tolerance_eta=0.05)
        relaxed = calibrate_exhaustive(Design(4, 4), 0.10, relaxed_params)
        assert relaxed.order_index <= base.order_index


class TestTwoPassEngineMemory:
    def test_first_pass_scratch_stays_small(self):
        # 60 patterns of 1,000 draws at 6+5 hold 28 M statistics; counted
        # in cache-sized blocks they never need more than a few MB at once
        d = Design(6, 5)
        params = CalibrationParams(R=60, S1=1000, S2=2000, seed=3)
        variances = np.full((params.R, d.q), 0.5)
        w = weight_matrix(d)
        tracemalloc.start()
        try:
            engine = _TwoPassEngine(d, w, variances, params, RngStream(3))
            engine.worst_refined_rate(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert engine.c1.shape == (60, 1000)


# ===========================================================================
# sampled calibration
# ===========================================================================

class TestCalibrateSampled:
    def test_nine_nine_ten_near_table(self):
        e = calibrate_sampled(Design(9, 9), 0.10, CalibrationParams(seed=1))
        assert abs(e.bar_alpha - 0.0900) <= 0.005 + 1e-12
        assert e.diagnostics["method"] == "sampled"
        assert e.diagnostics["m"] == 1500

    def test_twelve_eight_05_near_table(self):
        e = calibrate_sampled(Design(12, 8), 0.05, CalibrationParams(seed=1))
        assert abs(e.bar_alpha - 0.0213) <= 0.005 + 1e-12

    def test_coarse_grid_within_resolution(self):
        small = CalibrationParams(R=300, S1=300, S2=1500, m=800, seed=7)
        coarse = CalibrationParams(R=300, S1=300, S2=1500, m=800, seed=7,
                                   epsilon=0.05)
        a = calibrate_sampled(Design(9, 9), 0.10, small)
        b = calibrate_sampled(Design(9, 9), 0.10, coarse)
        assert abs(a.bar_alpha - b.bar_alpha) <= 0.05 + 1e-12

    def test_requires_large_design(self):
        with pytest.raises(ContractError):
            calibrate_sampled(Design(4, 4), 0.10, _FAST)

    def test_reproducible(self):
        params = CalibrationParams(R=200, S1=200, S2=800, m=600, seed=9)
        a = calibrate_sampled(Design(9, 9), 0.10, params)
        b = calibrate_sampled(Design(9, 9), 0.10, params)
        assert a.bar_alpha_exact == b.bar_alpha_exact
        assert a.order_index == b.order_index

    def test_start_override_caps_result(self):
        params = CalibrationParams(R=200, S1=200, S2=800, m=600, seed=9)
        e = calibrate_sampled(Design(9, 9), 0.10, params, start=0.06)
        assert e.bar_alpha <= 0.06 + 1e-12

    def test_entry_indices_consistent(self):
        params = CalibrationParams(R=200, S1=200, S2=800, m=600, seed=9)
        e = calibrate_sampled(Design(9, 9), 0.10, params)
        n = Design(9, 9).n_assignments
        assert e.order_index == order_index_from_level(e.bar_alpha_exact, n)
        assert e.diagnostics["j_m"] == order_index_from_level(
            e.bar_alpha_exact, 600)

    def test_grid_points_are_exact(self):
        # returned level sits exactly on the start - k*epsilon grid
        params = CalibrationParams(R=200, S1=200, S2=800, m=600, seed=9)
        e = calibrate_sampled(Design(9, 9), 0.10, params)
        k = (Fraction(0.10) - e.bar_alpha_exact) / Fraction(0.005)
        assert k.denominator == 1 and k.numerator >= 0
