"""End-to-end acceptance checks, one test per numbered criterion.

Each test is self-contained and prints a single pass/fail line under
``pytest -v``.  Reference values embedded here (the four-decimal
worst-case size grid, the study rejection-rate targets) are the fixed
targets the library must reproduce; tolerances sit next to the values
they guard.  The stochastic criteria pin their seeds so reruns are
bit-reproducible.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from clusterperm.calibrate import calibrate_exhaustive
from clusterperm.estimators import (
    ClusterDataset,
    EstimatorSpec,
    binary_choice_cluster_estimates,
    per_cluster_ols,
)
from clusterperm.permkit import Design, RngStream, sample_assignments, weight_matrix
from clusterperm.permtest import (
    ClusterEstimates,
    adjusted_test,
    lookup_bar_alpha,
    max_characterization,
    size_bound,
    tabulated_cells,
)
from clusterperm.power import PowerSpec, power_lower_bound
from clusterperm.simharness import (
    DidConfig,
    NormalLocationConfig,
    run_did_study,
    run_normal_location_study,
)

# =========================================================================
# reference values
# =========================================================================

# Worst-case size bound, rounded to four decimals, for every design with
# q1 >= q0 between 3 and 12 (55 entries; the bound is symmetric).
SIZE_BOUND_4DP = {
    (3, 3): "0.1719",
    (4, 3): "0.1484", (4, 4): "0.0898",
    (5, 3): "0.1367", (5, 4): "0.0762", (5, 5): "0.0459",
    (6, 3): "0.1309", (6, 4): "0.0693", (6, 5): "0.0386", (6, 6): "0.0232",
    (7, 3): "0.1279", (7, 4): "0.0659", (7, 5): "0.0349", (7, 6): "0.0194",
    (7, 7): "0.0117",
    (8, 3): "0.1265", (8, 4): "0.0642", (8, 5): "0.0331", (8, 6): "0.0175",
    (8, 7): "0.0097", (8, 8): "0.0058",
    (9, 3): "0.1257", (9, 4): "0.0634", (9, 5): "0.0322", (9, 6): "0.0166",
    (9, 7): "0.0088", (9, 8): "0.0049", (9, 9): "0.0029",
    (10, 3): "0.1254", (10, 4): "0.0629", (10, 5): "0.0317",
    (10, 6): "0.0161", (10, 7): "0.0083", (10, 8): "0.0044",
    (10, 9): "0.0024", (10, 10): "0.0015",
    (11, 3): "0.1252", (11, 4): "0.0627", (11, 5): "0.0315",
    (11, 6): "0.0159", (11, 7): "0.0081", (11, 8): "0.0041",
    (11, 9): "0.0022", (11, 10): "0.0012", (11, 11): "0.0007",
    (12, 3): "0.1251", (12, 4): "0.0626", (12, 5): "0.0314",
    (12, 6): "0.0157", (12, 7): "0.0079", (12, 8): "0.0040",
    (12, 9): "0.0021", (12, 10): "0.0011", (12, 11): "0.0006",
    (12, 12): "0.0004",
}

# Normal-location study targets at 20,000 replications (h = 1).
NORMAL_POWER_AT_2_5 = 0.5032    # adjusted permutation test, +/- 0.015
NORMAL_GROUP_T_AT_2_5 = 0.0721  # group t-test, +/- 0.010

# Panel study targets at 10,000 replications, h = 1 row.
DID_H1_TARGETS = {
    ("adjusted-permutation", 0.0): 0.0244,
    ("group-t", 0.0): 0.0086,
    ("pooled-cluster-t", 0.0): 0.0265,
    ("wild-cluster-bootstrap", 0.0): 0.0392,
    ("adjusted-permutation", 2.0): 0.5541,
    ("group-t", 2.0): 0.3142,
    ("pooled-cluster-t", 2.0): 0.5631,
    ("wild-cluster-bootstrap", 2.0): 0.6326,
}
DID_TOLERANCE = 0.015


def _stats_matrix(x: np.ndarray, design: Design) -> np.ndarray:
    """Relabeled comparison-of-means statistics, identity in column 0."""
    return x @ weight_matrix(design)


# =========================================================================
# criteria
# =========================================================================

def test_criterion_01_size_bound_reference_grid():
    start = time.perf_counter()
    assert len(SIZE_BOUND_4DP) == 55
    for (q1, q0), printed in SIZE_BOUND_4DP.items():
        assert f"{size_bound(q1, q0):.4f}" == printed, (q1, q0)
        assert f"{size_bound(q0, q1):.4f}" == printed, (q0, q1)  # symmetry
    assert time.perf_counter() - start < 1.0


def test_criterion_02_embedded_alpha_grid_consistency():
    start = time.perf_counter()
    cells = tabulated_cells()
    assert len(cells) == 145
    for alpha, q1, q0, printed in cells:
        entry = lookup_bar_alpha(q1, q0, alpha)
        n = math.comb(q1 + q0, q1)
        assert 1 <= entry.order_index <= n - 1, (alpha, q1, q0)
        if printed == "*":
            assert entry.order_index == n - 1, (alpha, q1, q0)
        else:
            implied = math.ceil((1 - Fraction(printed)) * n)
            assert entry.order_index == implied, (alpha, q1, q0)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_calibration_recovers_tabulated_indices():
    cells = [((4, 4), 0.10), ((5, 5), 0.05), ((6, 6), 0.025)]
    seeds = (1, 4, 17)
    for (q1, q0), alpha in cells:
        target = lookup_bar_alpha(q1, q0, alpha).order_index
        hits = 0
        for seed in seeds:
            entry = calibrate_exhaustive(Design(q1, q0), alpha,
                                         rng=RngStream(seed))
            hits += abs(entry.order_index - target) <= 1
        assert hits >= 2, f"({q1},{q0},{alpha}): {hits}/3 within one step"


def test_criterion_04_null_rejection_capped_under_adversarial_variances():
    design = Design(5, 5)
    entry = lookup_bar_alpha(5, 5, 0.05)
    n = design.n_assignments
    count_max = n - entry.order_index
    reps = 100_000
    ceiling = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / reps)
    w = weight_matrix(design)

    # twenty distinct variance patterns over {1e-4, 1}^10: the known hard
    # corners plus seeded random fill
    patterns = [
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 1, 0, 0, 0, 0),
        (1, 1, 1, 1, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    ]
    fill = RngStream(40, stream_id=1).generator()
    seen = set(patterns)
    while len(patterns) < 20:
        cand = tuple(int(b) for b in fill.integers(0, 2, size=10))
        if cand not in seen:
            seen.add(cand)
            patterns.append(cand)

    worst = 0.0
    for pid, mask in enumerate(patterns):
        sigmas = np.where(np.array(mask, dtype=bool), 1.0, 1e-4)
        gen = RngStream(40, stream_id=2, subkey=(pid,)).generator()
        rejections = 0
        block = 20_000
        first_block_decisions = None
        for lo in range(0, reps, block):
            x = gen.normal(size=(min(block, reps - lo), 10)) * sigmas
            counts = (x @ w >= (x @ w)[:, [0]]).sum(axis=1)
            decisions = counts <= count_max
            rejections += int(decisions.sum())
            if lo == 0:
                first_block_decisions = (x[:200], decisions[:200])
        rate = rejections / reps
        worst = max(worst, rate)
        assert rate <= ceiling, f"pattern {mask}: rate {rate:.4f}"
        if pid == 0:
            # tie the vectorized count rule back to the public test
            xs, decs = first_block_decisions
            for row, dec in zip(xs, decs):
                out = adjusted_test(ClusterEstimates(design, row), 0.05)
                assert (out.decision == "reject") == bool(dec)
    assert worst <= ceiling


def test_criterion_05_normal_location_study_rates():
    start = time.perf_counter()
    for h in range(1, 7):
        grid = (0.0, 2.5) if h == 1 else (0.0,)
        cfg = NormalLocationConfig(h=h, mu1_grid=grid,
                                   replications=20_000, seed=0)
        table = run_normal_location_study(cfg, workers=4)
        size = table.rate("adjusted-permutation", mu1=0.0)
        assert 0.015 <= size <= 0.055, f"h={h}: size {size:.4f}"
        if h == 1:
            power = table.rate("adjusted-permutation", mu1=2.5)
            group_t = table.rate("group-t", mu1=2.5)
            assert abs(power - NORMAL_POWER_AT_2_5) <= 0.015, power
            assert abs(group_t - NORMAL_GROUP_T_AT_2_5) <= 0.010, group_t
    assert time.perf_counter() - start <= 600.0


def test_criterion_06_did_study_rates():
    start = time.perf_counter()
    cfg = DidConfig(h_grid=(1, 7), delta_grid=(0.0, 2.0),
                    replications=10_000, seed=0)
    table = run_did_study(cfg, workers=4)
    for (method, delta), target in DID_H1_TARGETS.items():
        rate = table.rate(method, h=1, delta=delta)
        assert abs(rate - target) <= DID_TOLERANCE, (
            f"{method} at delta={delta}: {rate:.4f} vs {target:.4f}")
    # pooled cluster t over-rejects when 7 of 12 clusters are volatile
    assert table.rate("pooled-cluster-t", h=7, delta=0.0) > 0.06
    assert time.perf_counter() - start <= 1800.0


def test_criterion_07_power_bound_matches_monte_carlo():
    exchangeable = power_lower_bound(PowerSpec(0.0, (1.0,) * 4, (1.0,) * 4))
    assert abs(exchangeable - 1.0 / 70.0) <= 1e-6

    draws = 1_000_000
    block = 200_000
    for i in range(10):
        gen = RngStream(512, stream_id=i).generator()
        q1 = int(gen.integers(3, 7))
        q0 = int(gen.integers(3, 7))
        delta = float(gen.uniform(0.0, 2.0))
        sig_t = np.exp(gen.uniform(-1.5, 1.5, size=q1))
        sig_c = np.exp(gen.uniform(-1.5, 1.5, size=q0))
        bound = power_lower_bound(
            PowerSpec(delta, tuple(sig_t), tuple(sig_c)))
        hits = 0
        for _ in range(draws // block):
            treated = delta + gen.normal(size=(block, q1)) * sig_t
            control = gen.normal(size=(block, q0)) * sig_c
            hits += int((treated.min(axis=1) > control.max(axis=1)).sum())
        p_hat = hits / draws
        se = math.sqrt(p_hat * (1.0 - p_hat) / draws)
        assert abs(bound - p_hat) <= 3.0 * se, (
            f"spec {i}: bound {bound:.6f} vs MC {p_hat:.6f} (se {se:.2e})")


def test_criterion_08_duality_and_max_event_characterization():
    # --- p-value / critical-value duality on 20 tabulated levels ----------
    cells = [c for c in tabulated_cells() if c[3] != "*"]
    cells.sort(key=lambda c: (math.comb(c[1] + c[2], c[1]), c[0]))
    levels = cells[:20]
    assert len(levels) == 20
    for cid, (alpha, q1, q0, printed) in enumerate(levels):
        design = Design(q1, q0)
        entry = lookup_bar_alpha(q1, q0, alpha)
        n = design.n_assignments
        count_max = n - entry.order_index
        bar_alpha = Fraction(printed)
        gen = RngStream(256, stream_id=cid).generator()
        x = gen.normal(size=(10_000, q1 + q0))
        counts = (_stats_matrix(x, design)
                  >= _stats_matrix(x, design)[:, [0]]).sum(axis=1)
        for c in counts:
            reject_by_count = int(c) <= count_max
            reject_by_p = Fraction(int(c), n) <= bar_alpha
            assert reject_by_count == reject_by_p
        # the public entry point reports the same pair
        for row, c in zip(x[:10], counts[:10]):
            out = adjusted_test(ClusterEstimates(design, row), alpha)
            assert out.p_value_right == pytest.approx(int(c) / n, abs=1e-12)
            assert (out.decision == "reject") == (int(c) <= count_max)

    # --- strict-max event on 1e5 continuous vectors -----------------------
    design = Design(5, 4)
    gen = RngStream(257).generator()
    x = gen.normal(size=(100_000, 9)) * np.exp(
        gen.uniform(-2.0, 2.0, size=9))
    stats = _stats_matrix(x, design)
    is_strict_max = stats[:, 0] > stats[:, 1:].max(axis=1)
    for row, expected in zip(x, is_strict_max):
        assert max_characterization(ClusterEstimates(design, row)) == bool(
            expected)

    # --- exact-tie battery on dyadic weights ------------------------------
    tie_design = Design(4, 4)
    tie_gen = RngStream(258).generator()
    tie_rows = [np.array(r, dtype=float)
                for r in tie_gen.integers(-2, 3, size=(64, 8))]
    tie_rows += [np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=float),
                 np.array([2, 1, 1, 1, 0, 0, 0, 0], dtype=float),
                 np.zeros(8)]
    for row in tie_rows:
        stats = row @ weight_matrix(tie_design)
        expected = stats[0] > stats[1:].max()
        assert max_characterization(
            ClusterEstimates(tie_design, row)) == bool(expected)


def test_criterion_09_sampled_assignments_match_full_enumeration():
    design = Design(5, 5)
    entry = lookup_bar_alpha(5, 5, 0.05)
    n_full = design.n_assignments
    m = 10_000

    # heteroskedastic null draws: the regime the adjustment is built for
    sigmas = np.array([3.0, 1.5, 1.0, 1.0, 0.7, 2.5, 1.2, 1.0, 0.8, 0.6])
    gen = RngStream(909).generator()
    x = gen.normal(size=(10_000, 10)) * sigmas

    stats_full = _stats_matrix(x, design)
    counts_full = (stats_full >= stats_full[:, [0]]).sum(axis=1)
    freq_full = float(
        np.mean(counts_full <= n_full - entry.order_index_for(n_full)))

    assignments = sample_assignments(design, m,
                                     rng=RngStream(909, stream_id=1))
    w_m = weight_matrix(design, assignments=assignments)
    count_max_m = m - entry.order_index_for(m)
    rejections = 0
    block = 500
    for lo in range(0, x.shape[0], block):
        s = x[lo:lo + block] @ w_m
        rejections += int(((s >= s[:, [0]]).sum(axis=1) <= count_max_m).sum())
    freq_sampled = rejections / x.shape[0]

    assert abs(freq_full - freq_sampled) <= 0.01, (freq_full, freq_sampled)

    # spot-check the public sampled route against the block computation
    for row in x[:5]:
        out = adjusted_test(ClusterEstimates(design, row), 0.05,
                            assignments=assignments)
        s = row @ w_m
        assert (out.decision == "reject") == (
            int((s >= s[0]).sum()) <= count_max_m)
        assert out.assignment_source == f"sampled(m={m})"


def test_criterion_10_estimator_hand_oracles():
    # three points (0,0), (1,1), (2,1): normal equations give intercept
    # 1/6 and slope 1/2; re-centering the covariate at 1 moves the
    # intercept to 1/6 + 1/2 = 2/3, which pins the slope as well
    xs = np.array([0.0, 1.0, 2.0])
    ys = [0.0, 1.0, 1.0, 4.0, 4.0, 4.0]
    for shift, expected in ((0.0, 1.0 / 6.0), (1.0, 2.0 / 3.0)):
        ds = ClusterDataset(["t"] * 3 + ["c"] * 3, [1] * 3 + [0] * 3, ys,
                            covariates=np.tile(xs - shift, 2)[:, None])
        est = per_cluster_ols(ds, EstimatorSpec("intercept"))
        assert abs(est.values[0] - expected) <= 1e-10
        assert abs(est.values[1] - 4.0) <= 1e-10

    # binary outcomes with no covariates: the estimate is the link
    # inverse of the cluster success rate
    y = [1] * 7 + [0] * 3 + [1] * 5 + [0] * 5
    ds = ClusterDataset(["a"] * 10 + ["b"] * 10, [1] * 10 + [0] * 10, y)
    logit = binary_choice_cluster_estimates(
        ds, EstimatorSpec("binary-choice", link="logistic"))
    assert abs(logit.values[0] - math.log(7.0 / 3.0)) <= 1e-8
    assert abs(logit.values[1] - 0.0) <= 1e-8
    probit = binary_choice_cluster_estimates(
        ds, EstimatorSpec("binary-choice", link="probit"))
    assert abs(probit.values[0] - norm.ppf(0.7)) <= 1e-8
    assert abs(probit.values[1] - 0.0) <= 1e-8
