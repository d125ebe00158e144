"""Tests for the adjusted permutation test core.

Reference values come from brute-force enumeration oracles built inside
this file (direct iteration over treated subsets, recomputing the group
means from scratch), from an integer subset-sum count for designs too
large to list, from hand-evaluated ceiling arithmetic, and from the
printed worst-case size-bound table.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm import permtest
from clusterperm.errors import (
    CapacityError,
    ContractError,
    DegeneracyWarning,
    DomainError,
    InfeasibleLevelError,
)
from clusterperm.permkit import (
    Design,
    IntegerSums,
    RngStream,
    SubsetSums,
    enumerate_assignments,
    enumeration_sums,
    sample_assignments,
)
from clusterperm.permtest import (
    AlphaEntry,
    ClusterEstimates,
    adjusted_test,
    lookup_bar_alpha,
    order_index_from_level,
    size_bound,
)
from oracle import statistic_weights


def _brute_force_values(x: np.ndarray, q1: int) -> list[float]:
    """Oracle: statistic under every treated subset, computed from scratch."""
    q = x.size
    out = []
    for combo in itertools.combinations(range(q), q1):
        mask = np.zeros(q, dtype=bool)
        mask[list(combo)] = True
        out.append(float(np.mean(x[mask]) - np.mean(x[~mask])))
    return out


def _tabulated_cells() -> list[tuple[float, int, int, str]]:
    """Every nonblank cell of the embedded table as (alpha, q1, q0,
    printed string)."""
    return [(float(key), q1, q0, printed)
            for key, cells in permtest._BAR_ALPHA_TABLE.items()
            for (q1, q0), printed in cells.items()]


def _max_event(x: ClusterEstimates) -> bool:
    """Every treated entry strictly exceeds every control entry."""
    q1 = x.design.q1
    return float(x.values[:q1].min()) > float(x.values[q1:].max())


def _estimates(values, q1: int) -> ClusterEstimates:
    values = np.asarray(values, dtype=float)
    return ClusterEstimates(Design(q1, values.size - q1), values)


def _all_assignments(design: Design) -> np.ndarray:
    """Oracle: the full collection as an (N, q1) array, identity first."""
    return np.array(list(itertools.combinations(range(design.q), design.q1)))


def _sorted_values(x: ClusterEstimates, assignments=None) -> np.ndarray:
    """The sorted permutation distribution, via the statistic oracle."""
    return np.sort(x.values @ statistic_weights(x.design, assignments))


def _critical_value(sorted_values: np.ndarray, p: float) -> float:
    """The ceil((1-p)*n)-th smallest value of the distribution."""
    j = order_index_from_level(p, sorted_values.size)
    return float(sorted_values[j - 1])


def _subset_sum_counts(values: list[int], q1: int) -> dict[int, int]:
    """Oracle: the number of q1-subsets of integer `values` with each
    exact sum, counted with Python ints."""
    by_size = [{} for _ in range(q1 + 1)]
    by_size[0][0] = 1
    for v in values:
        for k in range(q1, 0, -1):
            for s, c in by_size[k - 1].items():
                by_size[k][s + v] = by_size[k].get(s + v, 0) + c
    return by_size[q1]


# ===========================================================================
# statistic
# ===========================================================================

def _comparison_of_means(x: ClusterEstimates) -> float:
    """Oracle: the mean of the treated entries minus the mean of the
    control entries, computed as the definition reads."""
    q1 = x.design.q1
    return float(x.values[:q1].mean() - x.values[q1:].mean())


def _engine_statistic(x: ClusterEstimates) -> float:
    """The observed statistic as the full-enumeration engine forms it."""
    return permtest._relabelings(x.values, x.design, None).statistic


class TestComparisonOfMeans:
    def test_balanced(self):
        x = _estimates([1, 1, 0, 0], 2)
        assert _engine_statistic(x) == pytest.approx(1.0)
        assert _comparison_of_means(x) == pytest.approx(1.0)

    def test_unbalanced(self):
        x = _estimates([3, 1, 2], 1)
        assert _engine_statistic(x) == pytest.approx(1.5)
        assert _comparison_of_means(x) == pytest.approx(1.5)

    def test_constant_is_zero(self):
        x = _estimates([7.3] * 6, 2)
        assert _engine_statistic(x) == pytest.approx(0.0)
        assert _comparison_of_means(x) == pytest.approx(0.0)


# ===========================================================================
# permutation distribution / critical values / p-values
# ===========================================================================

class TestPermutationDistribution:
    def test_three_point(self):
        vals = _sorted_values(_estimates([2, 1, 0], 1))
        assert np.allclose(vals, [-1.5, 0.0, 1.5])

    def test_constant(self):
        vals = _sorted_values(_estimates([4.2] * 5, 2))
        assert np.allclose(vals, 0.0, atol=1e-12)

    def test_matches_brute_force(self):
        gen = np.random.default_rng(3)
        for q1, q0 in [(1, 3), (2, 2), (3, 2), (4, 4)]:
            x = gen.normal(size=q1 + q0)
            vals = _sorted_values(_estimates(x, q1))
            oracle = sorted(_brute_force_values(x, q1))
            assert np.allclose(vals, oracle, atol=1e-12)

    def test_balanced_negation_antisymmetry(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=8)
        d_pos = _sorted_values(_estimates(x, 4))
        d_neg = _sorted_values(_estimates(-x, 4))
        assert np.allclose(d_neg, -d_pos[::-1])

    def test_explicit_assignments_match_enumeration(self):
        x = np.array([0.3, -1.2, 0.8, 2.2, -0.5])
        d = Design(2, 3)
        full = _sorted_values(ClusterEstimates(d, x))
        via = _sorted_values(ClusterEstimates(d, x), _all_assignments(d))
        assert np.array_equal(full, via)


class TestCriticalValue:
    def setup_method(self):
        self.dist = _sorted_values(_estimates([2, 1, 0], 1))

    def test_level_010(self):
        # ceil(0.9 * 3) = 3 -> third smallest
        assert _critical_value(self.dist, 0.10) == pytest.approx(1.5)

    def test_level_040(self):
        # ceil(0.6 * 3) = 2 -> second smallest
        assert _critical_value(self.dist, 0.40) == pytest.approx(0.0)

    def test_tiny_level_gives_max(self):
        assert _critical_value(self.dist, 1e-9) == pytest.approx(1.5)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            _critical_value(self.dist, 0.0)
        with pytest.raises(DomainError):
            _critical_value(self.dist, 1.0)

    def test_monotone_nonincreasing_in_p(self):
        gen = np.random.default_rng(11)
        dist = _sorted_values(_estimates(gen.normal(size=8), 4))
        levels = np.linspace(0.01, 0.99, 57)
        crits = [_critical_value(dist, float(p)) for p in levels]
        assert all(a >= b for a, b in zip(crits, crits[1:]))


class TestOrderIndexFromLevel:
    def test_exact_boundaries(self):
        # levels that are exact multiples of 1/n must not drift
        assert order_index_from_level(Fraction(3, 70), 70) == 67
        assert order_index_from_level(Fraction(1, 70), 70) == 69
        assert order_index_from_level(Fraction(4, 924), 924) == 920

    def test_float_levels(self):
        assert order_index_from_level(0.10, 3) == 3
        assert order_index_from_level(0.40, 3) == 2
        assert order_index_from_level(0.0428, 70) == 68


def p_value(x: ClusterEstimates, assignments=None) -> float:
    """The adjusted test's right-tail p-value, at bar_alpha = 1/2, whose
    order index lies in [1, n-1] for every collection size n >= 2."""
    entry = AlphaEntry(q1=x.design.q1, q0=x.design.q0, alpha=0.5,
                       bar_alpha_exact=0.5, source="calibrated")
    return adjusted_test(x, 0.5, assignments=assignments,
                         alpha_entry=entry).p_value_right


class TestPValue:
    def test_observed_max(self):
        assert p_value(_estimates([2, 1, 0], 1)) == pytest.approx(1 / 3)

    def test_constant(self):
        with pytest.warns(DegeneracyWarning):
            assert p_value(_estimates([5.5] * 4, 2)) == pytest.approx(1.0)

    def test_observed_min(self):
        assert p_value(_estimates([0, 1, 2], 1)) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        gen = np.random.default_rng(5)
        for _ in range(25):
            q1, q0 = int(gen.integers(1, 4)), int(gen.integers(1, 4))
            x = gen.normal(size=q1 + q0)
            est = _estimates(x, q1)
            oracle_vals = _brute_force_values(x, q1)
            t = float(np.mean(x[:q1]) - np.mean(x[q1:]))
            oracle = np.mean([v >= t - 1e-12 for v in oracle_vals])
            assert p_value(est) == pytest.approx(oracle, abs=1e-9)

    def test_at_least_one_over_n(self):
        gen = np.random.default_rng(6)
        for _ in range(50):
            x = gen.normal(size=7)
            est = _estimates(x, 3)
            assert p_value(est) >= 1 / math.comb(7, 3) - 1e-15

    def test_identity_required(self):
        d = Design(2, 2)
        draws = _all_assignments(d)[1:]  # every assignment but identity
        x = ClusterEstimates(d, [3.0, 1.0, 0.5, -1.0])
        with pytest.raises(ContractError):
            p_value(x, draws)

    def test_enumeration_cap(self):
        # 13+13 has C(26, 13) = 10,400,600 relabelings, above the 10M cap
        # of a listed enumeration; the full count handles it exactly
        x = np.random.default_rng(13).integers(0, 5, 26)
        counts = _subset_sum_counts(x.tolist(), 13)
        oracle = sum(c for s, c in counts.items() if s >= x[:13].sum())
        assert p_value(ClusterEstimates(Design(13, 13), x)) == \
            oracle / math.comb(26, 13)
        # 24+24 needs 2^24 split subset sums per half, above the cap, so
        # non-integer data cannot be counted ...
        with pytest.raises(CapacityError):
            p_value(ClusterEstimates(Design(24, 24), np.arange(48.0) + 0.5))
        # ... while integer data is counted on its (size, sum) table
        x = np.arange(48.0)
        counts = _subset_sum_counts(list(range(48)), 24)
        oracle = sum(c for s, c in counts.items() if s >= x[:24].sum())
        assert p_value(ClusterEstimates(Design(24, 24), x)) == \
            oracle / math.comb(48, 24)


# ===========================================================================
# size bound
# ===========================================================================

class TestSizeBound:
    def test_printed_anchors(self):
        assert size_bound(3, 3) == pytest.approx(0.171875, abs=1e-12)
        assert size_bound(4, 4) == pytest.approx(0.08984375, abs=1e-12)
        assert size_bound(5, 3) == pytest.approx(0.13671875, abs=1e-12)

    def test_closed_form(self):
        for q1 in range(1, 13):
            for q0 in range(1, 13):
                expected = (0.5 ** min(q1, q0) + 0.5 ** (max(q1, q0) + 1)
                            - 0.5 ** (q1 + q0))
                assert size_bound(q1, q0) == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self):
        for q1 in range(1, 13):
            for q0 in range(1, 13):
                assert size_bound(q1, q0) == size_bound(q0, q1)

    def test_validation(self):
        with pytest.raises(DomainError):
            size_bound(0, 4)


# ===========================================================================
# embedded table
# ===========================================================================

class TestLookupBarAlpha:
    def test_four_four_ten(self):
        e = lookup_bar_alpha(4, 4, 0.10)
        assert e.bar_alpha == pytest.approx(0.0428)
        assert e.order_index == 68  # ceil(0.9572 * 70)
        assert e.source == "tabulated" and not e.starred

    def test_five_five_05(self):
        e = lookup_bar_alpha(5, 5, 0.05)
        assert e.bar_alpha == pytest.approx(0.0158)
        assert e.order_index == 249  # ceil(0.9842 * 252)

    def test_starred_cell(self):
        e = lookup_bar_alpha(8, 8, 0.005)
        n = math.comb(16, 8)
        assert e.starred
        assert e.order_index == n - 1 == 12869
        assert e.bar_alpha == pytest.approx(1 / n)

    def test_transposed_design(self):
        e = lookup_bar_alpha(4, 5, 0.10)
        assert e.bar_alpha == pytest.approx(0.0317)  # the (5,4) cell
        assert e.q1 == 4 and e.q0 == 5
        assert e.order_index == order_index_from_level(Fraction("0.0317"),
                                                       math.comb(9, 4))

    def test_infeasible_small_design(self):
        with pytest.raises(InfeasibleLevelError) as exc:
            lookup_bar_alpha(3, 3, 0.10)
        assert exc.value.smallest_feasible == pytest.approx(0.171875)

    def test_absent_cell(self):
        with pytest.raises(InfeasibleLevelError) as exc:
            lookup_bar_alpha(4, 4, 0.05)
        assert exc.value.smallest_feasible == pytest.approx(size_bound(4, 4))

    def test_untabulated_level(self):
        with pytest.raises(InfeasibleLevelError):
            lookup_bar_alpha(6, 6, 0.07)

    def test_every_cell_consistent(self):
        # 1 <= j <= N-1 everywhere; stars pin N-1; ceiling reproduces j
        cells = _tabulated_cells()
        assert len(cells) == 145
        for alpha, q1, q0, printed in cells:
            e = lookup_bar_alpha(q1, q0, alpha)
            n = Design(q1, q0).n_assignments
            assert 1 <= e.order_index <= n - 1
            if printed == "*":
                assert e.order_index == n - 1
            else:
                assert e.order_index == math.ceil((1 - Fraction(printed)) * n)

    def test_alpha_entry_validation(self):
        # order_index is derived from bar_alpha and must lie in [1, N-1];
        # bar_alpha = 0.05 at N = 6 gives j = ceil(0.95 * 6) = N, a test
        # that can never reject
        for q, bar in ((4, 0.001), (2, 0.05)):
            with pytest.raises(DomainError):
                AlphaEntry(q1=q, q0=q, alpha=0.5, bar_alpha_exact=bar,
                           source="calibrated")
        e = AlphaEntry(q1=2, q0=2, alpha=0.5, bar_alpha_exact=0.5,
                       source="calibrated")
        assert e.order_index == 3 == e.to_json_dict()["order_index"]

    def test_alpha_entry_levels_must_agree(self):
        # the decision follows bar_alpha_exact and the record bar_alpha;
        # the entry stores only the first, so they cannot differ
        with pytest.raises(TypeError):
            AlphaEntry(q1=4, q0=4, alpha=0.1, bar_alpha=0.05, source="x",
                       bar_alpha_exact=Fraction(1, 10))
        e = AlphaEntry(q1=4, q0=4, alpha=0.1, bar_alpha_exact=0.1, source="x")
        assert e.bar_alpha_exact == Fraction(0.1)
        assert e.bar_alpha == 0.1 == e.to_json_dict()["bar_alpha"]
        assert e.order_index == 63


# ===========================================================================
# adjusted test
# ===========================================================================

class TestAdjustedTest:
    def test_alpha_entry_of_another_design_is_refused(self):
        # the 4+4 level at .10 once ran a 6+6 test without a word
        est = ClusterEstimates(Design(6, 6), np.arange(12.0)[::-1])
        with pytest.raises(ContractError, match="q1=4, q0=4"):
            adjusted_test(est, 0.05, alpha_entry=lookup_bar_alpha(4, 4, 0.10))
        own = adjusted_test(est, 0.05,
                            alpha_entry=lookup_bar_alpha(6, 6, 0.05))
        assert own == adjusted_test(est, 0.05)

    def test_constant_estimates_retain(self):
        est = _estimates([2.0] * 8, 4)
        with pytest.warns(DegeneracyWarning):
            out = adjusted_test(est, alpha=0.10)
        assert out.decision == "retain"
        assert out.p_value_right == 1.0

    def test_separated_groups_reject(self):
        est = _estimates([10, 11, 12, 13, 0, 1, 2, 3], 4)
        out = adjusted_test(est, alpha=0.10, side="right")
        assert out.decision == "reject"
        assert out.p_value_right == pytest.approx(1 / 70)
        assert out.statistic == pytest.approx(10.0)
        # oracle: the statistic is the unique maximum over all 70 subsets
        oracle = _brute_force_values(np.array(est.values), 4)
        assert sum(v >= 10.0 - 1e-12 for v in oracle) == 1

    def test_affine_invariance(self):
        x = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, 6.0])
        base = adjusted_test(_estimates(x, 4), alpha=0.10)
        moved = adjusted_test(_estimates(2.0 * x + 7.0, 4), alpha=0.10)
        assert base.decision == moved.decision
        assert base.p_value_right == moved.p_value_right
        assert base.p_value_left == moved.p_value_left

    def test_left_side_is_right_on_negated(self):
        gen = np.random.default_rng(21)
        for _ in range(30):
            x = gen.normal(size=9)
            left = adjusted_test(_estimates(x, 4), alpha=0.10, side="left")
            right = adjusted_test(_estimates(-x, 4), alpha=0.10, side="right")
            assert left.decision == right.decision
            assert left.p_value_left == right.p_value_right

    def test_two_sided_uses_half_level(self):
        est = _estimates([10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5], 6)
        out = adjusted_test(est, alpha=0.05, side="two-sided")
        # the alpha/2 = .025 adjustment at (6,6) is .0043
        assert out.bar_alpha_used == pytest.approx(0.0043)
        assert out.decision == "reject"
        assert out.p_value_two_sided == pytest.approx(2 / 924)

    def test_two_sided_decision_matches_either_side(self):
        gen = np.random.default_rng(22)
        for _ in range(20):
            x = gen.normal(size=12)
            est = _estimates(x, 6)
            two = adjusted_test(est, alpha=0.05, side="two-sided")
            r = adjusted_test(est, alpha=0.025, side="right")
            l = adjusted_test(est, alpha=0.025, side="left")
            expect = "reject" if "reject" in (r.decision, l.decision) else "retain"
            assert two.decision == expect

    def test_lambda_shift(self):
        # treated exceed controls by exactly 5: the shifted null is degenerate
        est = _estimates([5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0], 4)
        with pytest.warns(DegeneracyWarning):
            out = adjusted_test(est, alpha=0.10, lam=5.0)
        assert out.decision == "retain"
        assert out.lam == 5.0
        # and without the shift the same data reject
        assert adjusted_test(est, alpha=0.10).decision == "reject"

    def test_overflowing_sums_rejected(self):
        with pytest.raises(DomainError):
            _estimates([1e308, -1e308] * 4, 4)
        est = _estimates(range(8), 4)
        with pytest.raises(DomainError):
            adjusted_test(est, alpha=0.10, lam=1e308)
        # q * max|x| just below the largest double is fine
        top = np.finfo(float).max / 8
        assert adjusted_test(_estimates([top, -top] * 4, 4),
                             alpha=0.10).decision == "retain"

    def test_decision_equals_pvalue_rule(self):
        # rejection iff the exact rational p-value is <= bar_alpha
        gen = np.random.default_rng(23)
        e = lookup_bar_alpha(4, 4, 0.10)
        n = 70
        for _ in range(200):
            x = gen.normal(size=8)
            out = adjusted_test(_estimates(x, 4), alpha=0.10)
            exact_p = Fraction(int(round(out.p_value_right * n)), n)
            assert (out.decision == "reject") == (exact_p <= e.bar_alpha_exact)

    def test_decision_equals_critical_value_rule(self):
        gen = np.random.default_rng(24)
        for _ in range(200):
            x = gen.normal(size=8)
            out = adjusted_test(_estimates(x, 4), alpha=0.10)
            assert (out.decision == "reject") == (out.statistic > out.critical_value)

    def test_sampled_assignments(self):
        d = Design(6, 6)
        x = np.concatenate([np.arange(6) + 10.0, np.arange(6)])
        draws = sample_assignments(d, 2000, rng=RngStream(77))
        out = adjusted_test(ClusterEstimates(d, x), alpha=0.05,
                            assignments=draws)
        assert out.n_assignments == 2000
        assert out.assignment_source == "sampled(m=2000)"
        assert out.decision == "reject"

    def test_sampled_values_do_not_depend_on_block_size(self,
                                                         monkeypatch):
        # 8,195 draws end value blocks of 4,096 rows and of 7 rows inside
        # the collection; tied data makes the counts sensitive to any
        # change in a row's sum
        d = Design(7, 6)
        x = np.array([0.1, 0.7, 0.2, 0.1, 0.3, 0.6, 0.2,
                      0.3, 0.1, 0.7, 0.2, 0.6, 0.1])
        draws = sample_assignments(d, 8_195, rng=RngStream(12))
        outcomes = []
        for rows in (7, 4_096, 1 << 20):
            monkeypatch.setattr(permtest, "_VALUE_ROWS", rows)
            outcomes.append([adjusted_test(ClusterEstimates(d, x), alpha=a,
                                           side=side, assignments=draws)
                             for a in (0.05, 0.10)
                             for side in ("right", "left", "two-sided")])
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_sampled_peak_memory(self):
        # one gather of all 100,000 draws held a 9.6 MB (m, q1) array
        d = Design(12, 12)
        x = RngStream(4).generator().standard_normal(24)
        draws = sample_assignments(d, 100_000, rng=RngStream(5))
        tracemalloc.start()
        try:
            adjusted_test(ClusterEstimates(d, x), alpha=0.05,
                          assignments=draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.8 MB in value blocks of 4,096 rows; 10.4 MB in one gather
        assert peak < 3e6

    def test_sample_of_size_n_is_labelled_sampled(self):
        # 70 draws with repeats from the 70 assignments of 4+4 are a
        # sample, not the full enumeration, on both the regular and the
        # degenerate-data path
        d = Design(4, 4)
        draws = sample_assignments(d, 70, rng=RngStream(1))
        out = adjusted_test(ClusterEstimates(d, np.arange(8.0)[::-1]),
                            alpha=0.10, assignments=draws)
        assert out.n_assignments == 70
        assert out.assignment_source == "sampled(m=70)"
        with pytest.warns(DegeneracyWarning):
            flat = adjusted_test(ClusterEstimates(d, np.ones(8)), alpha=0.10,
                                 assignments=draws)
        assert flat.assignment_source == "sampled(m=70)"

    def test_sampled_without_identity_rejected(self):
        d = Design(4, 4)
        draws = _all_assignments(d)[1:51]  # identity dropped
        x = np.arange(8.0)
        with pytest.raises(ContractError):
            adjusted_test(ClusterEstimates(d, x), alpha=0.10, assignments=draws)

    def test_infeasible_level_raised_before_work(self):
        est = _estimates(np.arange(6.0), 3)
        with pytest.raises(InfeasibleLevelError):
            adjusted_test(est, alpha=0.10)

    def test_json_round_trip(self):
        out = adjusted_test(_estimates(np.arange(8.0)[::-1], 4), alpha=0.10)
        d = out.to_json_dict()
        assert d["method"] == "adjusted-permutation"
        assert d["n_assignments"] == 70
        assert d["decision"] in ("reject", "retain")
        assert d["bar_alpha"] == pytest.approx(0.0428)


class TestExplicitFullEnumeration:
    """The full collection passed as an explicit (N, q1) array must give
    exactly what assignments=None gives, on data where ties abound; only
    the source label differs, since an explicit array is always the
    sampled engine."""

    @pytest.mark.parametrize("q1,q0", [(q1, q0) for q1 in range(1, 7)
                                       for q0 in range(1, 7)])
    def test_tie_heavy_integers(self, q1, q0):
        d = Design(q1, q0)
        n = d.n_assignments
        # bar_alpha = 1/2 gives an order index in [1, n-1] for every n >= 2
        entry = AlphaEntry(q1=q1, q0=q0, alpha=0.5, bar_alpha_exact=0.5,
                           source="calibrated")
        every = _all_assignments(d)
        gen = np.random.default_rng(100 * q1 + q0)
        for _ in range(4):
            x = gen.integers(-2, 3, size=d.q).astype(float)
            if np.all(x == x[0]):
                x[0] += 1.0  # keep the data off the degenerate path
            est = ClusterEstimates(d, x)
            for side in ("right", "left", "two-sided"):
                full = adjusted_test(est, alpha=0.5, side=side,
                                     alpha_entry=entry)
                via = adjusted_test(est, alpha=0.5, side=side,
                                    assignments=every, alpha_entry=entry)
                assert via.p_value_right == full.p_value_right
                assert via.p_value_left == full.p_value_left
                assert via.p_value_two_sided == full.p_value_two_sided
                assert via.decision == full.decision
                assert via.critical_value == full.critical_value
                assert via == dataclasses.replace(
                    full, assignment_source=f"sampled(m={n})")

    def test_distinct_sums_stay_distinct(self):
        # with q1 = 1 each treated sum is one entry, exact; these sit a
        # few ulps apart, so a statistic formed before comparing could
        # merge them.  Four of the five are <= the identity's entry
        d = Design(1, 4)
        x = [1.6000000000000005, 1.599999999999999, 1.5999999999999996,
             1.6000000000000005, 1.6000000000000008]
        entry = AlphaEntry(q1=1, q0=4, alpha=0.5, bar_alpha_exact=0.5,
                           source="calibrated")
        for assignments in (None, enumerate_assignments(d)):
            out = adjusted_test(ClusterEstimates(d, x), alpha=0.5,
                                side="left", assignments=assignments,
                                alpha_entry=entry)
            assert out.p_value_left == 0.8


class TestSplitSumCount:
    """The full enumeration is counted by split subset sums; these
    oracles never list an assignment."""

    @pytest.mark.parametrize("q1,q0,bar", [(13, 13, 0.05), (16, 16, 0.1)])
    def test_matches_integer_sum_oracle(self, q1, q0, bar):
        d = Design(q1, q0)
        n = d.n_assignments
        entry = AlphaEntry(q1=q1, q0=q0, alpha=2 * bar, bar_alpha_exact=bar,
                           source="calibrated")
        x = np.random.default_rng(q1).integers(0, 5, d.q)
        counts = _subset_sum_counts(x.tolist(), q1)
        s_id = int(x[:q1].sum())
        ge = sum(c for s, c in counts.items() if s >= s_id)
        le = sum(c for s, c in counts.items() if s <= s_id)
        ascending = sorted(counts)
        below = list(itertools.accumulate(counts[s] for s in ascending))

        def nth_smallest_sum(i):  # 1-based
            return ascending[next(k for k, c in enumerate(below) if c >= i)]

        coef = 1.0 / q1 + 1.0 / q0
        base = float(x.astype(float).sum()) / q0
        est = ClusterEstimates(d, x)
        assert p_value(est) == ge / n
        j = entry.order_index
        for side, i in (("right", j), ("left", n - j + 1), ("two-sided", j)):
            out = adjusted_test(est, alpha=2 * bar, side=side,
                                alpha_entry=entry)
            assert out.n_assignments == n
            assert out.p_value_right == ge / n
            assert out.p_value_left == le / n
            assert out.critical_value == coef * nth_smallest_sum(i) - base

    def test_every_tie_group_boundary(self):
        # at the first and the last index of each group of tied sums a
        # selection probe can count exactly j sums; 13+13 has more sums
        # than one listing step takes, so the probes run
        d = Design(13, 13)
        x = np.random.default_rng(26).integers(0, 5, d.q)
        counts = _subset_sum_counts(x.tolist(), 13)
        sums = SubsetSums(d, x)
        upto = 0
        for s in sorted(counts):
            assert sums.count_at_most(s) == upto + counts[s]
            assert sums.count_at_least(s) == d.n_assignments - upto
            for j in (upto + 1, upto + counts[s]):
                assert x[sums.subset_at(j)].sum() == s
            upto += counts[s]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_explicit_enumeration(self, data):
        # asymmetric designs up to q = 14 on two kinds of float data:
        # multiples of one power of two (every subset sum exact, so ties
        # are exact ties) and generic draws.  The two engines sum in
        # different orders, so data whose subset sums tie only in exact
        # arithmetic (decimals such as 0.1) may round apart in either.
        q1 = data.draw(st.integers(1, 13))
        q0 = data.draw(st.integers(1, 14 - q1).filter(lambda v: v != q1))
        d = Design(q1, q0)
        if data.draw(st.booleans()):
            k = data.draw(st.lists(st.integers(-8, 8), min_size=d.q,
                                   max_size=d.q))
            x = np.ldexp(np.array(k, dtype=float),
                         data.draw(st.integers(-30, 30)))
        else:
            gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            x = gen.standard_normal(d.q) * 10.0 ** gen.uniform(-3, 3)
        n = d.n_assignments
        bar = data.draw(st.sampled_from([0.5, 0.2, 0.05]))
        # a level that gives j = n takes the starred-cell convention
        # bar_alpha = 1/n, i.e. j = n - 1
        exact = (Fraction(bar) if order_index_from_level(bar, n) < n
                 else Fraction(1, n))
        entry = AlphaEntry(q1=q1, q0=q0, alpha=0.5, bar_alpha_exact=exact,
                           source="calibrated")
        est = ClusterEstimates(d, x)
        every = _all_assignments(d)
        for side in ("right", "left", "two-sided"):
            full = adjusted_test(est, alpha=0.5, side=side, alpha_entry=entry)
            via = adjusted_test(est, alpha=0.5, side=side, assignments=every,
                                alpha_entry=entry)
            assert via == dataclasses.replace(
                full, assignment_source=f"sampled(m={n})")


class TestIntegerSums:
    """Integer data is counted on a (size, sum) table; it must agree with
    split subset sums and with the integer subset-sum oracle."""

    @staticmethod
    def _oracle(x, q1, q0, entry, side):
        """(p right, p left, decision, critical value) from the integer
        subset-sum oracle."""
        n = math.comb(q1 + q0, q1)
        counts = _subset_sum_counts([int(v) for v in x], q1)
        s_id = int(sum(x[:q1]))
        ge = sum(c for s, c in counts.items() if s >= s_id)
        le = sum(c for s, c in counts.items() if s <= s_id)
        ascending = sorted(counts)
        below = list(itertools.accumulate(counts[s] for s in ascending))
        j = entry.order_index_for(n)
        i = n - j + 1 if side == "left" else j
        nth_sum = ascending[next(k for k, c in enumerate(below) if c >= i)]
        reject = {"right": ge <= n - j, "left": le <= n - j,
                  "two-sided": ge <= n - j or le <= n - j}[side]
        coef = 1.0 / q1 + 1.0 / q0
        base = float(sum(x)) / q0
        return (ge / n, le / n, "reject" if reject else "retain",
                coef * nth_sum - base)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_split_sums_and_oracle(self, data):
        q1 = data.draw(st.integers(1, 15))
        q0 = data.draw(st.integers(1, 16 - q1))
        d = Design(q1, q0)
        n = d.n_assignments
        # a narrow alphabet makes ties abound
        alphabet = data.draw(st.lists(st.integers(-8, 8), min_size=1,
                                      max_size=4, unique=True))
        x = np.array(data.draw(st.lists(st.sampled_from(alphabet),
                                        min_size=d.q, max_size=d.q)),
                     dtype=float)
        if np.all(x == x[0]):
            x[0] += 1.0  # keep the data off the degenerate path
        bar = data.draw(st.sampled_from([0.5, 0.2, 0.05]))
        exact = (Fraction(bar) if order_index_from_level(bar, n) < n
                 else Fraction(1, n))
        entry = AlphaEntry(q1=q1, q0=q0, alpha=0.5, bar_alpha_exact=exact,
                           source="calibrated")
        assert isinstance(enumeration_sums(d, x), IntegerSums)
        est = ClusterEstimates(d, x)
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shuffled = np.concatenate([gen.permutation(x[:q1]),
                                   gen.permutation(x[q1:])])
        for side in ("right", "left", "two-sided"):
            table = adjusted_test(est, alpha=0.5, side=side,
                                  alpha_entry=entry)
            with mock.patch.object(permtest, "enumeration_sums", SubsetSums):
                split = adjusted_test(est, alpha=0.5, side=side,
                                      alpha_entry=entry)
            assert table == split
            assert (table.p_value_right, table.p_value_left, table.decision,
                    table.critical_value) == self._oracle(x, q1, q0, entry,
                                                          side)
            # relabeling clusters within each group is the same data
            assert adjusted_test(ClusterEstimates(d, shuffled), alpha=0.5,
                                 side=side, alpha_entry=entry) == table

    def test_fifty_and_fifty(self):
        # C(100, 50) ~ 1e29 relabelings: split sums would need 2^50 sums
        # per half; the table holds 51 sizes by 251 sums
        d = Design(50, 50)
        x = np.random.default_rng(50).integers(0, 6, d.q).astype(float)
        entry = AlphaEntry(q1=50, q0=50, alpha=0.1, bar_alpha_exact=0.05,
                           source="calibrated")
        est = ClusterEstimates(d, x)
        for side in ("right", "left", "two-sided"):
            out = adjusted_test(est, alpha=0.1, side=side, alpha_entry=entry)
            assert out.n_assignments == math.comb(100, 50)
            assert (out.p_value_right, out.p_value_left, out.decision,
                    out.critical_value) == self._oracle(x, 50, 50, entry,
                                                        side)

    def test_non_integer_data_keeps_split_sums(self):
        d = Design(4, 4)
        assert isinstance(enumeration_sums(d, np.arange(8.0) + 0.5),
                          SubsetSums)
        # integers too wide for their table
        assert isinstance(enumeration_sums(d, np.arange(8.0) * 1e7),
                          SubsetSums)


# ===========================================================================
# max characterization
# ===========================================================================

class TestMaxCharacterization:
    def test_separated(self):
        assert _max_event(_estimates([2, 3, 0, 1], 2)) is True

    def test_interleaved(self):
        assert _max_event(_estimates([2, 0, 1, 3], 2)) is False

    def test_agrees_with_enumeration_predicate(self):
        gen = np.random.default_rng(31)
        d = Design(3, 4)
        w = statistic_weights(d)
        x = gen.normal(size=(2000, 7))
        vals = x @ w
        t_obs = vals[:, 0]
        is_strict_max = (vals > t_obs[:, None]).sum(axis=1) == 0
        # strict max including multiplicity: no other value ties the max
        ties = (vals == t_obs[:, None]).sum(axis=1) == 1
        predicate = is_strict_max & ties
        for i in range(x.shape[0]):
            est = ClusterEstimates(d, x[i])
            assert _max_event(est) == bool(predicate[i])


# ===========================================================================
# distributional properties
# ===========================================================================

class TestDistributionalProperties:
    def test_distinct_values_continuous_draws(self):
        # continuous data should essentially never produce tied values
        gen = np.random.default_rng(41)
        d = Design(3, 3)
        w = statistic_weights(d)
        x = gen.normal(size=(10_000, 6))
        vals = np.sort(x @ w, axis=1)
        gaps = np.diff(vals, axis=1)
        n_with_ties = int((gaps == 0.0).any(axis=1).sum())
        assert n_with_ties == 0

    def test_exchangeable_unadjusted_size_exact(self):
        # classical case: all variances equal, q1 = q0, unadjusted level
        # j/N rejects with probability exactly (N - j)/N
        gen = np.random.default_rng(42)
        d = Design(3, 3)
        n = d.n_assignments  # 20
        w = statistic_weights(d)
        S = 100_000
        x = gen.normal(size=(S, 6))
        vals = x @ w
        c = (vals >= vals[:, :1]).sum(axis=1)
        for j in (17, 19):
            rate = float((c <= n - j).mean())
            expect = (n - j) / n
            se = math.sqrt(expect * (1 - expect) / S)
            assert abs(rate - expect) <= 3 * se

    def test_adjusted_size_under_adversarial_variances(self):
        # spot version of the worst-case size property at (5,5), alpha=.05
        d = Design(5, 5)
        n = d.n_assignments  # 252
        entry = lookup_bar_alpha(5, 5, 0.05)
        k = n - entry.order_index
        w = statistic_weights(d)
        S = 100_000
        patterns = [
            (0.01, 0.01, 0.01, 0.01, 100.0, 0.01, 0.01, 0.01, 0.01, 0.01),
            (100.0, 0.01, 0.01, 0.01, 0.01, 100.0, 100.0, 0.01, 0.01, 0.01),
            (1.0, 1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.01, 0.01),
            (100.0, 100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0, 1.0),
            (0.01, 1.0, 100.0, 0.01, 1.0, 100.0, 0.01, 1.0, 100.0, 0.01),
        ]
        bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / S)
        for i, sig in enumerate(patterns):
            gen = np.random.default_rng(4300 + i)
            x = gen.normal(size=(S, 10)) * np.asarray(sig)
            c = ((x @ w) >= (x @ w[:, :1])).sum(axis=1)
            rate = float((c <= k).mean())
            assert rate <= bound, f"pattern {i}: rate {rate:.4f} above {bound:.4f}"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pvalue_critical_duality_property(self, seed):
        gen = np.random.default_rng(seed)
        q1 = int(gen.integers(2, 5))
        q0 = int(gen.integers(2, 5))
        x = gen.normal(size=q1 + q0)
        est = ClusterEstimates(Design(q1, q0), x)
        vals = x @ statistic_weights(est.design)
        dist = np.sort(vals)
        # the identity's value in the distribution's own arithmetic, so
        # the comparison against its own order statistic is exact
        t = vals[0]
        pv = p_value(est)
        n = dist.size
        for p in (0.01, 0.05, 0.13, 0.25, 0.5, 0.77, 0.94):
            lhs = t > _critical_value(dist, p)
            rhs = Fraction(int(round(pv * n)), n) <= Fraction(p)
            assert lhs == rhs
