"""Tests for the adjusted permutation test core.

Reference values come from brute-force enumeration oracles built inside
this file (direct iteration over treated subsets, recomputing the group
means from scratch), from hand-evaluated ceiling arithmetic, and from
the printed worst-case size-bound table.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm.errors import (
    CapacityError,
    ContractError,
    DegeneracyWarning,
    DomainError,
    InfeasibleLevelError,
)
from clusterperm.permkit import (
    Design,
    RngStream,
    sample_assignments,
    weight_matrix,
)
from clusterperm.permtest import (
    AlphaEntry,
    ClusterEstimates,
    adjusted_test,
    comparison_of_means,
    lookup_bar_alpha,
    max_characterization,
    order_index_from_level,
    p_value,
    size_bound,
    tabulated_cells,
)


def _brute_force_values(x: np.ndarray, q1: int) -> list[float]:
    """Oracle: statistic under every treated subset, computed from scratch."""
    q = x.size
    out = []
    for combo in itertools.combinations(range(q), q1):
        mask = np.zeros(q, dtype=bool)
        mask[list(combo)] = True
        out.append(float(np.mean(x[mask]) - np.mean(x[~mask])))
    return out


def _estimates(values, q1: int) -> ClusterEstimates:
    values = np.asarray(values, dtype=float)
    return ClusterEstimates(Design(q1, values.size - q1), values)


def _all_assignments(design: Design) -> np.ndarray:
    """Oracle: the full collection as an (N, q1) array, identity first."""
    return np.array(list(itertools.combinations(range(design.q), design.q1)))


def _sorted_values(x: ClusterEstimates, assignments=None) -> np.ndarray:
    """The sorted permutation distribution, via the weight matrix."""
    return np.sort(x.values @ weight_matrix(x.design, assignments))


def _critical_value(sorted_values: np.ndarray, p: float) -> float:
    """The ceil((1-p)*n)-th smallest value of the distribution."""
    j = order_index_from_level(p, sorted_values.size)
    return float(sorted_values[j - 1])


# ===========================================================================
# statistic
# ===========================================================================

class TestComparisonOfMeans:
    def test_balanced(self):
        assert comparison_of_means(_estimates([1, 1, 0, 0], 2)) == pytest.approx(1.0)

    def test_unbalanced(self):
        assert comparison_of_means(_estimates([3, 1, 2], 1)) == pytest.approx(1.5)

    def test_constant_is_zero(self):
        assert comparison_of_means(_estimates([7.3] * 6, 2)) == pytest.approx(0.0)


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


class TestPValue:
    def test_observed_max(self):
        assert p_value(_estimates([2, 1, 0], 1)) == pytest.approx(1 / 3)

    def test_constant(self):
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
        # C(26, 13) = 10,400,600 relabelings, above the 10M cap
        x = ClusterEstimates(Design(13, 13), np.arange(26.0))
        with pytest.raises(CapacityError):
            p_value(x)


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
        cells = tabulated_cells()
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
        with pytest.raises(DomainError):
            AlphaEntry(q1=4, q0=4, alpha=0.1, bar_alpha=0.001, order_index=70,
                       source="calibrated")


# ===========================================================================
# adjusted test
# ===========================================================================

class TestAdjustedTest:
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
        entry = AlphaEntry(q1=q1, q0=q0, alpha=0.5, bar_alpha=0.5,
                           order_index=order_index_from_level(0.5, n),
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


# ===========================================================================
# max characterization
# ===========================================================================

class TestMaxCharacterization:
    def test_separated(self):
        assert max_characterization(_estimates([2, 3, 0, 1], 2)) is True

    def test_interleaved(self):
        assert max_characterization(_estimates([2, 0, 1, 3], 2)) is False

    def test_agrees_with_enumeration_predicate(self):
        gen = np.random.default_rng(31)
        d = Design(3, 4)
        w = weight_matrix(d)
        x = gen.normal(size=(2000, 7))
        vals = x @ w
        t_obs = vals[:, 0]
        is_strict_max = (vals > t_obs[:, None]).sum(axis=1) == 0
        # strict max including multiplicity: no other value ties the max
        ties = (vals == t_obs[:, None]).sum(axis=1) == 1
        predicate = is_strict_max & ties
        for i in range(x.shape[0]):
            est = ClusterEstimates(d, x[i])
            assert max_characterization(est) == bool(predicate[i])


# ===========================================================================
# distributional properties
# ===========================================================================

class TestDistributionalProperties:
    def test_distinct_values_continuous_draws(self):
        # continuous data should essentially never produce tied values
        gen = np.random.default_rng(41)
        d = Design(3, 3)
        w = weight_matrix(d)
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
        w = weight_matrix(d)
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
        w = weight_matrix(d)
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
        vals = x @ weight_matrix(est.design)
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
