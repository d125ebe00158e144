"""Tests for assignment enumeration, sampling, the array contract, and
the weight matrix.  Enumeration oracles come from itertools.combinations."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from clusterperm.errors import CapacityError, ContractError, DomainError, ShapeError
from clusterperm.permkit import (
    Design,
    RngStream,
    assignment_blocks,
    check_assignments,
    sample_assignments,
    weight_matrix,
)
from clusterperm.permtest import AlphaEntry, ClusterEstimates, adjusted_test, p_value


def _all_assignments(design: Design) -> np.ndarray:
    """Oracle: the full collection, lexicographic, from itertools."""
    return np.array(list(itertools.combinations(range(design.q), design.q1)))


def _enumerated(design: Design) -> np.ndarray:
    return np.concatenate(list(assignment_blocks(design)))


def _relabeled_variance(w: np.ndarray, sigmas) -> np.ndarray:
    """Variance of each column's relabeled statistic under independent
    N(mu, sigma_k^2) entries: sigma^2 weighted by the squared weights."""
    return np.square(np.asarray(sigmas, dtype=float)) @ np.square(w)


# ===========================================================================
# Design / assignment array basics
# ===========================================================================

class TestDesign:
    def test_counts(self):
        d = Design(4, 4)
        assert d.q == 8
        assert d.n_assignments == 70

    def test_wide_integers(self):
        d = Design(32, 32)
        assert d.n_assignments == math.comb(64, 32)

    def test_validation(self):
        with pytest.raises(DomainError):
            Design(0, 4)
        with pytest.raises(DomainError):
            Design(4, -1)


class TestAssignment:
    def test_control_complement(self):
        # the control set of a relabeling is the complement of its
        # treated set: exactly the -1/q0 entries of its column
        w = weight_matrix(Design(2, 3), [[0, 1], [0, 2]])
        assert np.flatnonzero(w[:, 1] < 0).tolist() == [1, 3, 4]

    def test_must_increase(self):
        d = Design(2, 2)
        with pytest.raises(DomainError):
            check_assignments(d, [[0, 1], [1, 1]])
        with pytest.raises(DomainError):
            check_assignments(d, [[0, 1], [2, 0]])

    def test_identity(self):
        out = sample_assignments(Design(3, 2), 5, rng=RngStream(1))
        assert out[0].tolist() == [0, 1, 2]


class TestArrayContract:
    @pytest.mark.parametrize("bad,error", [
        ([[0, 1, 2], [0, 1, 3]], ShapeError),          # wrong width
        ([0, 1], ShapeError),                          # not two-dimensional
        (np.empty((0, 2), dtype=int), ShapeError),     # empty
        ([[0, 1], [-1, 2]], ShapeError),               # negative index
        ([[0, 1], [2, 4]], ShapeError),                # index >= q
        ([[0, 1], [2, 2]], DomainError),               # repeated index
        ([[0, 1], [3, 1]], DomainError),               # unsorted row
        ([[0.0, 1.0], [1.0, 2.0]], DomainError),       # not integers
        ([[1, 2], [0, 1]], ContractError),             # row 0 not the identity
    ])
    def test_malformed_arrays_raise(self, bad, error):
        d = Design(2, 2)
        with pytest.raises(error):
            check_assignments(d, bad)
        with pytest.raises(error):
            weight_matrix(d, bad)
        x = ClusterEstimates(d, [3.0, 1.0, 0.5, -1.0])
        with pytest.raises(error):
            p_value(x, bad)
        # design (2, 2) has no tabulated level, so supply one
        entry = AlphaEntry(q1=2, q0=2, alpha=0.5, bar_alpha=0.5,
                           order_index=3, source="calibrated")
        with pytest.raises(error):
            adjusted_test(x, alpha=0.5, assignments=bad, alpha_entry=entry)

    def test_duplicate_rows_allowed(self):
        a = check_assignments(Design(2, 2), [[0, 1], [2, 3], [2, 3]])
        assert a.shape == (3, 2) and a.dtype == np.intp


# ===========================================================================
# enumeration
# ===========================================================================

class TestEnumeration:
    def test_one_one(self):
        assert _enumerated(Design(1, 1)).tolist() == [[0], [1]]

    def test_two_one(self):
        assert _enumerated(Design(2, 1)).tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_four_four_count(self):
        assert len(_enumerated(Design(4, 4))) == 70

    def test_identity_first_lexicographic(self):
        out = _enumerated(Design(3, 3))
        assert out[0].tolist() == [0, 1, 2]
        rows = [tuple(r) for r in out.tolist()]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("q1,q0", [(q1, q0) for q1 in range(1, 7)
                                       for q0 in range(1, 7)])
    def test_exhaustive_no_duplicates(self, q1, q0):
        d = Design(q1, q0)
        out = _enumerated(d)
        assert np.array_equal(out, _all_assignments(d))
        assert len({tuple(r) for r in out.tolist()}) == d.n_assignments
        check_assignments(d, out)  # meets the array contract

    def test_cap(self):
        # C(26, 13) = 10,400,600 is above the 10M enumeration cap
        with pytest.raises(CapacityError):
            assignment_blocks(Design(13, 13))


# ===========================================================================
# sampling
# ===========================================================================

class TestSampling:
    def test_single_draw_identity(self):
        out = sample_assignments(Design(3, 2), 1, rng=RngStream(1))
        assert out.tolist() == [[0, 1, 2]]

    def test_draws_match_one_block(self):
        # sampling in row blocks must consume the stream exactly as one
        # (m, q) draw of uniform keys would
        d, m = Design(5, 4), 40_003
        keys = RngStream(9, 2).generator().random((m, d.q))
        oracle = np.sort(np.argpartition(keys, d.q1 - 1, axis=1)[:, :d.q1],
                         axis=1)
        oracle[0] = np.arange(d.q1)
        out = sample_assignments(d, m, rng=RngStream(9, 2))
        assert np.array_equal(out, oracle)

    def test_determinism(self):
        d = Design(4, 3)
        a = sample_assignments(d, 50, rng=RngStream(42, 7))
        b = sample_assignments(d, 50, rng=RngStream(42, 7))
        assert np.array_equal(a, b)
        c = sample_assignments(d, 50, rng=RngStream(42, 8))
        assert not np.array_equal(a, c)

    def test_uniformity_small(self):
        d = Design(2, 2)
        # row 0 is the identity put in place; the draws are the rest
        draws = sample_assignments(d, 10**5, rng=RngStream(123))[1:]
        freq = Counter(map(tuple, draws.tolist()))
        assert len(freq) == 6
        for count in freq.values():
            assert count / len(draws) == pytest.approx(1 / 6, abs=0.01)

    def test_uniformity_chi_square(self):
        # q = 8 clusters: chi-square on all C(8,4)=70 cells at m = 1e5
        d = Design(4, 4)
        m = 10**5
        draws = sample_assignments(d, m, rng=RngStream(7))[1:]
        freq = Counter(map(tuple, draws.tolist()))
        n_cells = d.n_assignments
        expected = len(draws) / n_cells
        chi2 = sum((freq.get(c, 0) - expected) ** 2 / expected
                   for c in itertools.combinations(range(8), 4))
        crit = stats.chi2.ppf(0.999, df=n_cells - 1)
        assert chi2 < crit

    def test_all_elements_valid(self):
        d = Design(3, 4)
        out = sample_assignments(d, 500, rng=RngStream(5))
        assert out.shape == (500, 3)
        assert out.min() >= 0 and out.max() <= 6
        check_assignments(d, out)  # sorted rows, identity first

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_assignments(Design(2, 2), 0, rng=RngStream(1))
        with pytest.raises(DomainError):
            sample_assignments(Design(2, 2), 10, rng=None)


class TestRngStream:
    def test_reproducible(self):
        g1 = RngStream(99, 3).generator()
        g2 = RngStream(99, 3).generator()
        assert np.array_equal(g1.standard_normal(8), g2.standard_normal(8))

    def test_derived_substreams_differ(self):
        s = RngStream(99)
        a = s.derived(1).generator().standard_normal(4)
        b = s.derived(2).generator().standard_normal(4)
        assert not np.array_equal(a, b)

    def test_derived_nests_and_reproduces(self):
        s = RngStream(99)
        a = s.derived(1, 2).generator().standard_normal(4)
        b = s.derived(1).derived(2).generator().standard_normal(4)
        assert np.array_equal(a, b)
        # a derived stream never replays its parent
        c = s.generator().standard_normal(4)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(2**64)


# ===========================================================================
# variance arithmetic
# ===========================================================================

class TestAssignmentVariance:
    def test_balanced_unit(self):
        w = weight_matrix(Design(2, 2))
        assert _relabeled_variance(w, [1, 1, 1, 1])[0] == pytest.approx(1.0)

    def test_one_one(self):
        w = weight_matrix(Design(1, 1))
        assert _relabeled_variance(w, [2, 3])[0] == pytest.approx(13.0)

    def test_balanced_invariant_to_assignment(self):
        d = Design(3, 3)
        sig = [0.3, 1.7, 2.2, 0.9, 5.0, 1.1]
        var = _relabeled_variance(weight_matrix(d), sig)
        assert np.allclose(var, var[0])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            weight_matrix(Design(2, 2), [[0, 1], [1, 8]])

    @given(
        q1=st.integers(1, 5), q0=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_variance_ratio_bound(self, q1, q0, seed):
        # relabeling changes the statistic's variance by at most the
        # squared group-imbalance ratio in either direction
        d = Design(q1, q0)
        gen = np.random.default_rng(seed)
        sig = gen.uniform(0.05, 20.0, size=d.q)
        var = _relabeled_variance(weight_matrix(d), sig)
        ratio = var[gen.integers(var.size)] / var[0]
        lo = min(q1 / q0, q0 / q1) ** 2
        hi = max(q1 / q0, q0 / q1) ** 2
        assert lo - 1e-12 <= ratio <= hi + 1e-12


# ===========================================================================
# weight matrix
# ===========================================================================

class TestWeightMatrix:
    def test_matches_assignment_objects(self):
        d = Design(3, 2)
        full = weight_matrix(d)
        via_array = weight_matrix(d, _all_assignments(d))
        assert np.array_equal(full, via_array)

    def test_columns_encode_statistic(self):
        d = Design(2, 3)
        x = np.array([5.0, -1.0, 2.0, 0.5, 3.0])
        w = weight_matrix(d)
        vals = x @ w
        for i, combo in enumerate(itertools.combinations(range(5), 2)):
            mask = np.zeros(5, dtype=bool)
            mask[list(combo)] = True
            direct = x[mask].mean() - x[~mask].mean()
            assert vals[i] == pytest.approx(direct, abs=1e-12)

    def test_identity_column_zero(self):
        d = Design(4, 4)
        w = weight_matrix(d)
        assert np.all(w[:4, 0] == 0.25)
        assert np.all(w[4:, 0] == -0.25)

    def test_cap(self):
        # C(22, 11) * 22 = 15.5M entries, above the 10M cap
        with pytest.raises(CapacityError):
            weight_matrix(Design(11, 11))
