"""Tests for assignment enumeration, sampling, the array contract, the
weight matrix and the counting kernel.  Enumeration oracles come from
itertools.combinations."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from clusterperm import permkit
from clusterperm.errors import CapacityError, ContractError, DomainError, ShapeError
from clusterperm.permkit import (
    Design,
    IntegerSums,
    RngStream,
    SubsetSums,
    enumerate_assignments,
    check_assignments,
    count_at_or_above,
    relabeling_counts,
    sample_assignments,
    stream_generators,
    weight_matrix,
)
from clusterperm.permtest import AlphaEntry, ClusterEstimates, adjusted_test
from oracle import statistic_weights


def _all_assignments(design: Design) -> np.ndarray:
    """Oracle: the full collection, lexicographic, from itertools."""
    return np.array(list(itertools.combinations(range(design.q), design.q1)))


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
        # treated set: exactly the zero entries of its column
        w = weight_matrix(Design(2, 3), [[0, 1], [0, 2]])
        assert np.flatnonzero(w[:, 1] == 0).tolist() == [1, 3, 4]

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
        # design (2, 2) has no tabulated level, so supply one
        entry = AlphaEntry(q1=2, q0=2, alpha=0.5, bar_alpha_exact=0.5,
                           source="calibrated")
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
        assert enumerate_assignments(Design(1, 1)).tolist() == [[0], [1]]

    def test_two_one(self):
        assert enumerate_assignments(Design(2, 1)).tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_four_four_count(self):
        assert len(enumerate_assignments(Design(4, 4))) == 70

    def test_identity_first_lexicographic(self):
        out = enumerate_assignments(Design(3, 3))
        assert out[0].tolist() == [0, 1, 2]
        rows = [tuple(r) for r in out.tolist()]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("q1,q0", [(q1, q0) for q1 in range(1, 7)
                                       for q0 in range(1, 7)])
    def test_exhaustive_no_duplicates(self, q1, q0):
        d = Design(q1, q0)
        out = enumerate_assignments(d)
        assert np.array_equal(out, _all_assignments(d))
        assert len({tuple(r) for r in out.tolist()}) == d.n_assignments
        check_assignments(d, out)  # meets the array contract

    def test_every_design_up_to_q14(self):
        for q in range(2, 15):
            for q1 in range(1, q):
                d = Design(q1, q - q1)
                out = enumerate_assignments(d)
                assert out.dtype == np.intp
                assert np.array_equal(out, _all_assignments(d)), (q1, q - q1)

    def test_cap(self):
        # C(26, 13) = 10,400,600 is above the 10M enumeration cap
        with pytest.raises(CapacityError):
            enumerate_assignments(Design(13, 13))


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

    @pytest.mark.parametrize("seed,stream_id,subkey",
                             [(0, 0, ()), (7, 3, (1,)), (2**64 - 1, 11, (0, 5)),
                              (123, 2**63, (4, 0, 9))])
    def test_generator_state_matches_default_rng(self, seed, stream_id,
                                                 subkey):
        seq = np.random.SeedSequence(entropy=seed,
                                     spawn_key=(stream_id, *subkey))
        want = np.random.default_rng(seq).bit_generator.state
        got = RngStream(seed, stream_id, subkey).generator()
        assert got.bit_generator.state == want

    def test_validation(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(2**64)


class TestStreamGenerators:
    """stream_generators(seed, ids) against one
    RngStream(seed, id).generator() per id."""

    @staticmethod
    def _assert_matches(seed, ids):
        for stream_id, gen in zip(ids, stream_generators(seed, ids),
                                  strict=True):
            want = RngStream(seed, stream_id).generator()
            assert gen.bit_generator.state == want.bit_generator.state
            assert np.array_equal(gen.standard_normal(7),
                                  want.standard_normal(7))
            # 9 bounded draws take 9 half words: the stream ends with one
            # buffered, which the next stream must not see
            assert np.array_equal(gen.integers(0, 2, 9),
                                  want.integers(0, 2, 9))
            assert gen.bit_generator.state == want.bit_generator.state

    # the last run crosses 2^32, where an id takes two SeedSequence words
    # and opens its own generator
    @pytest.mark.parametrize("ids", [range(300), range(257, 520),
                                     range(2**32 - 3, 2**32 + 3)],
                             ids=["0-300", "257-520", "2^32"])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 3,
                                      2**64 - 1])
    def test_states_and_draws_match_rng_stream(self, seed, ids):
        self._assert_matches(seed, ids)

    def test_buffered_half_word_is_cleared(self):
        ids = range(6)
        for stream_id, gen in zip(ids, stream_generators(11, ids)):
            want = RngStream(11, stream_id).generator()
            assert gen.integers(0, 2) == want.integers(0, 2)
            assert gen.bit_generator.state["has_uint32"] == 1
            assert gen.bit_generator.state == want.bit_generator.state

    def test_passes_across_chunks_and_id_lists(self, monkeypatch):
        monkeypatch.setattr(permkit, "_STREAM_ROWS", 7)
        self._assert_matches(2**40 + 3, range(23))
        # unordered, repeated and fallback ids in one list
        self._assert_matches(5, [9, 2**63, 3, 9, 2**32, 0, 2**32 - 1])
        self._assert_matches(5, np.array([4, 2**64 - 1, 1], dtype=np.uint64))
        assert list(stream_generators(5, [])) == []

    def test_validation(self):
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(DomainError):
                stream_generators(seed, range(3))
        with pytest.raises(ShapeError):
            stream_generators(0, [[1, 2]])
        # an id outside [0, 2^64) is refused when its stream is opened
        for bad in ([-1], [2**64], [0.5]):
            with pytest.raises(DomainError):
                list(stream_generators(0, bad))


# ===========================================================================
# variance arithmetic
# ===========================================================================

class TestAssignmentVariance:
    def test_balanced_unit(self):
        w = statistic_weights(Design(2, 2))
        assert _relabeled_variance(w, [1, 1, 1, 1])[0] == pytest.approx(1.0)

    def test_one_one(self):
        w = statistic_weights(Design(1, 1))
        assert _relabeled_variance(w, [2, 3])[0] == pytest.approx(13.0)

    def test_balanced_invariant_to_assignment(self):
        d = Design(3, 3)
        sig = [0.3, 1.7, 2.2, 0.9, 5.0, 1.1]
        var = _relabeled_variance(statistic_weights(d), sig)
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
        var = _relabeled_variance(statistic_weights(d), sig)
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
        w = weight_matrix(d)
        assert set(np.unique(w).tolist()) == {0.0, 1.0}
        assert np.all(w.sum(axis=0) == d.q1)
        for i, combo in enumerate(itertools.combinations(range(5), 2)):
            assert np.flatnonzero(w[:, i]).tolist() == list(combo)
        # so x @ W is every treated sum, and the statistic oracle every
        # comparison of means
        x = np.array([5.0, -1.0, 2.0, 0.5, 3.0])
        sums, vals = x @ w, x @ statistic_weights(d)
        for i, combo in enumerate(itertools.combinations(range(5), 2)):
            mask = np.zeros(5, dtype=bool)
            mask[list(combo)] = True
            assert sums[i] == x[mask].sum()
            direct = x[mask].mean() - x[~mask].mean()
            assert vals[i] == pytest.approx(direct, abs=1e-12)

    def test_identity_column_zero(self):
        d = Design(4, 3)
        w = weight_matrix(d)
        assert np.all(w[:4, 0] == 1.0)
        assert np.all(w[4:, 0] == 0.0)

    def test_cap(self):
        # C(22, 11) * 22 = 15.5M entries, above the 10M cap
        with pytest.raises(CapacityError):
            weight_matrix(Design(11, 11))


class TestRelabelingCounts:
    def test_split_sums_agree_with_matmul_at_ten_ten(self, monkeypatch):
        # 10+10 is the largest symmetric design whose weight matrix fits
        # under the cap; lowering the cap sends the same rows to the
        # split-sum path
        d = Design(10, 10)
        gen = RngStream(31).generator()
        sig = gen.permuted(np.geomspace(0.1, 10.0, d.q))
        x = gen.standard_normal((2000, d.q)) * sig
        x[:, :d.q1] += gen.uniform(0.0, 3.0, (2000, 1))
        via_w = relabeling_counts(x, d)
        monkeypatch.setattr(permkit, "DEFAULT_ENUMERATION_CAP", 1 << 20)
        with pytest.raises(CapacityError):
            weight_matrix(d)
        via_sums = relabeling_counts(x, d)
        assert via_sums.dtype == np.int64
        np.testing.assert_array_equal(via_w, via_sums)
        assert via_w.min() < 100 and via_w.max() > d.n_assignments // 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tie_heavy_integers_match_brute_force(self, dtype):
        gen = RngStream(32).generator()
        cases = [(Design(q1, q - q1), gen.integers(-2, 3, size=(40, q)))
                 for q in range(2, 11) for q1 in range(1, q)]
        # float32 rows whose treated sums stay just below 2^24, so every
        # sum is exact though q * max(q1, q0) * max|x| is past 2^24
        for q1, q0 in ((3, 3), (4, 3), (5, 5), (6, 5)):
            top = 2**24 // (q1 + 1)
            cases.append((Design(q1, q0),
                          top - gen.integers(0, 3, size=(400, q1 + q0))))
        for d, x in cases:
            sums = x[:, _all_assignments(d)].sum(axis=-1)
            expected = (sums >= sums[:, :1]).sum(axis=-1)
            got = relabeling_counts(x.astype(dtype), d)
            np.testing.assert_array_equal(got, expected, err_msg=str(d))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_counts_do_not_depend_on_block_size(self, monkeypatch, dtype):
        d = Design(6, 5)
        w = weight_matrix(d)
        gen = RngStream(33).generator()
        x = (gen.standard_normal((7, 13, d.q)) * np.geomspace(0.2, 2.0, d.q)
             ).astype(dtype)
        one_shot = count_at_or_above(x @ w.astype(dtype))
        # 1 byte gives the floor of q = 11 rows; the others give 12 and
        # 17 rows; every one ends blocks inside a set of 13 rows.  Each
        # block is filled by matmuls of 1 row, of 5 rows (the last one
        # ends inside the block) or of the whole block
        row_macs = d.q * d.n_assignments
        for size in (1, 12 * d.n_assignments * x.itemsize,
                     17 * d.n_assignments * x.itemsize, 1 << 21):
            for macs in (1, 5 * row_macs, 1 << 19):
                monkeypatch.setattr(permkit, "_PRODUCT_BYTES", size)
                monkeypatch.setattr(permkit, "_BLOCK_MACS", macs)
                got = relabeling_counts(x, d)
                assert got.shape == (7, 13)
                np.testing.assert_array_equal(got, one_shot,
                                              err_msg=f"{size} {macs}")

    def test_explicit_collection_keeps_float32(self):
        d = Design(7, 6)
        draws = sample_assignments(d, 500, rng=RngStream(34))
        w32 = weight_matrix(d, draws).astype(np.float32)
        x = RngStream(35).generator().standard_normal((300, d.q),
                                                      dtype=np.float32)
        got = relabeling_counts(x, d, w32)
        np.testing.assert_array_equal(got, count_at_or_above(x @ w32))
        # 1 + 1e-9 rounds to 1 in float32, which ties the two relabelings
        x = np.array([1.0 + 1e-9, 1.0])
        assert relabeling_counts(x, Design(1, 1)) == 1
        assert relabeling_counts(x.astype(np.float32), Design(1, 1)) == 2

    def test_row_length_must_match_design(self):
        with pytest.raises(ShapeError):
            relabeling_counts(np.zeros((3, 5)), Design(3, 3))

    def test_integer_rows_above_the_cap_take_the_table(self):
        # 12+12 is above the weight-matrix cap: integer rows are counted
        # on the (size, sum) table, and every integer sum is exact in
        # the split-sum count too
        d = Design(12, 12)
        x = RngStream(36).generator().integers(0, 6, (4, d.q)).astype(float)
        got = relabeling_counts(x, d)
        for row, count in zip(x, got):
            for sums in (IntegerSums(d, row), SubsetSums(d, row)):
                assert count == sums.count_at_least(sums.identity)

    def test_integer_rows_past_forty_six_clusters(self):
        # the split-sum count stops at q = 46; the table does not
        d = Design(24, 24)
        x = RngStream(37).generator().integers(0, 6, (3, d.q)).astype(float)
        got = relabeling_counts(x, d)
        assert got.dtype == np.int64 and got.shape == (3,)
        for row, count in zip(x, got):
            sums = IntegerSums(d, row)
            assert count == sums.count_at_least(sums.identity)
        with pytest.raises(CapacityError):
            relabeling_counts(x + 0.5, d)
        # C(100, 50) > 2^63: the counts are Python ints
        d = Design(50, 50)
        row = RngStream(38).generator().integers(0, 6, d.q).astype(float)
        sums = IntegerSums(d, row)
        got = relabeling_counts(row[None], d)
        assert got.dtype == object and got[0] > 1 << 63
        assert got[0] == sums.count_at_least(sums.identity)
