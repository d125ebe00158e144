"""Relabeling machinery for the cluster permutation test.

An assignment relabels which q1 of the q clusters count as treated.
Because the comparison-of-means statistic ignores order within each
group, an assignment is its sorted treated index subset.

Array contract: a collection of m assignments is one (m, q1) integer
array whose rows hold 0-based, strictly increasing treated indices in
[0, q), with the identity arange(q1) in row 0.  Rows may repeat (a
sample is drawn with replacement).  `check_assignments` enforces the
contract; `enumerate_assignments` lists the full collection in
lexicographic order, identity first; `count_at_or_above` is the test's
tie rule on an explicit collection.  `SubsetSums` counts and selects
over the full collection of one data vector without listing it;
`IntegerSums` does the same for integer data by a dynamic program, and
`enumeration_sums` picks between the two.
`relabeling_counts` is the one counting kernel for many data rows at
once: the treated sums x @ W of a 0/1 indicator matrix W in cache-sized
row blocks, or `enumeration_sums` per row when the full enumeration's
matrix is above the cap.  Every engine compares treated-entry sums,
which order the relabelings as the statistic does.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractError, DomainError, ShapeError

DEFAULT_ENUMERATION_CAP = 10_000_000
_SAMPLE_ROWS = 1 << 12  # draws per sampling block
_COUNT_ROWS = 1 << 16  # left sums per split-sum counting chunk
_PROBE_SAMPLE = 1 << 12  # sums sampled to place a selection probe
_PRODUCT_BYTES = 1 << 19  # bytes of x @ W per counting block, per thread
# multiply-adds per matmul call that fills a counting block: OpenBLAS
# runs a GEMM this small on the calling thread (it spreads one over its
# own threads from about 1e6), so threads that count in parallel do not
# contend for its pool
_BLOCK_MACS = 1 << 19
# Largest magnitude of the locations, scales, slopes and effects of a
# study or a power bound: a draw times a product of two of them, squared
# and summed over a panel, stays far inside the float64 range, and so do
# a power bound's window and breakpoints.
_MAX_MAGNITUDE = 1e50


def positive_int(name: str, value, least: int = 1) -> int:
    """value as an int; DomainError unless it is an integer >= least
    (a positive integer by default)."""
    try:
        ok = (not isinstance(value, bool) and int(value) == value
              and value >= least)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        what = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return int(value)


def seed_int(name: str, value) -> int:
    """value as an int; DomainError unless it is an integer in [0, 2^64),
    one word of a numpy SeedSequence: the rule for every seed, stream id
    and subkey entry."""
    word = positive_int(name, value, least=0)
    if word >= 1 << 64:
        raise DomainError(f"{name} must be below 2^64, got {value!r}")
    return word


def _check_magnitudes(obj, names) -> None:
    """DomainError unless each named field of obj (a number or a tuple of
    numbers) is finite and at most _MAX_MAGNITUDE in magnitude."""
    for name in names:
        values = getattr(obj, name)
        for v in values if isinstance(values, tuple) else (values,):
            if not abs(v) <= _MAX_MAGNITUDE:
                raise DomainError(f"{name} must be finite and at most "
                                  f"{_MAX_MAGNITUDE:g} in magnitude, got {v!r}")


@dataclass(frozen=True)
class Design:
    """Cluster counts: q1 treated, q0 control."""

    q1: int
    q0: int

    def __post_init__(self) -> None:
        for name in ("q1", "q0"):
            object.__setattr__(self, name, positive_int(name, getattr(self, name)))

    @property
    def q(self) -> int:
        return self.q1 + self.q0

    @property
    def n_assignments(self) -> int:
        """C(q, q1), computed with exact integer arithmetic."""
        return math.comb(self.q, self.q1)


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream.

    Identical (seed, stream_id) pairs produce identical draw sequences;
    distinct ids give statistically independent streams.  ``derived``
    opens deterministic substreams keyed by extra integer indices, which
    is how replications, calibration draws, and bootstrap repetitions
    each get their own independent stream.  `stream_generators` opens
    the streams of many ids of one seed at once, with the same draws.
    """

    seed: int
    stream_id: int = 0
    subkey: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, seed_int(name, getattr(self, name)))
        object.__setattr__(self, "subkey", tuple(
            seed_int("subkey entry", v) for v in self.subkey))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(self.stream_id, *self.subkey))
        # what default_rng(seq) builds, without its argument dispatch
        return np.random.Generator(np.random.PCG64(seq))

    def derived(self, *key: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.subkey + key)


# numpy's SeedSequence hash (pool of 4 words) and PCG64's LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_STREAM_ROWS = 1 << 12  # streams seeded per vectorised pass


def _hash_pairs(const: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xored, multiplied) constant pairs of n successive SeedSequence
    hashes: the constant starts at `const` and is multiplied by `mult`
    (mod 2^32) before each product."""
    consts = [const]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return list(itertools.pairwise(consts))


# a spawned stream's entropy is the seed's words, zero-padded to the pool
# size 4, and one id word: 4 hashes fill the pool, 12 mix it pairwise and
# 4 mix in the id word.  generate_state(4, uint64) hashes 8 pool words.
_HASH_A = _hash_pairs(_INIT_A, _MULT_A, 20)
_HASH_B = _hash_pairs(_INIT_B, _MULT_B, 8)


def _hashmix(value, xored: int, mult: int):
    """SeedSequence's hashmix of value (an int or a uint32 array)."""
    value = (value ^ xored) * mult & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x: int, y):
    """SeedSequence's mix of pool word x and hashed word y (an int or a
    uint32 array)."""
    value = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _seed_pool(seed: int) -> list[int]:
    """The pool of SeedSequence(seed, spawn_key=(id,)) before the id word
    is mixed in, which is the same for every id."""
    hashes = iter(_HASH_A[:16])
    pool = [_hashmix(word, *next(hashes))
            for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(hashes)))
    return pool


def _pcg64_states(pool: list[int], ids: np.ndarray) -> list[dict]:
    """The PCG64 states seeded by SeedSequence(seed, spawn_key=(id,)) for
    one-word ids (a uint32 array), given the seed's pool, as the dicts
    numpy's state setter takes."""
    words = [_mix(p, _hashmix(ids, *h)) for p, h in zip(pool, _HASH_A[16:])]
    out = np.empty((len(ids), 8), dtype="<u4")
    for i, h in enumerate(_HASH_B):
        out[:, i] = _hashmix(words[i % 4], *h)
    # each uint64 is a little-endian pair of words; pcg64_set_seed reads
    # uint64s 0-1 as initstate and 2-3 as initseq, high half first
    w = out.view("<u8").astype(object)
    inc = ((w[:, 2] << 64 | w[:, 3]) << 1 | 1) & _MASK128
    # pcg64_set_seed: one LCG step from 0 gives inc, add initstate, step
    state = ((inc + (w[:, 0] << 64 | w[:, 1])) * _PCG_MULT + inc) & _MASK128
    return [{"bit_generator": "PCG64", "state": {"state": s, "inc": i},
             "has_uint32": 0, "uinteger": 0}
            for s, i in zip(state.tolist(), inc.tolist())]


def stream_generators(seed: int, ids):
    """For each id in order, a generator at the start of
    RngStream(seed, id): its draws are those of
    RngStream(seed, id).generator().

    One generator is reused and reset for every id, so the caller must
    finish a stream's draws before it asks for the next.  The PCG64
    states of ids below 2^32 are computed in vectorised passes, with the
    seed's part of the SeedSequence hash done once; any other id opens
    RngStream(seed, id).generator(), which also validates it.
    """
    seed = seed_int("seed", seed)
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ShapeError(f"ids must be one-dimensional, got shape {ids.shape}")
    return _reset_streams(seed, ids)


def _reset_streams(seed: int, ids: np.ndarray):
    """The body of stream_generators, after its checks."""
    pool = _seed_pool(seed)
    gen = np.random.Generator(np.random.PCG64(0))
    for lo in range(0, len(ids), _STREAM_ROWS):
        chunk = ids[lo:lo + _STREAM_ROWS]
        one_word = ((chunk >= 0) & (chunk <= _MASK32) if chunk.dtype.kind
                    in "iu" else np.zeros(len(chunk), dtype=bool))
        states = iter(_pcg64_states(pool, chunk[one_word].astype(np.uint32)))
        for stream_id, bulk in zip(chunk.tolist(), one_word.tolist()):
            if bulk:
                gen.bit_generator.state = next(states)
                yield gen
            else:
                yield RngStream(seed, stream_id).generator()


def enumerate_assignments(design: Design) -> np.ndarray:
    """All C(q, q1) assignments as one (N, q1) intp array in lexicographic
    order, identity first: the rows of `itertools.combinations`."""
    n = design.n_assignments
    if n > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"full enumeration needs {n} assignments, above the cap of "
            f"{DEFAULT_ENUMERATION_CAP}; pass sampled assignments instead")
    q, q1 = design.q, design.q1
    cells = itertools.chain.from_iterable(itertools.combinations(range(q), q1))
    return np.fromiter(cells, np.intp, count=n * q1).reshape(n, q1)


def check_assignments(design: Design, assignments) -> np.ndarray:
    """The collection as an (m, q1) intp array, or an error if it breaks
    the array contract (see the module docstring)."""
    a = np.asarray(assignments)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] != design.q1:
        raise ShapeError(f"assignments must be a nonempty (m, {design.q1}) "
                         f"array, got shape {a.shape}")
    if a.dtype.kind not in "iu":
        raise DomainError(f"assignments must be integers, got dtype {a.dtype}")
    if a.min() < 0 or a.max() >= design.q:
        raise ShapeError(f"treated indices must lie in [0, {design.q})")
    if np.any(a[:, 1:] <= a[:, :-1]):
        raise DomainError("treated indices must be strictly increasing in every row")
    if np.any(a[0] != np.arange(design.q1)):
        raise ContractError("row 0 of the assignments must be the identity "
                            f"arange({design.q1})")
    return a.astype(np.intp, copy=False)


def count_at_or_above(values: np.ndarray, dtype=None) -> np.ndarray:
    """The test's tie rule: along the last axis of `values`, which holds
    one statistic per assignment with the identity's first, the number
    of assignments whose statistic is >= the identity's.  The p-value is
    this count over the collection size, and the test at order index j
    rejects iff the count is at most size - j."""
    return (values >= values[..., :1]).sum(axis=-1, dtype=dtype)


def _half_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sums, sizes) of every subset of `values`, indexed by bitmask (bit
    i is entry i); each sum is taken in increasing index order."""
    sums = np.zeros(1 << len(values))
    sizes = np.zeros(1 << len(values), dtype=np.int8)
    for i, v in enumerate(values):
        sums[1 << i:2 << i] = sums[:1 << i] + v
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    return sums, sizes


def _key(v: float) -> int:
    """Integer key of a double, increasing with its value."""
    (u,) = struct.unpack("<Q", struct.pack("<d", v))
    return u if u < 1 << 63 else (1 << 63) - 1 - u


def _unkey(k: int) -> float:
    """The double whose _key is k."""
    u = k if k >= 0 else (1 << 63) - 1 - k
    return struct.unpack("<d", struct.pack("<Q", u))[0]


class SubsetSums:
    """The treated-entry sums of all C(q, q1) assignments of a vector x,
    counted without listing them (meet in the middle: Horowitz & Sahni
    1974, JACM 21(2)).

    The clusters split into [0, h) and [h, q) with h = q // 2.  Each
    half's subset sums are enumerated, each in index order.  An
    assignment with k treated clusters on the left is a pair of a left
    sum l of size k (a row) and a right sum r of size q1 - k, and its sum
    is fl(l + r).  Tie policy: every comparison is made on fl(l + r),
    the identity's sum included, so the counts are exact integers in
    that arithmetic.  fl(l + r) is monotone in r, so the pairs of a row
    below any threshold are a prefix of its right sums sorted by value,
    found by bisection.
    """

    def __init__(self, design: Design, x: np.ndarray):
        q, q1 = design.q, design.q1
        h = q // 2
        if 1 << (q - h) > DEFAULT_ENUMERATION_CAP:
            raise CapacityError(
                f"the split-sum count enumerates 2^{q - h} subset sums per "
                f"half at q={q}, above the cap of {DEFAULT_ENUMERATION_CAP}; "
                "pass sampled assignments instead")
        x = np.asarray(x, dtype=float)
        self._x = x
        left, lsize = _half_sums(x[:h])
        right, rsize = _half_sums(x[h:])
        self._h = h
        # right sums sorted by (size, value); position -> bitmask
        self._rmask = np.lexsort((right, rsize))
        self._r = right[self._rmask]
        per_size = np.bincount(rsize, minlength=q - h + 1)
        stop = np.cumsum(per_size)
        # rows: left sums with a right partner of size q1 - k in [0, q - h]
        self._lmask = np.flatnonzero((lsize <= q1) & (lsize >= q1 - (q - h)))
        self._l = left[self._lmask]
        part = q1 - lsize[self._lmask]
        # each row's partners are the right positions [lo, hi)
        self._hi = stop[part]
        self._lo = self._hi - per_size[part]
        self.identity = float(left[(1 << min(q1, h)) - 1]
                              + right[(1 << max(q1 - h, 0)) - 1])

    def _prefix(self, l, lo, hi, s: float, at_most: bool) -> np.ndarray:
        """Per row with left sum l, the end of the prefix of positions
        [lo, hi) whose pair sums are < s (<= s when at_most)."""
        out = np.empty_like(lo)
        for a in range(0, len(l), _COUNT_ROWS):
            part = slice(a, a + _COUNT_ROWS)
            pos, stop = lo[part], hi[part]
            for b in range(int((stop - pos).max()).bit_length() - 1, -1, -1):
                nxt = pos + (1 << b)
                tail = l[part] + self._r.take(nxt - 1, mode="clip")
                inside = (tail <= s) if at_most else (tail < s)
                pos = np.where(inside & (nxt <= stop), nxt, pos)
            out[part] = pos
        return out

    def count_at_least(self, s: float) -> int:
        """#{assignments with sum >= s}."""
        below = self._prefix(self._l, self._lo, self._hi, s, at_most=False)
        return int((self._hi - below).sum())

    def count_at_most(self, s: float) -> int:
        """#{assignments with sum <= s}."""
        upto = self._prefix(self._l, self._lo, self._hi, s, at_most=True)
        return int((upto - self._lo).sum())

    def _sums_at(self, l, lo, width, ranks):
        """(sums, rows, positions) at `ranks` of the sums of the position
        ranges [lo, lo + width) of rows with left sums l, laid out row
        after row."""
        end = np.cumsum(width)
        row = np.searchsorted(end, ranks, side="right")
        pos = lo[row] + ranks - (end[row] - width[row])
        return l[row] + self._r[pos], row, pos

    def subset_at(self, j: int) -> np.ndarray:
        """The sorted treated indices of an assignment whose sum is the
        j-th smallest (1-based).

        Selection keeps the sums that may hold the answer, a bracket
        [low, high] of attained sums, as per-row position ranges [lo, hi).
        Each pass counts the sums <= a probe in [low, high) and keeps the
        side holding the answer, until the bracket holds one value or at
        most _COUNT_ROWS sums, which are listed.  The probe is the
        answer's rank in an evenly spaced sample of the bracket, shifted
        to fall just below the answer on even passes and just above it on
        odd ones; after a pass that did not halve the bracket it is the
        midpoint of the ordered bit patterns of doubles from low to high
        instead, which bounds the passes whatever the data.
        """
        lmask, l, lo, hi = self._lmask, self._l, self._lo, self._hi
        high = float((l + self._r[hi - 1]).max())
        below = 0  # the number of sums below the bracket
        size_before = None
        for step in itertools.count():
            if not (open_ := lo < hi).all():
                lmask, l, lo, hi = lmask[open_], l[open_], lo[open_], hi[open_]
            width = hi - lo
            size = int(width.sum())
            low = float((l + self._r[lo]).min())
            if low == high or size <= _COUNT_ROWS:
                break
            probe = None
            if size_before is None or 2 * size <= size_before:
                ranks = np.linspace(0, size - 1, _PROBE_SAMPLE).astype(np.intp)
                sample = np.sort(self._sums_at(l, lo, width, ranks)[0])
                at = ((j - below - 1) * _PROBE_SAMPLE // size
                      + (_PROBE_SAMPLE // 64) * (1 if step % 2 else -1))
                probe = float(sample[min(max(at, 0), _PROBE_SAMPLE - 1)])
            if probe is None or not low <= probe < high:
                probe = _unkey((_key(low) + _key(high)) // 2)
            size_before = size
            upto = self._prefix(l, lo, hi, probe, at_most=True)
            count = below + int((upto - lo).sum())
            if count >= j:
                kept = upto > lo
                high = float((l[kept] + self._r[upto[kept] - 1]).max())
                hi = upto
            else:
                lo, below = upto, count
        if low == high:
            row, pos = 0, lo[0]
        else:  # the (j - below)-th smallest of the sums left
            sums, rows, at = self._sums_at(l, lo, width, np.arange(size))
            k = np.argpartition(sums, j - below - 1)[j - below - 1]
            row, pos = rows[k], at[k]
        left, right = int(lmask[row]), int(self._rmask[pos])
        return np.array([b for b in range(self._h) if left >> b & 1]
                        + [self._h + b for b in range(right.bit_length())
                           if right >> b & 1], dtype=np.intp)

    def sum_at(self, j: int) -> float:
        """The j-th smallest sum (1-based), summed over `subset_at(j)`."""
        return float(self._x[self.subset_at(j)].sum())


class IntegerSums:
    """The treated-entry sums of all C(q, q1) assignments of an integer
    vector x, counted by one dynamic program over (subset size, sum):
    Pagano & Tritchler 1983, JASA 78; Streitberg & Roehmel 1986.

    counts[k, s] is the number of k-subsets of the clusters seen so far
    whose sum is s + k * min(x).  Each cluster adds its shifted row to
    the next, one vector add, for the sizes k <= q1 that can still grow
    to q1; so every count is a term of Vandermonde's sum for C(q, q1) and
    int64 holds it while C(q, q1) < 2^63 (Python ints past that).  The
    caller ensures every sum of at most q1 entries is an integer below
    2^53 (see `enumeration_sums`), so the sums are exact in doubles and
    ties are exact.
    """

    def __init__(self, design: Design, x: np.ndarray):
        q, q1 = design.q, design.q1
        x = np.asarray(x, dtype=float)
        low = int(x.min())
        y = x.astype(np.int64) - low
        span = _table_span(x, q1)
        dtype = np.int64 if design.n_assignments < 1 << 63 else object
        counts = np.zeros((q1 + 1, span), dtype=dtype)
        counts[0, 0] = 1
        for i, v in enumerate(y.tolist()):
            lo, hi = max(1, q1 - (q - 1 - i)), min(i + 1, q1)
            counts[lo:hi + 1, v:] = (counts[lo:hi + 1, v:]
                                     + counts[lo - 1:hi, :span - v])
        self._n = design.n_assignments
        self._offset = q1 * low
        self._below = np.cumsum(counts[q1])  # [s]: sums <= s + offset
        self.identity = float(x[:q1].sum())

    def _count_upto(self, s: int) -> int:
        """#{assignments with sum <= s}, s an integer."""
        s -= self._offset
        if s < 0:
            return 0
        return int(self._below[min(s, len(self._below) - 1)])

    def count_at_least(self, s: float) -> int:
        """#{assignments with sum >= s}."""
        return self._n - self._count_upto(math.ceil(s) - 1)

    def count_at_most(self, s: float) -> int:
        """#{assignments with sum <= s}."""
        return self._count_upto(math.floor(s))

    def sum_at(self, j: int) -> float:
        """The j-th smallest sum (1-based)."""
        return float(int(np.searchsorted(self._below, j)) + self._offset)


def _table_span(x: np.ndarray, q1: int) -> int:
    """The columns of the IntegerSums table of x: one more than the
    largest sum of q1 entries of x - min(x)."""
    return int((np.sort(x)[len(x) - q1:] - x.min()).sum()) + 1


def enumeration_sums(design: Design, x) -> IntegerSums | SubsetSums:
    """The treated-entry sums of the full enumeration of x: `IntegerSums`
    when x holds integers whose every sum of at most q1 entries is exact
    in doubles and whose (q1 + 1) x span table fits under the cap, else
    `SubsetSums` (which raises CapacityError past q = 46)."""
    x = np.asarray(x, dtype=float)
    if (_exact_integers(x, design)
            and (design.q1 + 1) * _table_span(x, design.q1)
            <= DEFAULT_ENUMERATION_CAP):
        return IntegerSums(design, x)
    return SubsetSums(design, x)


def sample_assignments(design: Design, m: int,
                       rng: RngStream | None = None) -> np.ndarray:
    """m iid uniform draws from the assignment collection, with
    replacement, as an (m, q1) array.

    Row 0 is replaced by the identity, so the sample meets the array
    contract and p-values computed from it stay bounded away from zero.
    """
    m = positive_int("m", m)
    if rng is None:
        raise DomainError("sample_assignments requires an RngStream")
    gen = rng.generator()
    idx = np.empty((m, design.q1), dtype=np.intp)
    # rank q uniforms per draw; the q1 smallest form a uniform random
    # subset.  Row blocks consume the stream exactly as one (m, q) draw
    # would, with a fraction of its scratch memory.
    for lo in range(0, m, _SAMPLE_ROWS):
        keys = gen.random((min(_SAMPLE_ROWS, m - lo), design.q))
        part = np.argpartition(keys, design.q1 - 1, axis=1)[:, :design.q1]
        idx[lo:lo + len(keys)] = np.sort(part, axis=1)
    idx[0] = np.arange(design.q1)
    return idx


def weight_matrix(design: Design, assignments=None) -> np.ndarray:
    """Column-per-assignment 0/1 treated-indicator matrix W of shape (q, m).

    Column i holds 1.0 on that assignment's treated indices and 0.0
    elsewhere, so a data matrix X of row vectors maps to every treated-
    entry sum at once via X @ W.  With assignments=None the full
    lexicographic enumeration is used (identity in column 0).
    """
    if assignments is None:
        n = design.n_assignments
        if n * design.q > DEFAULT_ENUMERATION_CAP:
            raise CapacityError(
                f"weight matrix would hold {n * design.q} entries, above the "
                f"cap of {DEFAULT_ENUMERATION_CAP}")
        idx = enumerate_assignments(design)
    else:
        idx = check_assignments(design, assignments)
    w = np.zeros((design.q, len(idx)))
    w[idx.T, np.arange(len(idx))] = 1.0
    return w


@functools.lru_cache(maxsize=1)
def _enumeration_weights(design: Design) -> np.ndarray:
    """weight_matrix(design), built once per design and read-only."""
    w = weight_matrix(design)
    w.flags.writeable = False
    return w


def _exact_integers(x: np.ndarray, design: Design) -> bool:
    """Whether x holds integers small enough that every sum of at most
    q1 of them is an integer exact in doubles: q1 * max|x| < 2^53."""
    if not float(x.flat[0]).is_integer():  # the usual, quick answer
        return False
    return (design.q1 * float(np.abs(x).max()) < 2.0 ** 53
            and bool(np.all(x == np.rint(x))))


def count_dtype(m: int) -> type:
    """The integer dtype of `relabeling_counts` over a weight matrix of m
    columns: int16 while every count fits, else int64."""
    return np.int16 if m < 1 << 15 else np.int64


def relabeling_counts(x, design: Design, w: np.ndarray | None = None
                      ) -> np.ndarray:
    """For each row of x (shape (..., q)), the number of relabelings
    whose statistic is >= the identity's (`count_at_or_above`), as an
    array of shape x.shape[:-1].  The statistic is increasing in the
    treated-entry sum, so the sums are what is compared.

    w is the (q, m) 0/1 treated-indicator matrix of an explicit
    collection, identity in column 0; None means the full enumeration of
    the design.  float32 rows stay float32 (w is cast to their dtype);
    other rows are float64.  The treated sums x @ W are formed in row
    blocks of about _PRODUCT_BYTES, and of at least q rows, so that
    reading W costs no more than the block.  Integer rows are summed
    exactly, so tied relabelings stay tied, while q1 * max|x| <
    2^(nmant + 1) of their dtype.  When the full enumeration's matrix is
    above the cap, each row is counted by `enumeration_sums` instead:
    the (size, sum) table on integer rows, split subset sums otherwise.
    Counts past 2^63 are then Python ints.  Several threads may call it
    at once: each product block is its own, and is filled by matmuls of
    at most _BLOCK_MACS multiply-adds, which stay on the calling thread.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != design.q:
        raise ShapeError(f"rows must have {design.q} entries, got shape "
                         f"{x.shape}")
    rows = x.reshape(-1, design.q)
    n = design.n_assignments
    if w is None and n * design.q > DEFAULT_ENUMERATION_CAP:
        out = np.empty(len(rows), dtype=np.int64 if n < 1 << 63 else object)
        for i, row in enumerate(rows):
            sums = enumeration_sums(design, row)
            out[i] = sums.count_at_least(sums.identity)
        return out.reshape(x.shape[:-1])
    w = (_enumeration_weights(design) if w is None else w).astype(
        x.dtype, copy=False)
    m = w.shape[1]
    dtype = count_dtype(m)
    step = max(design.q, _PRODUCT_BYTES // (m * x.itemsize))
    sub = max(1, _BLOCK_MACS // (design.q * m))
    product = np.empty((min(step, len(rows)), m), dtype=x.dtype)
    out = np.empty(len(rows), dtype=dtype)
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        p = product[:len(block)]
        for s in range(0, len(block), sub):
            np.matmul(block[s:s + sub], w, out=p[s:s + sub])
        out[lo:lo + step] = count_at_or_above(p, dtype)
    return out.reshape(x.shape[:-1])
