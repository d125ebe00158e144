"""Relabeling machinery for the cluster permutation test.

An assignment relabels which q1 of the q clusters count as treated.
Because the comparison-of-means statistic ignores order within each
group, an assignment is its sorted treated index subset.

Array contract: a collection of m assignments is one (m, q1) integer
array whose rows hold 0-based, strictly increasing treated indices in
[0, q), with the identity arange(q1) in row 0.  Rows may repeat (a
sample is drawn with replacement).  `check_assignments` enforces the
contract; `assignment_blocks` yields the full collection in
lexicographic order, identity first; `count_at_or_above` is the test's
tie rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError, ContractError, DomainError, ShapeError

DEFAULT_ENUMERATION_CAP = 10_000_000
_BLOCK_ROWS = 1 << 18  # assignments per enumeration block
_SAMPLE_ROWS = 1 << 14  # draws per sampling block


def positive_int(name: str, value) -> int:
    """value as an int; DomainError unless it is a positive integer."""
    try:
        ok = not isinstance(value, bool) and int(value) == value and value >= 1
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


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
    each get their own independent stream.
    """

    seed: int
    stream_id: int = 0
    subkey: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if isinstance(v, bool) or int(v) != v or not (0 <= int(v) < 2**64):
                raise DomainError(f"{name} must be an integer in [0, 2^64), got {v!r}")
            object.__setattr__(self, name, int(v))
        sk = tuple(self.subkey)
        for v in sk:
            if isinstance(v, bool) or int(v) != v or not (0 <= int(v) < 2**64):
                raise DomainError(f"subkey entries must be integers in [0, 2^64), got {v!r}")
        object.__setattr__(self, "subkey", tuple(int(v) for v in sk))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(self.stream_id, *self.subkey))
        return np.random.default_rng(seq)

    def derived(self, *key: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.subkey + key)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"rng must be an RngStream or numpy Generator, got {rng!r}")


def assignment_blocks(design: Design) -> Iterator[np.ndarray]:
    """All C(q, q1) assignments in lexicographic order, identity first,
    as consecutive (k, q1) index blocks, so a caller never has to hold
    the whole collection at once."""
    n = design.n_assignments
    if n > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"full enumeration needs {n} assignments, above the cap of "
            f"{DEFAULT_ENUMERATION_CAP}; pass sampled assignments instead")
    combos = itertools.combinations(range(design.q), design.q1)

    def blocks():
        while chunk := list(itertools.islice(combos, _BLOCK_ROWS)):
            yield np.asarray(chunk, dtype=np.intp)
    return blocks()


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


def sample_assignments(design: Design, m: int, include_identity: bool = True,
                       rng: RngStream | None = None) -> np.ndarray:
    """m iid uniform draws from the assignment collection, with
    replacement, as an (m, q1) array.

    When include_identity is set, row 0 is replaced by the identity so
    the sample meets the array contract and p-values computed from it
    stay bounded away from zero.
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
    if include_identity:
        idx[0] = np.arange(design.q1)
    return idx


def weight_matrix(design: Design, assignments=None) -> np.ndarray:
    """Column-per-assignment weight matrix W of shape (q, m).

    Column i holds +1/q1 on that assignment's treated indices and -1/q0
    elsewhere, so a data matrix X of row vectors maps to all relabeled
    statistics at once via X @ W.  With assignments=None the full
    lexicographic enumeration is used (identity in column 0).
    """
    if assignments is None:
        n = design.n_assignments
        if n * design.q > DEFAULT_ENUMERATION_CAP:
            raise CapacityError(
                f"weight matrix would hold {n * design.q} entries, above the "
                f"cap of {DEFAULT_ENUMERATION_CAP}")
        idx = np.concatenate(list(assignment_blocks(design)))
    else:
        idx = check_assignments(design, assignments)
    w = np.full((design.q, len(idx)), -1.0 / design.q0)
    w[idx.T, np.arange(len(idx))] = 1.0 / design.q1
    return w
