"""The level-adjusted cluster permutation test.

The statistic is the comparison of group means of per-cluster estimates.
Because cluster variances may differ arbitrarily, comparing the statistic
to the usual 1-alpha permutation quantile can over-reject; the adjusted
test instead uses the permutation quantile at a smaller level bar_alpha,
chosen (per cluster counts and alpha) so that worst-case size stays at or
below alpha.  This module houses the statistic, p-values, the worst-case
size bound, the embedded bar_alpha table, and the end-to-end test
decision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegeneracyWarning,
    DomainError,
    InfeasibleLevelError,
    ShapeError,
)
from .permkit import (
    Design,
    check_assignments,
    count_at_or_above,
    enumeration_sums,
    positive_int,
)

_SIDES = ("right", "left", "two-sided")
_VALUE_ROWS = 1 << 12  # assignments per block of treated sums


def _check_sums_finite(x: np.ndarray, what: str) -> None:
    """DomainError unless q * max|x| is finite, which bounds every
    subset sum, so no relabeled statistic can overflow."""
    top = float(np.abs(x).max())
    if not math.isfinite(len(x) * top):
        raise DomainError(f"{what} reach {top:.17g} in magnitude, so their "
                          f"sums over q={len(x)} clusters overflow")


class ClusterEstimates:
    """Per-cluster estimate vector ordered treated-first.

    Entries 1..q1 belong to treated clusters, the rest to controls.
    Instances are immutable; the backing array is write-protected.
    """

    __slots__ = ("design", "values", "cluster_ids")

    def __init__(self, design: Design, values: Sequence[float],
                 cluster_ids: tuple[str, ...] | None = None):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ShapeError(f"values must be a vector, got shape {arr.shape}")
        if arr.size != design.q:
            raise ShapeError(
                f"expected {design.q} estimates for q1={design.q1}, q0={design.q0}; "
                f"got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("cluster estimates must all be finite")
        _check_sums_finite(arr, "cluster estimates")
        if cluster_ids is not None and len(cluster_ids) != design.q:
            raise ShapeError("cluster_ids length must match the cluster count")
        arr.flags.writeable = False
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "cluster_ids",
                           tuple(cluster_ids) if cluster_ids is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError("ClusterEstimates is immutable")

    def __repr__(self) -> str:
        return (f"ClusterEstimates(q1={self.design.q1}, q0={self.design.q0}, "
                f"values={self.values!r})")


def check_alpha(alpha: float) -> None:
    """DomainError unless the level alpha lies in (0,1)."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")


def size_bound(q1: int, q0: int) -> float:
    """Worst-case probability, over all means and variance patterns of
    independent normal cluster estimates, that the statistic exceeds the
    second-largest value of its permutation distribution:
    2^-(q1 min q0) + 2^-((q1 max q0)+1) - 2^-(q1+q0).
    """
    positive_int("q1", q1)
    positive_int("q0", q0)
    lo, hi = min(q1, q0), max(q1, q0)
    return 0.5**lo + 0.5**(hi + 1) - 0.5**(q1 + q0)


# ---------------------------------------------------------------------------
# order statistics and p-values
# ---------------------------------------------------------------------------

def order_index_from_level(p: float | Fraction, n: int) -> int:
    """The 1-based order-statistic index ceil((1-p)*n) for a level p.

    Computed in exact rational arithmetic on the binary value of p, so
    boundary cases (levels hitting an integer multiple of 1/n exactly)
    never flip on floating-point rounding.
    """
    frac = p if isinstance(p, Fraction) else Fraction(float(p))
    if not (0 < frac < 1):
        raise DomainError(f"level must lie in (0,1), got {p}")
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return math.ceil((1 - frac) * n)


def _collection(design: Design, assignments) -> tuple[np.ndarray | None, str]:
    """(checked index array, source label) of an assignment collection;
    the array is None for the full enumeration.  An explicit array is
    always the sampled engine, whatever its length."""
    if assignments is None:
        return None, "full-enumeration"
    idx = check_assignments(design, assignments)
    return idx, f"sampled(m={len(idx)})"


class _Relabelings(NamedTuple):
    """The statistic over an assignment collection: its size n, the
    identity's value, how many assignments give a value >= / <= it, and
    nth(i), the i-th smallest value (1-based)."""

    n: int
    statistic: float
    count_ge: int
    count_le: int
    nth: Callable[[int], float]


def _relabelings(x: np.ndarray, design: Design, idx) -> _Relabelings:
    """The statistic over a checked collection (None: the full enumeration).

    T(gx) depends on g only through the treated-entry sum S: T = coef * S
    - sum(x)/q0 with coef = 1/q1 + 1/q0 > 0.  So both engines count and
    select on the sums, and the statistic is formed from the identity's
    sum and from a selected sum only for reporting; that map is monotone,
    so nth is the i-th smallest statistic in the same arithmetic.  The
    full enumeration is counted by `enumeration_sums`, a (size, sum)
    table on integer data and split subset sums otherwise; an explicit
    collection by its treated sums.
    """
    coef = 1.0 / design.q1 + 1.0 / design.q0
    base = float(x.sum()) / design.q0
    if idx is None:
        sums = enumeration_sums(design, x)
        n, count_ge, count_le, sum_at = (
            design.n_assignments, sums.count_at_least(sums.identity),
            sums.count_at_most(sums.identity), sums.sum_at)
    else:
        # row blocks bound the (rows, q1) gather; each row's sum is unchanged
        s = np.empty(len(idx))
        for lo in range(0, len(idx), _VALUE_ROWS):
            s[lo:lo + _VALUE_ROWS] = x[idx[lo:lo + _VALUE_ROWS]].sum(axis=-1)
        # the left side is the right side's rule on negated sums
        n, count_ge, count_le = (len(idx), int(count_at_or_above(s)),
                                 int(count_at_or_above(-s)))

        def sum_at(i: int) -> float:
            return float(np.partition(s, i - 1)[i - 1])

    return _Relabelings(
        n, coef * float(x[:design.q1].sum()) - base, count_ge, count_le,
        lambda i: coef * sum_at(i) - base)


# ---------------------------------------------------------------------------
# the embedded bar_alpha table
# ---------------------------------------------------------------------------

_STAR = "*"

# Printed values, transcribed verbatim; rows are q1 (>= q0), columns q0.
# Blank cells are simply absent: at those (q1, q0, alpha) combinations no
# usable critical value exists because the worst-case size bound exceeds
# alpha.  A star means "use the second-largest order statistic".
_BAR_ALPHA_TABLE: dict[str, dict[tuple[int, int], str]] = {
    "0.10": {
        (4, 4): ".0428",
        (5, 4): ".0317", (5, 5): ".0595",
        (6, 4): ".0238", (6, 5): ".0432", (6, 6): ".0660",
        (7, 4): ".0181", (7, 5): ".0340", (7, 6): ".0500", (7, 7): ".0760",
        (8, 4): ".0161", (8, 5): ".0303", (8, 6): ".0493", (8, 7): ".0600",
        (8, 8): ".0813",
        (9, 4): ".0153", (9, 5): ".0246", (9, 6): ".0400", (9, 7): ".0580",
        (9, 8): ".0740", (9, 9): ".0900",
        (10, 4): ".0129", (10, 5): ".0220", (10, 6): ".0366", (10, 7): ".0500",
        (10, 8): ".0700", (10, 9): ".0826", (10, 10): ".0926",
        (11, 4): ".0153", (11, 5): ".0193", (11, 6): ".0313", (11, 7): ".0420",
        (11, 8): ".0606", (11, 9): ".0746", (11, 10): ".0853", (11, 11): ".0953",
        (12, 4): ".0106", (12, 5): ".0193", (12, 6): ".0260", (12, 7): ".0420",
        (12, 8): ".0580", (12, 9): ".0673", (12, 10): ".0800", (12, 11): ".0926",
        (12, 12): ".0953",
    },
    "0.05": {
        (5, 5): ".0158",
        (6, 5): ".0108", (6, 6): ".0227",
        (7, 5): ".0088", (7, 6): ".0200", (7, 7): ".0253",
        (8, 5): ".0062", (8, 6): ".0120", (8, 7): ".0233", (8, 8): ".0306",
        (9, 5): ".0113", (9, 6): ".0120", (9, 7): ".0213", (9, 8): ".0300",
        (9, 9): ".0393",
        (10, 5): ".0100", (10, 6): ".0113", (10, 7): ".0166", (10, 8): ".0286",
        (10, 9): ".0340", (10, 10): ".0420",
        (11, 5): ".0100", (11, 6): ".0080", (11, 7): ".0153", (11, 8): ".0240",
        (11, 9): ".0313", (11, 10): ".0393", (11, 11): ".0440",
        (12, 5): ".0073", (12, 6): ".0080", (12, 7): ".0153", (12, 8): ".0213",
        (12, 9): ".0266", (12, 10): ".0366", (12, 11): ".0440", (12, 12): ".0491",
    },
    "0.025": {
        (6, 6): ".0043",
        (7, 6): ".0040", (7, 7): ".0086",
        (8, 6): ".0026", (8, 7): ".0086", (8, 8): ".0153",
        (9, 6): ".0026", (9, 7): ".0066", (9, 8): ".0100", (9, 9): ".0146",
        (10, 6): ".0026", (10, 7): ".0046", (10, 8): ".0093", (10, 9): ".0146",
        (10, 10): ".0166",
        (11, 6): ".0020", (11, 7): ".0033", (11, 8): ".0080", (11, 9): ".0106",
        (11, 10): ".0166", (11, 11): ".0180",
        (12, 6): ".0020", (12, 7): ".0033", (12, 8): ".0073", (12, 9): ".0093",
        (12, 10): ".0120", (12, 11): ".0173", (12, 12): ".0206",
    },
    "0.01": {
        (7, 7): ".0026",
        (8, 7): ".0013", (8, 8): ".0026",
        (9, 7): ".0013", (9, 8): ".0020", (9, 9): ".0033",
        (10, 7): ".0013", (10, 8): ".0020", (10, 9): ".0033", (10, 10): ".0040",
        (11, 7): ".0013", (11, 8): ".0020", (11, 9): ".0033", (11, 10): ".0040",
        (11, 11): ".0066",
        (12, 7): ".0013", (12, 8): ".0013", (12, 9): ".0026", (12, 10): ".0033",
        (12, 11): ".0053", (12, 12): ".0066",
    },
    "0.005": {
        (8, 8): _STAR,
        (9, 8): _STAR, (9, 9): ".0013",
        (10, 8): _STAR, (10, 9): ".0013", (10, 10): ".0013",
        (11, 8): _STAR, (11, 9): ".0006", (11, 10): ".0013", (11, 11): ".0020",
        (12, 8): _STAR, (12, 9): _STAR, (12, 10): ".0013", (12, 11): ".0020",
        (12, 12): ".0033",
    },
}

@dataclass(frozen=True)
class AlphaEntry:
    """An adjusted level bar_alpha for a (q1, q0, alpha) triple.

    order_index is the 1-based index j = ceil((1-bar_alpha)*N) into the
    sorted full-enumeration permutation distribution (N = C(q, q1));
    a starred table cell has bar_alpha_exact = 1/N, so j = N-1.
    bar_alpha is a permutation-quantile level, not a size, so
    bar_alpha <= alpha is not required.  The level is stored once, as
    the exact rational bar_alpha_exact, so indices for other collection
    sizes (sampled assignment sets) stay exact; bar_alpha is its float.
    """

    q1: int
    q0: int
    alpha: float
    bar_alpha_exact: Fraction
    source: str
    starred: bool = False
    diagnostics: dict | None = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bar_alpha_exact",
                           Fraction(self.bar_alpha_exact))
        n = Design(self.q1, self.q0).n_assignments
        if not (1 <= self.order_index <= n - 1):
            raise DomainError(
                f"order index {self.order_index} outside [1, {n - 1}]: "
                "the test would be trivial")

    @property
    def bar_alpha(self) -> float:
        return float(self.bar_alpha_exact)

    @property
    def order_index(self) -> int:
        """The critical index for the full enumeration."""
        return self.order_index_for(Design(self.q1, self.q0).n_assignments)

    def order_index_for(self, n: int) -> int:
        """The critical index for an assignment collection of size n."""
        return order_index_from_level(self.bar_alpha_exact, n)

    def to_json_dict(self) -> dict:
        out = {
            "q1": self.q1, "q0": self.q0, "alpha": self.alpha,
            "bar_alpha": self.bar_alpha, "order_index": self.order_index,
            "n_assignments": Design(self.q1, self.q0).n_assignments,
            "source": self.source, "starred": self.starred,
        }
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out


def _match_level(alpha: float) -> str | None:
    for key in _BAR_ALPHA_TABLE:
        if abs(alpha - float(key)) < 1e-9:
            return key
    return None


def lookup_bar_alpha(q1: int, q0: int, alpha: float) -> AlphaEntry:
    """Tabulated adjusted level for the given cluster counts and alpha.

    The table covers alpha in {.10, .05, .025, .01, .005} and
    4 <= min(q1,q0) <= max(q1,q0) <= 12, with some cells absent because
    no usable critical value exists there.  The table is symmetric in
    (q1, q0): transposed designs share the worst-case problem, so the
    (max, min) entry is returned for q1 < q0.
    """
    design = Design(q1, q0)  # validates the pair
    check_alpha(alpha)
    bound = size_bound(q1, q0)
    key = _match_level(alpha)
    if key is None:
        raise InfeasibleLevelError(
            f"alpha={alpha} is not tabulated (levels: .10 .05 .025 .01 .005); "
            f"the worst-case size bound at (q1={q1}, q0={q0}) is {bound:.6f}; "
            "use the calibrate module for other levels",
            smallest_feasible=bound)
    hi, lo = max(q1, q0), min(q1, q0)
    printed = _BAR_ALPHA_TABLE[key].get((hi, lo))
    if printed is None:
        if bound > alpha:
            advice = (f"the smallest feasible alpha by the worst-case size "
                      f"bound is {bound:.3g}; pick a larger alpha or "
                      "calibrate directly")
        else:  # every blank cell inside the table has a bound above alpha
            advice = ("the table stops at 12 clusters per group; calibrate "
                      "the level instead (--calibrate, or the calibrate "
                      "module)")
        raise InfeasibleLevelError(
            f"no tabulated adjustment for q1={q1}, q0={q0} at alpha={key}: "
            f"{advice}", smallest_feasible=bound)
    starred = printed == _STAR
    exact = Fraction(1, design.n_assignments) if starred else Fraction(printed)
    return AlphaEntry(q1=q1, q0=q0, alpha=float(key), bar_alpha_exact=exact,
                      source="tabulated", starred=starred)


# ---------------------------------------------------------------------------
# the test decision
# ---------------------------------------------------------------------------

def adjustment_level(alpha: float, side: str) -> float:
    """The level whose adjustment a test of level alpha uses: alpha/2 for
    a two-sided test, which runs both one-sided tests."""
    return alpha / 2.0 if side == "two-sided" else alpha


@dataclass(frozen=True)
class TestOutcome:
    """Decision record of the adjusted permutation test."""

    statistic: float
    critical_value: float
    p_value_right: float
    p_value_left: float
    decision: str
    side: str
    alpha: float
    bar_alpha_used: float | None
    lam: float = 0.0
    n_assignments: int | None = None
    assignment_source: str | None = None

    @property
    def p_value_two_sided(self) -> float:
        return min(1.0, 2.0 * min(self.p_value_right, self.p_value_left))

    def to_json_dict(self) -> dict:
        return {
            "method": "adjusted-permutation",
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "p_value_right": self.p_value_right,
            "p_value_left": self.p_value_left,
            "p_value_two_sided": self.p_value_two_sided,
            "decision": self.decision,
            "side": self.side,
            "alpha": self.alpha,
            "bar_alpha": self.bar_alpha_used,
            "lambda": self.lam,
            "n_assignments": self.n_assignments,
            "assignment_source": self.assignment_source,
        }


def adjusted_test(theta_hat: ClusterEstimates, alpha: float,
                  side: str = "right", lam: float = 0.0,
                  assignments=None,
                  alpha_entry: AlphaEntry | None = None) -> TestOutcome:
    """Run the level-adjusted permutation test.

    The null mean difference lam is subtracted from the treated entries
    first.  A right-sided test rejects iff the statistic strictly exceeds
    the bar_alpha permutation quantile; the left side applies the same
    rule to the negated data.  A two-sided test of level alpha runs both
    one-sided tests at the adjustment for alpha/2 and rejects if either
    does; equivalently p_value_two_sided <= 2*bar_alpha_used.

    assignments is an (m, q1) array under the permkit array contract
    (identity in row 0); None enumerates the full collection.
    bar_alpha comes from the embedded table unless alpha_entry overrides
    it (e.g. with a calibrated entry; for two-sided tests supply an entry
    calibrated at alpha/2).  The entry must be for the estimates' design;
    its level is the caller's responsibility.
    """
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    check_alpha(alpha)
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    design = theta_hat.design
    entry = alpha_entry if alpha_entry is not None else lookup_bar_alpha(
        design.q1, design.q0, adjustment_level(alpha, side))
    if (entry.q1, entry.q0) != (design.q1, design.q0):
        raise ContractError(
            f"alpha_entry is for q1={entry.q1}, q0={entry.q0}; the "
            f"estimates have q1={design.q1}, q0={design.q0}")

    x = theta_hat.values.copy()
    x[:design.q1] -= lam
    _check_sums_finite(x, "cluster estimates after the lambda shift")
    idx, source = _collection(design, assignments)

    if bool(np.all(x == x[0])):
        warnings.warn(
            "all cluster estimates coincide after the lambda shift; the "
            "permutation distribution is a point mass and the test retains",
            DegeneracyWarning, stacklevel=2)
        n = design.n_assignments if idx is None else len(idx)
        return TestOutcome(
            statistic=0.0, critical_value=0.0, p_value_right=1.0,
            p_value_left=1.0, decision="retain", side=side, alpha=alpha,
            bar_alpha_used=entry.bar_alpha, lam=lam, n_assignments=n,
            assignment_source=source)

    rel = _relabelings(x, design, idx)
    n, count_ge, count_le, nth = rel.n, rel.count_ge, rel.count_le, rel.nth
    p_right = count_ge / n
    p_left = count_le / n

    j = entry.order_index_for(n)
    k = n - j
    # T > j-th smallest value  <=>  at most k values are >= T (tie-safe)
    reject_right = count_ge <= k
    reject_left = count_le <= k

    if side == "right":
        decision = reject_right
        crit = nth(j)
    elif side == "left":
        decision = reject_left
        # reject iff the statistic falls strictly below this value
        crit = nth(n - j + 1)
    else:
        decision = reject_right or reject_left
        crit = nth(j)

    return TestOutcome(
        statistic=rel.statistic, critical_value=crit,
        p_value_right=p_right, p_value_left=p_left,
        decision="reject" if decision else "retain", side=side, alpha=alpha,
        bar_alpha_used=entry.bar_alpha, lam=lam,
        n_assignments=n, assignment_source=source)
