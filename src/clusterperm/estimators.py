"""Per-cluster estimation: from raw rows to the estimate vector.

The test consumes one estimate per cluster, ordered treated-first.
Each cluster is fit completely separately, so arbitrary heteroskedasticity
across clusters never contaminates the estimates: ordinary least squares
per cluster (a plain intercept, or the coefficient on a post-period
indicator for difference-in-differences layouts) and per-cluster binary
choice fit by Newton iteration on the score equations.  CSV ingestion
for both raw observations and precomputed estimates lives here too.

Estimate-vector asymptotics (each cluster estimate approximately normal
around its target, variances unrestricted) are the responsibility of the
study design; nothing here checks or estimates those variances.
"""

from __future__ import annotations

import csv
import gc
import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    ContractError,
    DegenerateDataError,
    DomainError,
    EstimationError,
    InputFormatError,
    RankDeficientError,
    ShapeError,
)
from .permkit import Design
from .permtest import ClusterEstimates

_MODES = ("intercept", "did-slope", "binary-choice")
_LINKS = ("logistic", "probit")
_RANK_TOL = 1e-10
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100


class ClusterDataset:
    """Row data grouped by cluster, clusters ordered treated-first.

    Within each block (treated, then control) clusters keep their order
    of first appearance in the input, so ingestion is reproducible.  Rows
    within a cluster keep input order.  Instances are immutable.
    """

    __slots__ = ("design", "cluster_ids", "_y", "_x", "_post", "_bounds")

    def __init__(self, cluster_ids, treated, outcome, covariates=None,
                 post=None):
        ids = [str(c) for c in cluster_ids]
        n = len(ids)
        flags = np.asarray(treated)
        y = np.asarray(outcome, dtype=float)
        if flags.shape != (n,) or y.shape != (n,):
            raise ShapeError("cluster_ids, treated, and outcome must have "
                             "matching lengths")
        if not np.all(np.isfinite(y)):
            raise DomainError("outcomes must all be finite")
        if not np.isin(flags, (0, 1, False, True)).all():
            raise DomainError("treated flags must be 0 or 1")
        flags = flags.astype(bool)
        if covariates is None:
            x = np.empty((n, 0), dtype=float)
        else:
            x = np.asarray(covariates, dtype=float)
            if x.ndim == 1:
                x = x[:, None]
            if x.shape[0] != n:
                raise ShapeError("covariates must have one row per observation")
            if not np.all(np.isfinite(x)):
                raise DomainError("covariates must all be finite")
        if post is None:
            p = None
        else:
            p = np.asarray(post)
            if p.shape != (n,):
                raise ShapeError("post must have one entry per observation")
            if not np.isin(p, (0, 1, False, True)).all():
                raise DomainError("post indicators must be 0 or 1")
            p = p.astype(float)

        # code k is the k-th cluster id to appear; rank orders the codes
        # treated-first, each block in order of first appearance
        code_of: dict[str, int] = {}
        codes = np.array([code_of.setdefault(c, len(code_of)) for c in ids],
                         dtype=np.intp)
        flag_of = flags[np.unique(codes, return_index=True)[1]]
        varies = flags != flag_of[codes]
        if varies.any():
            raise InputFormatError("treated flag varies within cluster "
                                   f"{ids[int(varies.argmax())]!r}")
        q1 = int(flag_of.sum())
        if not 0 < q1 < flag_of.size:
            raise DomainError("need at least one treated and one control cluster")
        by_rank = np.argsort(~flag_of, kind="stable")
        row_rank = np.argsort(by_rank)[codes]
        row_index = np.argsort(row_rank, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(row_rank))])
        names = list(code_of)

        object.__setattr__(self, "design", Design(q1, flag_of.size - q1))
        object.__setattr__(self, "cluster_ids",
                           tuple(names[c] for c in by_rank))
        object.__setattr__(self, "_y", y[row_index])
        object.__setattr__(self, "_x", x[row_index])
        object.__setattr__(self, "_post",
                           p[row_index] if p is not None else None)
        object.__setattr__(self, "_bounds", bounds)
        for arr in (self._y, self._x, self._bounds) + (
                (self._post,) if p is not None else ()):
            arr.flags.writeable = False

    def __setattr__(self, name, value):
        raise AttributeError("ClusterDataset is immutable")

    def __repr__(self) -> str:
        return (f"ClusterDataset(q1={self.design.q1}, q0={self.design.q0}, "
                f"rows={self._y.size}, covariates={self.n_covariates}, "
                f"post={self.has_post})")

    @property
    def has_post(self) -> bool:
        return self._post is not None

    @property
    def n_covariates(self) -> int:
        return int(self._x.shape[1])

    def cluster_rows(self, k: int):
        """(outcomes, covariates, post-or-None) of the k-th cluster
        (0-based, treated-first order)."""
        if not (0 <= k < self.design.q):
            raise DomainError(f"cluster index must lie in [0, {self.design.q}), "
                              f"got {k}")
        lo, hi = int(self._bounds[k]), int(self._bounds[k + 1])
        post = self._post[lo:hi] if self._post is not None else None
        return self._y[lo:hi], self._x[lo:hi], post


@dataclass(frozen=True)
class EstimatorSpec:
    """What to fit per cluster and which coefficient is the estimate.

    mode 'intercept' regresses outcome on [1, covariates]; 'did-slope'
    regresses on [post, covariates, 1]; 'binary-choice' solves the score
    equations of a binary regression of outcome on [1, covariates] with
    the chosen link.  In every layout the estimate is coordinate 0 of
    the coefficient vector.
    """

    mode: str
    link: str | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "binary-choice":
            if self.link not in _LINKS:
                raise DomainError(
                    f"binary-choice requires link in {_LINKS}, got {self.link!r}")
        elif self.link is not None:
            raise DomainError(f"link is only meaningful for binary-choice, "
                              f"got {self.link!r} with mode {self.mode!r}")


def _ols_coefficients(xd: np.ndarray, y: np.ndarray, cid: str) -> np.ndarray:
    from scipy.linalg import qr, solve_triangular

    n, d = xd.shape
    if n < d:
        raise DegenerateDataError(
            f"cluster {cid!r} has {n} rows for {d} regressors")
    q, r, piv = qr(xd, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0 or np.any(diag < _RANK_TOL * diag[0]):
        raise RankDeficientError(
            f"design matrix of cluster {cid!r} is rank deficient")
    coef_p = solve_triangular(r, q.T @ y)
    coef = np.empty(d)
    coef[piv] = coef_p
    return coef


def per_cluster_ols(data: ClusterDataset, spec: EstimatorSpec) -> ClusterEstimates:
    """Least squares within each cluster; the estimate vector stacks
    coordinate 0 of every fit, treated clusters first."""
    if spec.mode == "binary-choice":
        raise ContractError(
            "binary-choice mode belongs to binary_choice_cluster_estimates")
    if spec.mode == "did-slope" and not data.has_post:
        raise ContractError("did-slope mode requires the post column")
    values = np.empty(data.design.q)
    for k in range(data.design.q):
        y, x, post = data.cluster_rows(k)
        ones = np.ones((y.size, 1))
        if spec.mode == "intercept":
            xd = np.hstack([ones, x])
        else:
            xd = np.hstack([post[:, None], x, ones])
        values[k] = _ols_coefficients(xd, y, data.cluster_ids[k])[0]
    return ClusterEstimates(data.design, values, cluster_ids=data.cluster_ids)


def _link_functions(link: str):
    if link == "logistic":
        def cdf(eta):
            out = np.empty_like(eta)
            pos = eta >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
            e = np.exp(eta[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        def pdf(eta):
            c = cdf(eta)
            return c * (1.0 - c)

        def inverse(p):
            return math.log(p / (1.0 - p))
    else:
        from scipy.special import ndtr, ndtri

        def cdf(eta):
            return ndtr(eta)

        def pdf(eta):
            return np.exp(-0.5 * eta * eta) / math.sqrt(2.0 * math.pi)

        def inverse(p):
            return ndtri(p)
    return cdf, pdf, inverse


def binary_choice_cluster_estimates(data: ClusterDataset,
                                    spec: EstimatorSpec) -> ClusterEstimates:
    """Newton solution of the per-cluster score equations
    sum_i (1, x_i')' (y_i - F(theta + beta' x_i)) = 0; the estimate is
    theta.  Convergence means the score's max-norm falls below 1e-10."""
    if spec.mode != "binary-choice":
        raise ContractError(f"mode {spec.mode!r} belongs to per_cluster_ols")
    cdf, pdf, inverse = _link_functions(spec.link)
    values = np.empty(data.design.q)
    for k in range(data.design.q):
        cid = data.cluster_ids[k]
        y, x, _ = data.cluster_rows(k)
        if not np.isin(y, (0.0, 1.0)).all():
            raise DomainError(
                f"binary-choice outcomes must be 0 or 1; cluster {cid!r} "
                "has other values")
        rate = float(y.mean())
        if rate in (0.0, 1.0):
            raise EstimationError(
                f"cluster {cid!r} is perfectly separated "
                f"(all outcomes {int(rate)})")
        z = np.hstack([np.ones((y.size, 1)), x])
        if y.size < z.shape[1]:
            raise DegenerateDataError(
                f"cluster {cid!r} has {y.size} rows for {z.shape[1]} parameters")
        beta = np.zeros(z.shape[1])
        beta[0] = inverse(min(max(rate, 0.5 / y.size), 1.0 - 0.5 / y.size))
        for _ in range(_NEWTON_MAX_ITER):
            eta = z @ beta
            score = z.T @ (y - cdf(eta))
            if np.abs(score).max() < _NEWTON_TOL:
                break
            info = (z * pdf(eta)[:, None]).T @ z
            try:
                step = np.linalg.solve(info, score)
            except np.linalg.LinAlgError:
                raise RankDeficientError(
                    f"singular information matrix in cluster {cid!r}") from None
            beta = beta + step
        else:
            raise EstimationError(
                f"cluster {cid!r} did not converge in "
                f"{_NEWTON_MAX_ITER} Newton iterations")
        values[k] = beta[0]
    return ClusterEstimates(data.design, values, cluster_ids=data.cluster_ids)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_OBS_PREFIX = ("cluster_id", "treated", "outcome")
_EST_HEADER = ("cluster_id", "treated", "estimate")


def _parse_binary(value: str, column: str, lineno: int) -> int:
    v = value.strip()
    if v not in ("0", "1"):
        raise InputFormatError(
            f"row {lineno}: column {column!r} must be 0 or 1, got {value!r}")
    return int(v)


def _parse_float(value: str, column: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise InputFormatError(
            f"row {lineno}: non-numeric value {value!r} in column "
            f"{column!r}") from None


def _read_rows(path) -> tuple[list[str], list[list[str]], Sequence[int]]:
    """The stripped header, the non-blank records and their row numbers
    (record index + 2)."""
    # The reader's lists hold no cycles, so collector passes over them are
    # pure cost (a third of the read at 48,000 rows): pause the collector.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    finally:
        if collecting:
            gc.enable()
    if not records:
        raise InputFormatError(f"{path}: empty file")
    header = [h.strip() for h in records[0]]
    rows = records[1:]
    width = len(header)
    linenos = range(2, len(rows) + 2)
    if not (width and set(map(len, rows)) <= {width}
            and all(map(str.strip, map(itemgetter(0), rows)))):
        linenos = [n for n, row in zip(linenos, rows)
                   if any(map(str.strip, row))]
        rows = [rows[n - 2] for n in linenos]
        for lineno, row in zip(linenos, rows):
            if len(row) != width:
                raise InputFormatError(
                    f"row {lineno}: expected {width} fields, got {len(row)}")
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    return header, rows, linenos


def ingest_csv(path, schema: str = "observations"):
    """Read a CSV file into a ClusterDataset (schema 'observations':
    header cluster_id,treated,outcome[,post][,covariates...]) or a
    ClusterEstimates (schema 'estimates': header
    cluster_id,treated,estimate, one row per cluster).  Columns are parsed
    whole by float(); on a failure the rows are rescanned in order, so the
    error names the first bad cell."""
    if schema == "estimates":
        return load_estimates(path)
    if schema != "observations":
        raise DomainError(
            f"schema must be 'observations' or 'estimates', got {schema!r}")
    header, rows, linenos = _read_rows(path)
    if tuple(header[:3]) != _OBS_PREFIX:
        raise InputFormatError(
            f"header must start with {','.join(_OBS_PREFIX)}; got "
            f"{','.join(header[:3])}")
    has_post = len(header) > 3 and header[3] == "post"
    binary = (1, 3) if has_post else (1,)
    fields = [(j, header[j], _parse_binary if j in binary else _parse_float)
              for j in range(1, len(header))]

    values = []
    try:
        for j, _, parse in fields:
            cells = itemgetter(j)
            if parse is _parse_binary and not {"0", "1"}.issuperset(
                    map(str.strip, map(cells, rows))):
                raise ValueError
            values.append(np.fromiter(map(float, map(cells, rows)), float,
                                      len(rows)))
    except ValueError:
        for lineno, row in zip(linenos, rows):
            for j, name, parse in fields:
                parse(row[j], name, lineno)
        raise
    covs = values[2 + has_post:]
    return ClusterDataset(
        list(map(str.strip, map(itemgetter(0), rows))), values[0], values[1],
        covariates=np.stack(covs, axis=1) if covs else None,
        post=values[2] if has_post else None)


def load_estimates(path) -> ClusterEstimates:
    """Read precomputed per-cluster estimates
    (cluster_id,treated,estimate; exactly one row per cluster)."""
    header, rows, linenos = _read_rows(path)
    if tuple(header) != _EST_HEADER:
        raise InputFormatError(
            f"header must be {','.join(_EST_HEADER)}; got {','.join(header)}")
    seen: dict[str, tuple[int, float]] = {}
    order: list[str] = []
    for lineno, row in zip(linenos, rows):
        cid = row[0].strip()
        if cid in seen:
            raise InputFormatError(
                f"row {lineno}: duplicate cluster {cid!r}")
        flag = _parse_binary(row[1], "treated", lineno)
        est = _parse_float(row[2], "estimate", lineno)
        seen[cid] = (flag, est)
        order.append(cid)
    treated_ids = [c for c in order if seen[c][0] == 1]
    control_ids = [c for c in order if seen[c][0] == 0]
    if not treated_ids or not control_ids:
        raise InputFormatError(
            "need at least one treated and one control cluster")
    ordered = treated_ids + control_ids
    design = Design(len(treated_ids), len(control_ids))
    values = np.array([seen[c][1] for c in ordered])
    return ClusterEstimates(design, values, cluster_ids=tuple(ordered))
