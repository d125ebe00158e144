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
import math
import os
import warnings

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

_LINKS = ("logistic", "probit")
MODES = ("intercept", "did-slope") + _LINKS
_RANK_TOL = 1e-10
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
_SCAN_BYTES = 1 << 18  # bytes per chunk of the comma scan


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


def _rank_deficient(x: np.ndarray, r: np.ndarray, piv: np.ndarray) -> bool:
    """Whether x, factored as x[:, piv] = QR with column pivoting, is
    rank deficient: some |R_jj| is at most _RANK_TOL times the norm of
    its own column x[:, piv[j]].  Each ratio is the sine of the angle
    between that column and the span of the columns pivoted before it,
    so rescaling a column never changes the verdict; a zero column is
    always deficient."""
    norms = np.linalg.norm(x, axis=0)[piv]
    return bool(np.any(np.abs(np.diag(r)) <= _RANK_TOL * norms))


def _ols_coefficients(xd: np.ndarray, y: np.ndarray, cid: str) -> np.ndarray:
    from scipy.linalg import qr, solve_triangular

    n, d = xd.shape
    if n < d:
        raise DegenerateDataError(
            f"cluster {cid!r} has {n} rows for {d} regressors")
    q, r, piv = qr(xd, mode="economic", pivoting=True)
    if _rank_deficient(xd, r, piv):
        raise RankDeficientError(
            f"design matrix of cluster {cid!r} is rank deficient")
    coef_p = solve_triangular(r, q.T @ y)
    coef = np.empty(d)
    coef[piv] = coef_p
    return coef


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


def _newton_estimate(y: np.ndarray, x: np.ndarray, cid: str,
                     cdf, pdf, inverse) -> float:
    """theta of the Newton solution of the cluster's score equations
    sum_i (1, x_i')' (y_i - F(theta + beta' x_i)) = 0.  Convergence
    means the score's max-norm falls below 1e-10."""
    if not np.isin(y, (0.0, 1.0)).all():
        raise DomainError(
            f"binary-choice outcomes must be 0 or 1; cluster {cid!r} "
            "has other values")
    rate = float(y.mean())
    if rate in (0.0, 1.0):
        raise DegenerateDataError(
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
    return beta[0]


def cluster_estimates(data: ClusterDataset, mode: str) -> ClusterEstimates:
    """One estimate per cluster, treated clusters first, each from a fit
    to that cluster's rows alone.

    mode 'intercept' regresses outcome on [1, covariates] and
    'did-slope' on [post, covariates, 1], by least squares; 'logistic'
    and 'probit' fit a binary regression of outcome on [1, covariates]
    with that link by Newton iteration.  In every layout the estimate is
    coordinate 0 of the coefficient vector.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "did-slope" and not data.has_post:
        raise ContractError("did-slope mode requires the post column")
    link = _link_functions(mode) if mode in _LINKS else None
    values = np.empty(data.design.q)
    for k, cid in enumerate(data.cluster_ids):
        y, x, post = data.cluster_rows(k)
        if link is not None:
            values[k] = _newton_estimate(y, x, cid, *link)
            continue
        ones = np.ones((y.size, 1))
        if mode == "intercept":
            xd = np.hstack([ones, x])
        else:
            xd = np.hstack([post[:, None], x, ones])
        values[k] = _ols_coefficients(xd, y, cid)[0]
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


def _read_rows(path) -> tuple[list[str], list[list[str]], list[int]]:
    """The stripped header, the non-blank records and their row numbers
    (record index + 2)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    if not records:
        raise InputFormatError(f"{path}: empty file")
    header = [h.strip() for h in records[0]]
    rows, linenos = [], []
    for lineno, row in enumerate(records[1:], 2):
        if not any(map(str.strip, row)):
            continue
        if len(row) != len(header):
            raise InputFormatError(
                f"row {lineno}: expected {len(header)} fields, got {len(row)}")
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    return header, rows, linenos


def _text_columns(header: list[str]) -> tuple[int, ...]:
    """Indices of the observation columns read as text: cluster_id,
    treated and, when the fourth column is post, post."""
    return (0, 1, 3) if len(header) > 3 and header[3] == "post" else (0, 1)


def _longest_comma_free_run(path) -> int:
    """Bytes in the longest run of the file that holds no comma.  Read in
    chunks that stay in cache: twice as fast as one whole-file pass."""
    longest = run = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            cuts = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord(","))
            if cuts.size:
                # the first gap continues the run carried over
                gaps = np.diff(cuts, prepend=-run - 1) - 1
                longest = max(longest, int(gaps.max()))
                run = len(chunk) - 1 - int(cuts[-1])
            else:
                run += len(chunk)
            longest = max(longest, run)
    return longest


def _tokenized_columns(path):
    """The observation columns as numpy's tokenizer reads them, in the
    form of `_csv_columns`, or None unless they provably equal its result.

    With comma delimiters and '"' quotes, numpy splits records and fields
    as the csv module's excel dialect does, and it reads numbers with
    PyOS_string_to_double, the routine behind float().  Both skip blank
    lines; numpy raises on a whitespace-only or ragged line and on a
    number only float() reads ('1_000', non-ASCII digits).  Checked here:
    - the path is a regular file, since the file is opened three times;
    - the header is one physical line, so skipping one line skips it;
    - universal newlines turn a carriage return in a quoted field into a
      line feed, which no number notices, so text cells holding a line
      feed are refused;
    - no field may pass `csv.field_size_limit()`: text cells are measured,
      and a number, holding no comma, is no longer than the longest
      comma-free run of the file.
    """
    if not os.path.isfile(path):
        return None
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader)]
            one_line = reader.line_num == 1
    except (ValueError, csv.Error, StopIteration):
        return None
    if (not one_line or tuple(header[:3]) != _OBS_PREFIX
            or _longest_comma_free_run(path) > limit):
        return None
    text = _text_columns(header)
    dtype = np.dtype([("", object if j in text else float)
                      for j in range(len(header))])
    try:
        with warnings.catch_warnings():
            # numpy warns, rather than raises, when no data row is left
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=dtype, delimiter=",",
                               quotechar='"', comments=None, skiprows=1,
                               ndmin=1, encoding="utf-8-sig")
    except (ValueError, UserWarning):
        return None
    columns = [table[name] for name in dtype.names]
    for j in text:
        cells = set(columns[j])
        if any(len(c) > limit or "\n" in c for c in cells) or (
                j and not {"0", "1"}.issuperset(map(str.strip, cells))):
            return None
    values = [np.fromiter(map(float, c), float, len(c)) if j in text else c
              for j, c in enumerate(columns[1:], 1)]
    return list(map(str.strip, columns[0])), values, 3 in text


def _csv_columns(path):
    """(stripped cluster ids, the other columns as float arrays, whether
    there is a post column), read by the csv module row by row, so an
    error names the first bad cell in row order."""
    header, rows, linenos = _read_rows(path)
    if tuple(header[:3]) != _OBS_PREFIX:
        raise InputFormatError(
            f"header must start with {','.join(_OBS_PREFIX)}; got "
            f"{','.join(header[:3])}")
    binary = _text_columns(header)[1:]
    fields = [(j, header[j], _parse_binary if j in binary else _parse_float)
              for j in range(1, len(header))]
    table = np.empty((len(rows), len(fields)))
    for i, (lineno, row) in enumerate(zip(linenos, rows)):
        table[i] = [parse(row[j], name, lineno) for j, name, parse in fields]
    return [row[0].strip() for row in rows], list(table.T), 3 in binary


def ingest_csv(path) -> ClusterDataset:
    """Read an observation file (header
    cluster_id,treated,outcome[,post][,covariates...]) into a
    ClusterDataset.  The file is read by numpy's tokenizer when it
    provably gives what the csv module would (`_tokenized_columns`), and
    by the csv module otherwise, which is then the source of every
    format error."""
    ids, values, has_post = (_tokenized_columns(path)
                             or _csv_columns(path))
    covs = values[2 + has_post:]
    return ClusterDataset(
        ids, values[0], values[1],
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
    for lineno, row in zip(linenos, rows):
        cid = row[0].strip()
        if cid in seen:
            raise InputFormatError(
                f"row {lineno}: duplicate cluster {cid!r}")
        seen[cid] = (_parse_binary(row[1], "treated", lineno),
                     _parse_float(row[2], "estimate", lineno))
    # treated first; the sort is stable, so each group keeps file order
    ordered = sorted(seen, key=lambda c: -seen[c][0])
    q1 = sum(flag for flag, _ in seen.values())
    if not 0 < q1 < len(seen):
        raise InputFormatError(
            "need at least one treated and one control cluster")
    values = np.array([seen[c][1] for c in ordered])
    return ClusterEstimates(Design(q1, len(seen) - q1), values,
                            cluster_ids=tuple(ordered))
