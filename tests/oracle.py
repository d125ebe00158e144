"""The statistic oracle the test modules share."""

from __future__ import annotations

import numpy as np

from clusterperm.permkit import Design, weight_matrix


def statistic_weights(design: Design, assignments=None) -> np.ndarray:
    """The (q, m) matrix that maps a row of estimates to every
    relabeling's comparison-of-means statistic: +1/q1 on an assignment's
    treated clusters and -1/q0 elsewhere, built from weight_matrix's 0/1
    treated indicator (identity in column 0)."""
    w = weight_matrix(design, assignments)
    return w / design.q1 - (1 - w) / design.q0
