"""Average ranks, shared by the rank-normalized features and the rank AUC."""

import numpy as np


def rank_groups(values) -> tuple[np.ndarray, int]:
    """Average ranks of a finite 1-D array and its number of distinct values.

    One stable sort gives both: the ranks are 1-based and tied values share
    their mean rank (exact half-integers), and the distinct count is the
    number of runs of equal values in sorted order (``0.0 == -0.0``).
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # bounds[i] is where the i-th group of equal values starts in sorted order
    starts = np.ones(len(values) + 1, dtype=bool)
    starts[1:-1] = ordered[1:] != ordered[:-1]
    bounds = np.flatnonzero(starts)
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1), bounds[1:] - bounds[:-1])
    return ranks, len(bounds) - 1


def rankdata(values) -> np.ndarray:
    """1-based average ranks of a finite 1-D array.

    Equal to ``scipy.stats.rankdata(values)`` (method "average").
    """
    return rank_groups(values)[0]
