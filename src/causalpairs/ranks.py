"""Average ranks, shared by the rank-normalized features and the rank AUC."""

import numpy as np


def rankdata(values) -> np.ndarray:
    """1-based ranks of a finite 1-D array; tied values share their mean rank.

    Equal to ``scipy.stats.rankdata(values)`` (method "average"): the ranks
    are exact half-integers.
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # bounds[i] is where the i-th group of equal values starts in sorted order
    starts = np.ones(len(values) + 1, dtype=bool)
    starts[1:-1] = ordered[1:] != ordered[:-1]
    bounds = np.flatnonzero(starts)
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1), np.diff(bounds))
    return ranks
