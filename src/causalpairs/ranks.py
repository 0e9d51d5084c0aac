"""Average ranks, shared by the rank-normalized features and the rank AUC."""

import numpy as np


def sorted_ranks(ordered: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks of sorted segments, and each segment's distinct count.

    ordered holds non-empty segments laid end to end, each sorted
    ascending, and starts[i] is where segment i begins.  Ranks are 1-based
    within each segment and tied values share their mean rank (exact
    half-integers).  A segment's distinct count is its number of runs of
    equal values (``0.0 == -0.0``).
    """
    size = len(ordered)
    # new[i]: ordered[i] begins a run of equal values
    new = np.empty(size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    new[starts] = True
    first = np.flatnonzero(new)
    run = np.diff(first, append=size)
    segment = np.searchsorted(starts, first, side="right") - 1
    local = first - starts[segment]
    ranks = np.repeat(0.5 * (2 * local + run + 1), run)
    return ranks, np.bincount(segment, minlength=len(starts))


def rankdata(values) -> np.ndarray:
    """1-based average ranks of a finite 1-D array.

    Equal to ``scipy.stats.rankdata(values)`` (method "average").
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    if len(values):
        ranks[order] = sorted_ranks(values[order], np.zeros(1, dtype=np.intp))[0]
    return ranks
