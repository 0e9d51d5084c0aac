"""Class probabilities over the three causal labels as [N, 3] arrays, and
their log-loss: the score that boosting reports per round and that both
choices made on validation data, the CNN's epoch and the ensemble weight,
minimise."""

import numpy as np

from .errors import ValidationError

# Fixed bijection between labels {1, 0, -1} and class indices {0, 1, 2}.
# Serialized with every model so train/predict can never skew.
LABELS = (1, 0, -1)
LABEL_TO_CLASS = {1: 0, 0: 1, -1: 2}


def label_classes(labels) -> np.ndarray:
    """int64 class index of each label; a label outside {1, 0, -1} raises ValidationError."""
    unknown = next((i for i, l in enumerate(labels) if l not in LABEL_TO_CLASS), None)
    if unknown is not None:
        raise ValidationError(f"label {labels[unknown]!r} at row {unknown} is not one of 1, 0, -1")
    return np.array([LABEL_TO_CLASS[l] for l in labels], dtype=np.int64)


def check_probs(probs) -> np.ndarray:
    """probs as a float64 [N, 3] array whose rows are distributions.

    Columns are in class-index order: p_1, p_0, p_-1.  The first row with a
    non-finite entry, an entry outside [-1e-12, 1 + 1e-9] or a sum more than
    1e-9 from 1 raises ValidationError.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValidationError(f"probabilities must be an [N, 3] array, got shape {p.shape}")
    out_of_range = (~np.isfinite(p) | (p < -1e-12) | (p > 1.0 + 1e-9)).any(axis=1)
    # left to right from +0.0, the order of Python's sum() before 3.12; only
    # rows in range have their sum read, and theirs is finite
    with np.errstate(invalid="ignore", over="ignore"):
        sums = 0.0 + p[:, 0] + p[:, 1] + p[:, 2]
    bad = np.flatnonzero(out_of_range | (np.abs(sums - 1.0) > 1e-9))
    if bad.size:
        i = bad[0]
        if out_of_range[i]:
            raise ValidationError(f"probabilities out of range: {tuple(map(float, p[i]))}")
        raise ValidationError(f"probabilities sum to {float(sums[i])!r}, not 1")
    return p


def log_loss(probs, classes) -> float:
    """Mean of -log(p + 1e-15) over each row's probability p of its class
    index; an entry below 0, which check_probs allows, counts as 0."""
    p = np.maximum(probs[np.arange(len(probs)), classes], 0.0)
    return float(-np.log(p + 1e-15).mean())
