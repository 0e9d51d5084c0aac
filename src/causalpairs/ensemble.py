"""Weighted probability ensemble, its weight tuned on validation log-loss.

The challenge-style metric is a symmetrized two-direction AUC over the
signed score s = p_1 - p_-1: the forward AUC ranks s against
indicator(label == 1), the backward AUC ranks -s against
indicator(label == -1), and the reported value is their mean.  Rank AUC is
the Mann-Whitney form with average ranks, so exact ties count 1/2.
Label-0 instances count as negatives in both sub-AUCs by default
(exclude_zero=True removes them instead).

Probabilities are [N, 3] arrays with columns p_1, p_0, p_-1; every public
function here checks the probabilities it is given with probs.check_probs.
"""

import numpy as np

from .errors import ConfigurationError, UndefinedMetricError, ValidationError
from .probs import LABELS, check_probs, label_classes, log_loss
from .ranks import rankdata

WEIGHT_GRID = tuple(i / 10.0 for i in range(11))


def ensemble(pc, pg, w: float) -> np.ndarray:
    """Rowwise convex combination w*pc + (1-w)*pg of two [N, 3] arrays."""
    if not 0.0 <= w <= 1.0:
        raise ConfigurationError(f"ensemble weight {w} outside [0, 1]")
    pc, pg = check_probs(pc), check_probs(pg)
    if pc.shape != pg.shape:
        raise ValidationError(f"probability arrays {pc.shape} and {pg.shape} differ")
    return w * pc + (1.0 - w) * pg


def predict_labels(probs) -> np.ndarray:
    """Label of each row's largest probability; ties resolve in order 1, 0, -1."""
    return np.array(LABELS)[check_probs(probs).argmax(axis=1)]


def accuracy(predictions, truths) -> float:
    """Exact ratio of matching entries."""
    if len(predictions) != len(truths):
        raise ValidationError(
            f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths"
        )
    if len(predictions) == 0:
        raise ValidationError("accuracy undefined on empty input")
    correct = int((np.asarray(predictions) == np.asarray(truths)).sum())
    return correct / len(predictions)


def rank_auc(scores, positives) -> float:
    """Mann-Whitney AUC of scores against a boolean positive mask."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined with {n_pos} positives and {n_neg} negatives"
        )
    ranks = rankdata(scores)
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def signed_scores(probs) -> np.ndarray:
    """Signed direction score p_1 - p_-1 per row of an [N, 3] array."""
    p = check_probs(probs)
    return p[:, 0] - p[:, 2]


def auc_bidirectional_parts(probs, truths, exclude_zero: bool = False):
    """(mean, forward, backward) AUC triple; see module docstring."""
    if len(probs) != len(truths):
        raise ValidationError(f"length mismatch: {len(probs)} probs vs {len(truths)} truths")
    if len(probs) == 0:
        raise UndefinedMetricError("AUC undefined on empty input")
    truths = np.asarray(truths)
    s = signed_scores(probs)
    if exclude_zero:
        keep = truths != 0
        s, truths = s[keep], truths[keep]
    fwd = rank_auc(s, truths == 1)
    bwd = rank_auc(-s, truths == -1)
    return (fwd + bwd) / 2.0, fwd, bwd


def auc_bidirectional(probs, truths, exclude_zero: bool = False) -> float:
    return auc_bidirectional_parts(probs, truths, exclude_zero)[0]


def tune_weight(val_pc, val_pg, val_labels) -> float:
    """Ensemble weight on the 11-point grid {0.0, 0.1, ..., 1.0} whose mixture
    has the lowest validation log-loss; exact ties keep the smallest weight.
    """
    if not (len(val_pc) == len(val_pg) == len(val_labels)):
        raise ValidationError(
            f"misaligned lists: {len(val_pc)}/{len(val_pg)}/{len(val_labels)}"
        )
    if len(val_pc) == 0:
        raise ValidationError("cannot tune on an empty validation set")
    classes = label_classes(val_labels)
    losses = [log_loss(ensemble(val_pc, val_pg, w), classes) for w in WEIGHT_GRID]
    return WEIGHT_GRID[int(np.argmin(losses))]
