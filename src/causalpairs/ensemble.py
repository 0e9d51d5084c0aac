"""Weighted probability ensemble, weight tuning, accuracy and ranked AUC.

The challenge-style metric is a symmetrized two-direction AUC over the
signed score s = p_1 - p_-1: the forward AUC ranks s against
indicator(label == 1), the backward AUC ranks -s against
indicator(label == -1), and the reported value is their mean.  Rank AUC is
the Mann-Whitney form with average ranks, so exact ties count 1/2.
Label-0 instances count as negatives in both sub-AUCs by default
(exclude_zero=True removes them instead).
"""

import numpy as np

from .errors import ConfigurationError, UndefinedMetricError, ValidationError
from .probs import ProbTriple
from .ranks import rankdata

WEIGHT_GRID = tuple(i / 10.0 for i in range(11))


def ensemble(pc: ProbTriple, pg: ProbTriple, w: float) -> ProbTriple:
    """Componentwise convex combination w*pc + (1-w)*pg."""
    if not 0.0 <= w <= 1.0:
        raise ConfigurationError(f"ensemble weight {w} outside [0, 1]")
    return ProbTriple.from_array(w * pc.as_array() + (1.0 - w) * pg.as_array())


def predict_class(p: ProbTriple) -> int:
    """Label of the largest probability; ties resolve in order 1, 0, -1."""
    return (1, 0, -1)[int(np.argmax(p.as_array()))]


def accuracy(predictions, truths) -> float:
    """Exact ratio of matching entries."""
    if len(predictions) != len(truths):
        raise ValidationError(
            f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths"
        )
    if not predictions:
        raise ValidationError("accuracy undefined on empty input")
    correct = sum(1 for p, t in zip(predictions, truths) if p == t)
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
    """Signed direction score p_1 - p_-1 per instance."""
    return np.array([p.p1 - p.p_neg1 for p in probs], dtype=np.float64)


def auc_bidirectional_parts(probs, truths, exclude_zero: bool = False):
    """(mean, forward, backward) AUC triple; see module docstring."""
    if len(probs) != len(truths):
        raise ValidationError(f"length mismatch: {len(probs)} probs vs {len(truths)} truths")
    if not probs:
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


def tune_weight(val_pc, val_pg, val_labels, metric: str = "auc") -> float:
    """Best ensemble weight over the 11-point grid {0.0, 0.1, ..., 1.0}.

    Maximizes the validation metric; exact ties keep the smallest weight.
    """
    if not (len(val_pc) == len(val_pg) == len(val_labels)):
        raise ValidationError(
            f"misaligned lists: {len(val_pc)}/{len(val_pg)}/{len(val_labels)}"
        )
    if not val_pc:
        raise ValidationError("cannot tune on an empty validation set")
    if metric not in ("auc", "accuracy"):
        raise ConfigurationError(f"unknown tuning metric {metric!r}")
    best_w, best_score = None, -np.inf
    for w in WEIGHT_GRID:
        mixed = [ensemble(pc, pg, w) for pc, pg in zip(val_pc, val_pg)]
        if metric == "auc":
            score = auc_bidirectional(mixed, val_labels)
        else:
            score = accuracy([predict_class(p) for p in mixed], val_labels)
        if score > best_score:
            best_w, best_score = w, score
    return best_w
