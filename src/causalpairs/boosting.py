"""Multiclass gradient boosted regression trees (softmax link).

Per round, one regression tree per class is fit to the negative gradient
of the multiclass log-loss (onehot - softmax(scores)), with exact
variance-reduction split search over midpoints between consecutive sorted
unique feature values.  Leaf values use the per-leaf Newton update
((K-1)/K * sum(residual) / sum(p*(1-p))); class scores accumulate
learning_rate times the tree output.

Split search is the exact greedy algorithm with presorted columns
(Chen & Guestrin 2016): a tree sorts every column once, stably, and each
split divides every column's order between the two children with a
boolean mask.  That keeps each child's order equal to a stable sort of
its own rows, ties in ascending row order, so no node sorts again.  A
node scores every feature in one pass (2-D gather, cumulative sums along
each feature, an argmax per feature).  Ties go to the lowest
feature index, then the lowest threshold; node totals are summed over the
rows in row order.  The trees are the same as those of a per-node sort.

Fitting draws no random numbers: the model is a pure function of the
feature matrix, the labels and the config.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import modelfile
from .errors import (
    ConfigurationError, InputError, ShapeError, TrainingError, ValidationError,
)
from .probs import LABELS, LABEL_TO_CLASS, check_probs
from .nnet import softmax_batch

_LEAF = -1
# a RegressionTree's node arrays, as finalize() leaves them
_NODE_DTYPES = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4", "value": "<f8"}


@dataclass(frozen=True)
class GbcConfig:
    n_estimators: int = 500
    max_depth: int = 9
    min_samples_split: int = 8
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_depth < 1 or self.min_samples_split < 2:
            raise ConfigurationError(f"invalid boosting config {self}")
        # written so that NaN fails too
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigurationError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )


class RegressionTree:
    """Flat-array binary tree: feature < 0 marks a leaf holding `value`."""

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def _add_node(self):
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def finalize(self):
        for name, dtype in _NODE_DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        return self

    @property
    def n_nodes(self):
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            cur = node[idx]
            goes_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(goes_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]


def presort(X: np.ndarray) -> np.ndarray:
    """Row j is a stable argsort of column j of X: shape (n_features, n)."""
    return np.argsort(X.T, axis=1, kind="stable")


def best_split(X: np.ndarray, y: np.ndarray, order=None):
    """Exact best (feature, midpoint threshold) by variance reduction.

    Reduction is SSE(parent) - SSE(left) - SSE(right); candidates are
    midpoints between consecutive distinct sorted values.  Ties resolve to
    the lowest feature index, then the lowest threshold.  ``order`` is
    ``presort(X)``, computed when omitted.  Returns
    (feature, threshold, reduction) or None when no split exists.
    """
    n = len(y)
    if n < 2:
        return None
    if order is None:
        order = presort(X)
    xs = X[order, np.arange(X.shape[1])[:, None]]
    ys = y[order]
    total = y.sum()
    total2 = float(y @ y)
    sse_parent = total2 - total * total / n
    csum = np.cumsum(ys, axis=1)[:, :-1]
    c2 = np.cumsum(ys * ys, axis=1)[:, :-1]
    n_left = np.arange(1, n)
    sse_left = c2 - csum * csum / n_left
    sse_right = (total2 - c2) - (total - csum) ** 2 / (n - n_left)
    valid = xs[:, 1:] > xs[:, :-1]
    reduction = np.where(valid, sse_parent - sse_left - sse_right, -np.inf)
    k = reduction.argmax(axis=1)
    per_feature = reduction[np.arange(len(k)), k]
    f = int(per_feature.argmax())
    if per_feature[f] == -np.inf:
        return None
    return f, (xs[f, k[f]] + xs[f, k[f] + 1]) / 2.0, float(per_feature[f])


def fit_tree(X: np.ndarray, y: np.ndarray, depth_limit: int, min_split: int) -> RegressionTree:
    """Greedy variance-reduction regression tree; leaves hold target means."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) < 1:
        raise ValidationError("fit_tree requires at least one sample")
    n_feat = X.shape[1]
    tree = RegressionTree()

    # idx: the node's rows in ascending order; order: presort(X[idx])
    def grow(idx, order, depth):
        node = tree._add_node()
        sub_y = y[idx]
        tree.value[node] = float(sub_y.mean())
        if depth >= depth_limit or len(idx) < min_split or np.ptp(sub_y) == 0.0:
            return node
        found = best_split(X[idx], sub_y, order)
        if found is None or found[2] <= 0.0:
            return node
        j, thr, _ = found
        goes_left = X[idx, j] <= thr
        # adjacent floats can round their midpoint onto the upper value
        if goes_left.all() or not goes_left.any():
            return node
        # each row's position within its child; masking every row of
        # `order` keeps it sorted, ties included, so no child sorts again
        before = np.cumsum(goes_left)
        child_pos = np.where(goes_left, before - 1, np.arange(len(idx)) - before)
        in_left = goes_left[order]
        tree.feature[node] = j
        tree.threshold[node] = thr
        tree.left[node] = grow(
            idx[goes_left], child_pos[order[in_left]].reshape(n_feat, -1), depth + 1
        )
        tree.right[node] = grow(
            idx[~goes_left], child_pos[order[~in_left]].reshape(n_feat, -1), depth + 1
        )
        return node

    grow(np.arange(len(X)), presort(X), 0)
    return tree.finalize()


@dataclass
class BoostedModel:
    trees: list  # trees[round][class_index]
    init_scores: np.ndarray
    n_features: int
    config: GbcConfig
    label_to_class: dict
    train_logloss: list

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeError(
                f"feature matrix {X.shape} does not match trained width {self.n_features}"
            )
        scores = np.tile(self.init_scores, (len(X), 1))
        for round_trees in self.trees:
            for k, tree in enumerate(round_trees):
                scores[:, k] += self.config.learning_rate * tree.predict(X)
        return scores


def _logloss(scores, cls):
    probs = softmax_batch(scores)
    return float(-np.log(probs[np.arange(len(cls)), cls] + 1e-15).mean())


def gbc_fit(X: np.ndarray, labels, cfg: GbcConfig = GbcConfig()) -> BoostedModel:
    """Fit the multiclass boosted model on (feature matrix, labels in {1,0,-1})."""
    X = np.asarray(X, dtype=np.float64)
    cls = np.array([LABEL_TO_CLASS[l] for l in labels], dtype=np.int64)
    n, n_feat = X.shape
    if len(np.unique(cls)) < 2:
        raise ValidationError("need at least two classes present to fit")
    n_classes = len(LABELS)
    counts = np.bincount(cls, minlength=n_classes).astype(np.float64)
    priors = (counts + 1e-9) / (n + n_classes * 1e-9)
    init_scores = np.log(priors)
    scores = np.tile(init_scores, (n, 1))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), cls] = 1.0

    trees = []
    logloss = [_logloss(scores, cls)]
    for round_index in range(cfg.n_estimators):
        probs = softmax_batch(scores)
        residual = onehot - probs
        round_trees = []
        for k in range(n_classes):
            tree = fit_tree(X, residual[:, k], cfg.max_depth, cfg.min_samples_split)
            leaves = tree.apply(X)
            hess = probs[:, k] * (1.0 - probs[:, k])
            num = np.bincount(leaves, weights=residual[:, k], minlength=tree.n_nodes)
            den = np.bincount(leaves, weights=hess, minlength=tree.n_nodes)
            upd = np.zeros(tree.n_nodes)
            nonzero = den > 1e-12
            upd[nonzero] = (n_classes - 1) / n_classes * num[nonzero] / den[nonzero]
            is_leaf = tree.feature < 0
            tree.value = np.where(is_leaf, upd, tree.value)
            # an overflow here is reported as a TrainingError after the round
            with np.errstate(over="ignore"):
                scores[:, k] += cfg.learning_rate * tree.value[leaves]
            round_trees.append(tree)
        if not np.isfinite(scores).all():
            raise TrainingError(f"non-finite class scores at boosting round {round_index}")
        trees.append(round_trees)
        logloss.append(_logloss(scores, cls))
    return BoostedModel(
        trees=trees,
        init_scores=init_scores,
        n_features=n_feat,
        config=cfg,
        label_to_class=dict(LABEL_TO_CLASS),
        train_logloss=logloss,
    )


def gbc_predict_batch(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """[N, 3] class probabilities (columns p_1, p_0, p_-1) for the rows of X."""
    return check_probs(softmax_batch(model.decision_scores(X)))


# ---------------------------------------------------------------------------
# Model file: a modelfile container of kind "gbc".  Its arrays are the initial
# scores, every tree's node count (round-major, then class) and the five node
# arrays of all trees, each concatenated in that order.

_ARRAYS = {"init_scores": "<f8", "n_nodes": "<i4", **_NODE_DTYPES}


def save_gbc(model: BoostedModel, path) -> None:
    trees = [tree for round_trees in model.trees for tree in round_trees]
    meta = {
        "n_features": model.n_features,
        "config": asdict(model.config),
        "label_to_class": {str(k): v for k, v in model.label_to_class.items()},
        "train_logloss": model.train_logloss,
    }
    arrays = {
        "init_scores": model.init_scores,
        "n_nodes": np.array([tree.n_nodes for tree in trees], dtype=np.int32),
        **{name: np.concatenate([getattr(tree, name) for tree in trees]) for name in _NODE_DTYPES},
    }
    modelfile.write(path, "gbc", meta, arrays)


def _trees_are_valid(feature, left, right, n_nodes, n_features) -> bool:
    """Leaves are all -1; split children follow their parent in its tree, so apply() ends."""
    size = np.repeat(n_nodes, n_nodes)
    node = np.arange(len(feature)) - np.repeat(np.cumsum(n_nodes) - n_nodes, n_nodes)
    leaf = (feature == _LEAF) & (left == _LEAF) & (right == _LEAF)
    split = (
        (feature >= 0) & (feature < n_features)
        & (left > node) & (left < size) & (right > node) & (right < size)
    )
    return bool((leaf | split).all())


def load_gbc(path) -> BoostedModel:
    """Read a GBC model file; malformed or inconsistent content raises InputError."""
    _, meta, arrays = modelfile.read(path, "gbc")
    return gbc_from_file(path, meta, arrays)


def gbc_from_file(path, meta: dict, arrays: dict) -> BoostedModel:
    """The BoostedModel a model file's meta and arrays describe (see load_gbc)."""
    try:
        config = GbcConfig(**meta["config"])
        n_features = meta["n_features"]
        label_to_class = {int(k): v for k, v in meta["label_to_class"].items()}
        train_logloss = meta["train_logloss"]
        init_scores, n_nodes, *nodes = columns = [arrays[name] for name in _ARRAYS]
        consistent = (
            type(n_features) is int
            and label_to_class == LABEL_TO_CLASS
            and len(train_logloss) == config.n_estimators + 1
            and all(a.dtype == dtype and a.ndim == 1 for a, dtype in zip(columns, _ARRAYS.values()))
            and init_scores.shape == (len(LABELS),)
            and n_nodes.shape == (config.n_estimators * len(LABELS),)
            and (n_nodes >= 1).all()
            and all(len(a) == n_nodes.sum() for a in nodes)
            and _trees_are_valid(nodes[0], nodes[2], nodes[3], n_nodes, n_features)
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"{path}: bad boosted model metadata: {exc}") from exc
    if not consistent:
        raise InputError(f"{path}: malformed trees, or metadata that does not match them")
    bounds = np.cumsum(n_nodes)[:-1]
    trees = []
    for parts in zip(*(np.split(np.array(a), bounds) for a in nodes)):
        tree = RegressionTree()
        tree.feature, tree.threshold, tree.left, tree.right, tree.value = parts
        trees.append(tree)
    n_classes = len(LABELS)
    return BoostedModel(
        trees=[trees[i : i + n_classes] for i in range(0, len(trees), n_classes)],
        init_scores=np.array(init_scores),
        n_features=n_features,
        config=config,
        label_to_class=label_to_class,
        train_logloss=train_logloss,
    )
