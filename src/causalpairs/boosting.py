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
node scores all searched features in one pass (2-D gather, cumulative
sums along each feature, an argmax per feature).  Ties go to the lowest
feature index, then the lowest threshold; node totals are summed over the
rows in row order.  The trees are the same as those of a per-node sort.

Model files are a versioned flat binary: per tree the node arrays
(feature index, threshold, child offsets, leaf value), then a JSON
metadata block.  Loading checks lengths, tree structure and metadata and
raises InputError on a malformed file.
"""

import io
import json
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigurationError, InputError, ShapeError, ValidationError
from .probs import LABELS, LABEL_TO_CLASS, ProbTriple
from .nnet import softmax_batch
from .seeding import derive_seed, make_rng

_LEAF = -1


@dataclass(frozen=True)
class GbcConfig:
    n_estimators: int = 500
    max_depth: int = 9
    min_samples_split: int = 8
    learning_rate: float = 0.1
    feature_subsample: float | None = None

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_depth < 1 or self.min_samples_split < 2:
            raise ConfigurationError(f"invalid boosting config {self}")
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.feature_subsample is not None and not 0 < self.feature_subsample <= 1:
            raise ConfigurationError("feature_subsample must be in (0, 1]")


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
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.value = np.asarray(self.value, dtype=np.float64)
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


def best_split(X: np.ndarray, y: np.ndarray, features=None, order=None):
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
    feats = np.arange(X.shape[1]) if features is None else np.asarray(features, dtype=np.intp)
    rows = order[feats]
    xs = X[rows, feats[:, None]]
    ys = y[rows]
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
    per_feature = reduction[np.arange(len(feats)), k]
    f = int(per_feature.argmax())
    if per_feature[f] == -np.inf:
        return None
    return int(feats[f]), (xs[f, k[f]] + xs[f, k[f] + 1]) / 2.0, float(per_feature[f])


def fit_tree(X: np.ndarray, y: np.ndarray, depth_limit: int, min_split: int,
             feature_subsample: float | None = None, rng=None) -> RegressionTree:
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
        features = None
        if feature_subsample is not None:
            k = max(1, int(np.floor(feature_subsample * n_feat)))
            features = sorted(rng.choice(n_feat, size=k, replace=False))
        found = best_split(X[idx], sub_y, features, order)
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
    learning_rate: float
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
                scores[:, k] += self.learning_rate * tree.predict(X)
        return scores


def _logloss(scores, cls):
    probs = softmax_batch(scores)
    return float(-np.log(probs[np.arange(len(cls)), cls] + 1e-15).mean())


def gbc_fit(X: np.ndarray, labels, cfg: GbcConfig = GbcConfig(), seed: int = 0) -> BoostedModel:
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
    rng = make_rng(derive_seed(seed, "gbc")) if cfg.feature_subsample is not None else None

    trees = []
    logloss = [_logloss(scores, cls)]
    for _ in range(cfg.n_estimators):
        probs = softmax_batch(scores)
        residual = onehot - probs
        round_trees = []
        for k in range(n_classes):
            tree = fit_tree(
                X, residual[:, k], cfg.max_depth, cfg.min_samples_split,
                cfg.feature_subsample, rng,
            )
            leaves = tree.apply(X)
            hess = probs[:, k] * (1.0 - probs[:, k])
            num = np.bincount(leaves, weights=residual[:, k], minlength=tree.n_nodes)
            den = np.bincount(leaves, weights=hess, minlength=tree.n_nodes)
            upd = np.zeros(tree.n_nodes)
            nonzero = den > 1e-12
            upd[nonzero] = (n_classes - 1) / n_classes * num[nonzero] / den[nonzero]
            is_leaf = tree.feature < 0
            tree.value = np.where(is_leaf, upd, tree.value)
            scores[:, k] += cfg.learning_rate * tree.value[leaves]
            round_trees.append(tree)
        trees.append(round_trees)
        logloss.append(_logloss(scores, cls))
    return BoostedModel(
        trees=trees,
        init_scores=init_scores,
        learning_rate=cfg.learning_rate,
        n_features=n_feat,
        config=cfg,
        label_to_class=dict(LABEL_TO_CLASS),
        train_logloss=logloss,
    )


def gbc_predict_batch(model: BoostedModel, X: np.ndarray) -> list[ProbTriple]:
    probs = softmax_batch(model.decision_scores(X))
    return [ProbTriple.from_array(row) for row in probs]


def gbc_predict(model: BoostedModel, features: np.ndarray) -> ProbTriple:
    """Class probabilities for one feature vector."""
    features = np.asarray(features, dtype=np.float64)
    return gbc_predict_batch(model, features[None])[0]


# ---------------------------------------------------------------------------
# Serialization.

GBC_MAGIC = b"CPBG"
GBC_VERSION = 1


def save_gbc(model: BoostedModel, path) -> None:
    buf = io.BytesIO()
    buf.write(GBC_MAGIC)
    n_rounds = len(model.trees)
    n_classes = len(model.init_scores)
    buf.write(struct.pack("<IIIId", GBC_VERSION, n_rounds, n_classes,
                          model.n_features, model.learning_rate))
    buf.write(np.ascontiguousarray(model.init_scores, dtype="<f8").tobytes())
    for round_trees in model.trees:
        for tree in round_trees:
            buf.write(struct.pack("<I", tree.n_nodes))
            buf.write(tree.feature.astype("<i4").tobytes())
            buf.write(tree.threshold.astype("<f8").tobytes())
            buf.write(tree.left.astype("<i4").tobytes())
            buf.write(tree.right.astype("<i4").tobytes())
            buf.write(tree.value.astype("<f8").tobytes())
    meta = {
        "config": asdict(model.config),
        "label_to_class": {str(k): v for k, v in model.label_to_class.items()},
        "train_logloss": model.train_logloss,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<Q", len(meta_bytes)))
    buf.write(meta_bytes)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def _tree_is_valid(tree: RegressionTree, n_features: int) -> bool:
    """Leaves are all -1; split children come after their parent, so apply() ends."""
    nodes = np.arange(tree.n_nodes)
    leaf = (tree.feature == _LEAF) & (tree.left == _LEAF) & (tree.right == _LEAF)
    split = (
        (tree.feature >= 0) & (tree.feature < n_features)
        & (tree.left > nodes) & (tree.left < tree.n_nodes)
        & (tree.right > nodes) & (tree.right < tree.n_nodes)
    )
    return (
        tree.n_nodes >= 1 and bool((leaf | split).all())
        and bool(np.isfinite(tree.threshold).all()) and bool(np.isfinite(tree.value).all())
    )


def load_gbc(path) -> BoostedModel:
    """Read a CPBG v1 file; malformed or inconsistent content raises InputError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != GBC_MAGIC:
        raise InputError(f"{path}: not a boosted model file")
    pos = 4

    def read(size):
        nonlocal pos
        if size > len(data) - pos:
            raise InputError(f"{path}: truncated boosted model file")
        pos += size
        return data[pos - size:pos]

    version, n_rounds, n_classes, n_features, learning_rate = struct.unpack(
        "<IIIId", read(24)
    )
    if version != GBC_VERSION:
        raise InputError(f"{path}: unsupported model version {version}")
    if n_classes != len(LABELS):
        raise InputError(f"{path}: model has {n_classes} classes, expected {len(LABELS)}")
    init_scores = np.frombuffer(read(8 * n_classes), dtype="<f8").copy()
    trees = []
    for _ in range(n_rounds):
        round_trees = []
        for _ in range(n_classes):
            (n_nodes,) = struct.unpack("<I", read(4))
            tree = RegressionTree()
            tree.feature = np.frombuffer(read(4 * n_nodes), dtype="<i4").copy()
            tree.threshold = np.frombuffer(read(8 * n_nodes), dtype="<f8").copy()
            tree.left = np.frombuffer(read(4 * n_nodes), dtype="<i4").copy()
            tree.right = np.frombuffer(read(4 * n_nodes), dtype="<i4").copy()
            tree.value = np.frombuffer(read(8 * n_nodes), dtype="<f8").copy()
            if not _tree_is_valid(tree, n_features):
                raise InputError(f"{path}: malformed tree in boosted model file")
            round_trees.append(tree)
        trees.append(round_trees)
    (meta_len,) = struct.unpack("<Q", read(8))
    meta_bytes = read(meta_len)
    if pos != len(data):
        raise InputError(f"{path}: trailing bytes after boosted model metadata")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
        config = GbcConfig(**meta["config"])
        label_to_class = {int(k): v for k, v in meta["label_to_class"].items()}
        train_logloss = meta["train_logloss"]
        consistent = (
            config.n_estimators == n_rounds
            and config.learning_rate == learning_rate
            and label_to_class == LABEL_TO_CLASS
            and len(train_logloss) == n_rounds + 1
            and bool(np.isfinite(init_scores).all())
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"{path}: bad boosted model metadata: {exc}") from exc
    if not consistent:
        raise InputError(f"{path}: boosted model metadata does not match its trees")
    return BoostedModel(
        trees=trees,
        init_scores=init_scores,
        learning_rate=learning_rate,
        n_features=n_features,
        config=config,
        label_to_class=label_to_class,
        train_logloss=train_logloss,
    )
