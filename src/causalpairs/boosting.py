"""Multiclass gradient boosted regression trees (softmax link).

Per round, one regression tree per class is fit to the negative gradient
of the multiclass log-loss (onehot - softmax(scores)), with exact
variance-reduction split search over midpoints between consecutive sorted
unique feature values.  Leaf values use the per-leaf Newton update
((K-1)/K * sum(residual) / sum(p*(1-p))); class scores accumulate
learning_rate times the tree output.

Split search is the exact greedy algorithm with presorted columns
(Chen & Guestrin 2016): a fit sorts every column once, stably, and each
split divides every column's order between the two children with a
boolean row mask.  That keeps each child's order equal to a stable sort
of its own rows, ties in ascending row order, so no node sorts again.
A node's order holds global row ids, so its search gathers feature
values straight from the fit's X.T and targets from the tree's full y,
and no node copies its rows out of X.  A node scores every searched
feature in one pass (one gather, cumulative sums along each feature, one
argmax).  A column whose values are all equal can never split;
the fit drops it once, as LightGBM drops trivial features (Ke et al.
2017), and searches the others in ascending index order.  Ties go to
the lowest feature index, then the lowest threshold; a node's total is
summed over its rows in row order, once for its split search and its
leaf value.  The trees are the same as those of a per-node sort over
every column.  The search writes its per-node matrices into buffers
made once per fit.

A model holds all its trees in one node table, the arrays its file
stores.  Scoring walks every tree at once over a chunk of rows, then adds
the trees' values round by round, in the fit's order.

Fitting draws no random numbers: the model is a pure function of the
feature matrix, the labels and the config.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import modelfile
from .errors import ConfigurationError, InputError, ShapeError, TrainingError, ValidationError
from .probs import LABELS, LABEL_TO_CLASS, check_probs, label_classes, log_loss
from .nnet import softmax_batch

_LEAF = -1
# a RegressionTree's node arrays, as its model file stores them
_NODE_DTYPES = {"feature": "<i4", "threshold": "<f8", "left": "<i4", "right": "<i4", "value": "<f8"}
# at most this many (row, tree) leaves per apply call when scoring
_WALK_SIZE = 1 << 16


@dataclass(frozen=True)
class GbcConfig:
    n_estimators: int = 500
    max_depth: int = 9
    min_samples_split: int = 8
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.n_estimators < 1 or self.max_depth < 1 or self.min_samples_split < 2:
            raise ConfigurationError(f"invalid boosting config {self}")
        if not 0 <= self.learning_rate < np.inf:  # written so that NaN fails too
            raise ConfigurationError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


class RegressionTree:
    """A node table of one or more regression trees laid end to end.

    Tree t has ``sizes[t]`` nodes, after those of the trees before it.  A
    node with ``feature`` < 0 is a leaf holding ``value``; a split sends
    rows with ``X[:, feature] <= threshold`` to ``left``, the others to
    ``right``, each child index counted within its own tree.
    """

    def __init__(self, sizes, *columns):
        """``columns``: feature, threshold, left, right and value, in that order."""
        self.sizes = np.asarray(sizes, dtype="<i4")
        for (name, dtype), column in zip(_NODE_DTYPES.items(), columns, strict=True):
            setattr(self, name, np.asarray(column, dtype=dtype))
        self.starts = np.cumsum(self.sizes, dtype=np.int64) - self.sizes  # each tree's root

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """[rows, trees] table index of the leaf each row of X reaches in each tree."""
        X = np.asarray(X, dtype=np.float64)
        leaves = np.tile(self.starts, (len(X), 1))
        node = leaves.reshape(-1)
        walking = np.flatnonzero(self.feature[node] >= 0)
        while len(walking):
            row, tree = np.divmod(walking, len(self.starts))
            cur = node[walking]
            goes_left = X[row, self.feature[cur]] <= self.threshold[cur]
            node[walking] = self.starts[tree] + np.where(goes_left, self.left[cur], self.right[cur])
            walking = walking[self.feature[node[walking]] >= 0]
        return leaves


def presort(X: np.ndarray) -> np.ndarray:
    """Row j is a stable argsort of column j of X: shape (n_features, n)."""
    return np.argsort(X.T, axis=1, kind="stable")


# best_split's buffers: each holds up to n_searched x n elements
_WORK_DTYPES = {
    "at": np.intp, "xs": np.float64, "ys": np.float64, "csum": np.float64, "c2": np.float64,
    "invalid": np.bool_,
}


def split_workspace(X: np.ndarray) -> dict:
    """What best_split and fit_tree share for every tree fit on X.

    ``xt`` is X.T, contiguous; ``columns`` the columns that can split, in
    ascending order; ``order`` their presort, as the root's row ids, and
    ``offsets`` each one's start in ``xt``.  A column whose sorted first
    and last values compare equal holds one value and is left out; NaN
    sorts last and compares unequal, so a column with NaN stays.
    ``n_left`` and ``n_right`` are the child sizes of every cut of the
    root, ``mask`` the side each row of the node being split goes to, and
    the rest buffers for any node.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    xt = np.ascontiguousarray(X.T)
    order = presort(X)
    first = np.take_along_axis(xt, order[:, :1], axis=1)[:, 0]
    last = np.take_along_axis(xt, order[:, -1:], axis=1)[:, 0]
    columns = np.flatnonzero(first != last)
    return {
        "xt": xt,
        "columns": columns,
        "order": order[columns],
        "offsets": columns[:, None] * n,
        "n_left": np.arange(1.0, n),
        "n_right": np.arange(n - 1.0, 0.0, -1.0),
        "mask": np.zeros(n, dtype=bool),
        **{name: np.empty(len(columns) * n, dtype) for name, dtype in _WORK_DTYPES.items()},
    }


def _matrix(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows x cols elements of a flat buffer, as a matrix."""
    return buf[: rows * cols].reshape(rows, cols)


def best_split(work: dict, y: np.ndarray, order: np.ndarray, total: float, total2: float):
    """Exact best (feature, midpoint threshold) by variance reduction at one node.

    ``work`` is the fit's ``split_workspace`` and ``y`` the tree's target
    for all the fit's rows.  ``order`` holds the node's rows as row ids,
    one row per searched column, each sorted by that column.  ``total``
    and ``total2`` are the sums of the node's y and y * y, in ascending
    row order.  Reduction is SSE(parent) - SSE(left) - SSE(right);
    candidates are midpoints between consecutive distinct sorted values.
    Ties resolve to the lowest feature index, then the lowest threshold.
    Returns (feature, threshold, reduction) or None when no split exists.
    """
    n_feat, n = order.shape
    if n < 2 or n_feat == 0:
        return None
    # xs[j, i] = X[order[j, i], columns[j]], gathered from X.T's flat layout
    at = np.add(order, work["offsets"], out=_matrix(work["at"], n_feat, n))
    xs = work["xt"].take(at, out=_matrix(work["xs"], n_feat, n), mode="clip")
    ys = y.take(order, out=_matrix(work["ys"], n_feat, n), mode="clip")
    sse_parent = total2 - total * total / n
    # prefix sums over the first i + 1 sorted rows, i < n - 1
    csum = ys[:, :-1].cumsum(axis=1, out=_matrix(work["csum"], n_feat, n - 1))
    c2 = np.multiply(ys, ys, out=ys)[:, :-1].cumsum(axis=1, out=_matrix(work["c2"], n_feat, n - 1))
    # sse_left = c2 - csum * csum / n_left, in ys's buffer
    sse_left = np.multiply(csum, csum, out=_matrix(work["ys"], n_feat, n - 1))
    sse_left /= work["n_left"][: n - 1]
    np.subtract(c2, sse_left, out=sse_left)
    # sse_right = (total2 - c2) - (total - csum) ** 2 / (n - n_left), in c2's and csum's
    sse_right = np.subtract(total2, c2, out=c2)
    sq = np.subtract(total, csum, out=csum)
    np.square(sq, out=sq)
    sq /= work["n_right"][1 - n :]
    sse_right -= sq
    # reduction = sse_parent - sse_left - sse_right, -inf where no split fits
    reduction = np.subtract(sse_parent, sse_left, out=sse_left)
    reduction -= sse_right
    invalid = np.greater(xs[:, 1:], xs[:, :-1], out=_matrix(work["invalid"], n_feat, n - 1))
    np.logical_not(invalid, out=invalid)
    np.copyto(reduction, -np.inf, where=invalid)
    # the first maximum in row-major order: lowest feature, then lowest threshold
    f, k = divmod(int(reduction.argmax()), n - 1)
    if reduction[f, k] == -np.inf:
        return None
    return int(work["columns"][f]), (xs[f, k] + xs[f, k + 1]) / 2.0, float(reduction[f, k])


def fit_tree(
    X: np.ndarray, y: np.ndarray, depth_limit: int, min_split: int, work=None, leaves=None
) -> RegressionTree:
    """Greedy variance-reduction regression tree; leaves hold target means.

    ``work`` is ``split_workspace(X)``, made when omitted; a fit passes the
    same one to every tree.  ``leaves``, when given, is an integer array of
    len(X) that receives the leaf each row of X reaches, ``apply(X)[:, 0]``
    without a second walk.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if len(X) < 1:
        raise ValidationError("fit_tree requires at least one sample")
    if work is None:
        work = split_workspace(X)
    if leaves is None:
        leaves = np.empty(len(X), dtype=np.intp)
    xt, mask = work["xt"], work["mask"]
    nodes = []  # [feature, threshold, left, right, value] of each node, parents first
    # idx: the node's rows in ascending order; order: each searched column's
    # sort of them, as row ids
    def grow(idx, order, depth):
        sub_y = y[idx]
        total = sub_y.sum()
        node = len(nodes)
        # the same bits as sub_y.mean()
        nodes.append([_LEAF, 0.0, _LEAF, _LEAF, float(total / len(idx))])
        # a split's children write their rows again, so a leaf's rows keep it
        leaves[idx] = node
        if depth >= depth_limit or len(idx) < min_split or sub_y.max() == sub_y.min():
            return node
        found = best_split(work, y, order, total, float(sub_y @ sub_y))
        if found is None or found[2] <= 0.0:
            return node
        j, thr, _ = found
        goes_left = xt[j][idx] <= thr
        n_left = np.count_nonzero(goes_left)
        # adjacent floats can round their midpoint onto the upper value
        if n_left == 0 or n_left == len(idx):
            return node
        # masking every row of `order` keeps each child's rows sorted, ties
        # included, so no child sorts again
        mask[idx] = goes_left
        in_left = mask[order]
        left = order[in_left].reshape(len(order), n_left)
        right = order[np.logical_not(in_left, out=in_left)].reshape(len(order), -1)
        nodes[node][:2] = j, thr
        nodes[node][2] = grow(idx[goes_left], left, depth + 1)
        nodes[node][3] = grow(idx[~goes_left], right, depth + 1)
        return node

    grow(np.arange(len(X)), work["order"], 0)
    return RegressionTree([len(nodes)], *zip(*nodes))


@dataclass
class BoostedModel:
    trees: RegressionTree  # every tree, round by round, a tree per class in each
    init_scores: np.ndarray
    n_features: int
    config: GbcConfig

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeError(
                f"feature matrix {X.shape} does not match trained width {self.n_features}"
            )
        scores = np.tile(self.init_scores, (len(X), 1))
        chunk = max(1, _WALK_SIZE // len(self.trees.sizes))
        for start in range(0, len(X), chunk):
            rows = scores[start : start + chunk]
            leaves = self.trees.apply(X[start : start + chunk])
            steps = self.config.learning_rate * self.trees.value[leaves]
            # round by round, as the fit added them
            for step in steps.reshape(len(rows), -1, len(LABELS)).transpose(1, 0, 2):
                rows += step
        return scores


def gbc_fit(X: np.ndarray, labels, cfg: GbcConfig = GbcConfig()):
    """Fit the multiclass boosted model on (feature matrix, labels in {1,0,-1}).

    A label count other than the row count raises ShapeError; a label
    outside {1, 0, -1} or a non-finite feature raises ValidationError.  A
    fit whose final train log-loss is above the initial one raises
    TrainingError, as does one whose class scores stop being finite; a
    rise of up to 16 ulps of the initial loss is rounding, not divergence.
    Returns (BoostedModel, [train log-loss before the first round and after each]).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = list(labels)
    if X.ndim != 2 or len(X) != len(labels):
        raise ShapeError(f"{len(labels)} labels for a feature matrix of shape {X.shape}")
    cls = label_classes(labels)
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        i, j = bad[0]
        raise ValidationError(f"non-finite feature {X[i, j]} at row {i}, column {j}")
    n, n_feat = X.shape
    n_classes = len(LABELS)
    counts = np.bincount(cls, minlength=n_classes).astype(np.float64)
    if np.count_nonzero(counts) < 2:
        raise ValidationError("need at least two classes present to fit")
    priors = (counts + 1e-9) / (n + n_classes * 1e-9)
    init_scores = np.log(priors)
    scores = np.tile(init_scores, (n, 1))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), cls] = 1.0

    work = split_workspace(X)  # every tree of the fit splits the same X
    leaves = np.empty(n, dtype=np.intp)  # each row's leaf in the tree just fit
    trees = []
    logloss = []
    # one softmax per round: its probabilities give the log-loss of the
    # scores so far, then the next round's residuals
    for round_index in range(cfg.n_estimators + 1):
        probs = softmax_batch(scores)
        logloss.append(log_loss(probs, cls))
        if round_index == cfg.n_estimators:
            break
        residual = onehot - probs
        for k in range(n_classes):
            tree = fit_tree(
                X, residual[:, k], cfg.max_depth, cfg.min_samples_split, work, leaves
            )
            hess = probs[:, k] * (1.0 - probs[:, k])
            num = np.bincount(leaves, weights=residual[:, k], minlength=tree.n_nodes)
            den = np.bincount(leaves, weights=hess, minlength=tree.n_nodes)
            upd = np.zeros(tree.n_nodes)
            nonzero = den > 1e-12
            upd[nonzero] = (n_classes - 1) / n_classes * num[nonzero] / den[nonzero]
            tree.value = np.where(tree.feature < 0, upd, tree.value)
            # an overflow here is reported as a TrainingError after the round
            with np.errstate(over="ignore"):
                scores[:, k] += cfg.learning_rate * tree.value[leaves]
            trees.append(tree)
        if not np.isfinite(scores).all():
            raise TrainingError(f"non-finite class scores at boosting round {round_index}")
    if logloss[-1] > logloss[0] + 16 * np.spacing(logloss[0]):
        raise TrainingError(
            f"boosting diverged: final train log-loss {logloss[-1]:.4f}"
            f" is above the initial {logloss[0]:.4f}"
        )
    model = BoostedModel(
        trees=RegressionTree(
            [tree.n_nodes for tree in trees],
            *(np.concatenate([getattr(tree, name) for tree in trees]) for name in _NODE_DTYPES),
        ),
        init_scores=init_scores,
        n_features=n_feat,
        config=cfg,
    )
    return model, logloss


def gbc_predict_batch(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """[N, 3] class probabilities (columns p_1, p_0, p_-1) for the rows of X."""
    return check_probs(softmax_batch(model.decision_scores(X)))


# ---------------------------------------------------------------------------
# Model file: a modelfile container of kind "gbc".  Its arrays are the initial
# scores, then the model's node table: every tree's node count (round-major,
# then class) as "n_nodes", and the five node arrays.

_ARRAYS = {"init_scores": "<f8", "n_nodes": "<i4", **_NODE_DTYPES}


def save_gbc(model: BoostedModel, path) -> None:
    meta = {
        "n_features": model.n_features,
        "config": asdict(model.config),
        "label_to_class": {str(k): v for k, v in LABEL_TO_CLASS.items()},
    }
    arrays = {
        "init_scores": model.init_scores,
        "n_nodes": model.trees.sizes,
        **{name: getattr(model.trees, name) for name in _NODE_DTYPES},
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
        init_scores, n_nodes, *nodes = columns = [arrays[name] for name in _ARRAYS]
        consistent = (
            type(n_features) is int
            and label_to_class == LABEL_TO_CLASS
            and all(a.dtype == dtype and a.ndim == 1 for a, dtype in zip(columns, _ARRAYS.values()))
            and init_scores.shape == (len(LABELS),)
            and n_nodes.shape == (config.n_estimators * len(LABELS),)
            and (n_nodes >= 1).all()
            and all(len(a) == n_nodes.sum() for a in nodes)
            and _trees_are_valid(nodes[0], nodes[2], nodes[3], n_nodes, n_features)
        )
    except (ValueError, KeyError, TypeError, AttributeError, ConfigurationError) as exc:
        raise InputError(f"{path}: bad boosted model metadata: {exc}") from exc
    if not consistent:
        raise InputError(f"{path}: malformed trees, or metadata that does not match them")
    return BoostedModel(
        trees=RegressionTree(n_nodes, *nodes),
        init_scores=np.array(init_scores),
        n_features=n_features,
        config=config,
    )
