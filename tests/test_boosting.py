import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from causalpairs import boosting, modelfile
from causalpairs.boosting import (
    BoostedModel,
    GbcConfig,
    RegressionTree,
    best_split,
    fit_tree,
    gbc_fit,
    gbc_predict_batch,
    load_gbc,
    presort,
    save_gbc,
    split_workspace,
)
from causalpairs.errors import (
    ConfigurationError,
    InputError,
    ShapeError,
    TrainingError,
    ValidationError,
)

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")
# a RegressionTree's arrays: its per-tree node counts, then its node arrays
TABLE_ARRAYS = ("sizes", *NODE_ARRAYS)


def exhaustive_best_split(X, y):
    """Brute-force oracle: try every (feature, midpoint) split, computing
    SSE reduction with explicit per-side mean subtraction."""
    n, n_feat = X.shape
    parent = float(((y - y.mean()) ** 2).sum())
    best = None
    for j in range(n_feat):
        for thr in sorted(set((a + b) / 2.0 for a, b in
                              zip(sorted(set(X[:, j]))[:-1], sorted(set(X[:, j]))[1:]))):
            left = y[X[:, j] <= thr]
            right = y[X[:, j] > thr]
            if len(left) == 0 or len(right) == 0:
                continue
            sse = (((left - left.mean()) ** 2).sum()
                   + ((right - right.mean()) ** 2).sum())
            reduction = parent - sse
            if best is None or reduction > best[2]:
                best = (j, thr, reduction)
    return best


def root_split(X, y):
    """best_split at the root of a fit on (X, y), as fit_tree calls it."""
    work = split_workspace(X)
    return best_split(work, y, work["order"], y.sum(), float(y @ y))


def node_split(work, y, rows):
    """best_split at a node holding ``rows`` (ascending) of the workspace's fit."""
    order = work["order"]
    node = order[np.isin(order, rows)].reshape(len(order), len(rows))
    return best_split(work, y, node, y[rows].sum(), float(y[rows] @ y[rows]))


class TestFitTree:
    def test_constant_targets_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        tree = fit_tree(X, np.full(10, 2.5), depth_limit=5, min_split=2)
        assert tree.n_nodes == 1
        assert tree.value[tree.apply(X)[:, 0]] == pytest.approx(np.full(10, 2.5))

    def test_two_cluster_split(self):
        # {0->0, 1->0, 10->9, 11->9}: only the middle gap removes all variance
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 9.0, 9.0])
        tree = fit_tree(X, y, depth_limit=1, min_split=2)
        assert tree.feature[0] == 0
        assert 1.0 < tree.threshold[0] < 10.0
        leaves = sorted(tree.value[tree.feature < 0])
        assert leaves == pytest.approx([0.0, 9.0])

    def test_depth_limit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 2))
        y = rng.normal(size=64)
        tree = fit_tree(X, y, depth_limit=2, min_split=2)

        def depth(node, d=0):
            if tree.feature[node] < 0:
                return d
            return max(depth(tree.left[node], d + 1), depth(tree.right[node], d + 1))

        assert depth(0) <= 2

    def test_min_split_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_tree(X, y, depth_limit=12, min_split=10)
        counts = np.zeros(tree.n_nodes, dtype=int)
        leaf_of = tree.apply(X)[:, 0]
        for leaf in leaf_of:
            counts[leaf] += 1
        # every split node had >= 10 samples, so no leaf pair sums below 10
        internal = np.flatnonzero(tree.feature >= 0)
        for node in internal:
            sub = _samples_under(tree, node, X)
            assert sub >= 10

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            fit_tree(np.empty((0, 2)), np.empty(0), 3, 2)


def _samples_under(tree, node, X):
    idx = tree.apply(X)[:, 0]
    reach = set()

    def collect(k):
        if tree.feature[k] < 0:
            reach.add(k)
        else:
            collect(tree.left[k])
            collect(tree.right[k])

    collect(node)
    return sum(1 for leaf in idx if leaf in reach)


class TestSplitOracle:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(5, 101))
            f = int(rng.integers(1, 6))
            X = rng.normal(size=(n, f))
            y = rng.normal(size=n)
            got = root_split(X, y)
            want = exhaustive_best_split(X, y)
            assert got is not None and want is not None
            assert got[0] == want[0], f"trial {trial}: feature mismatch"
            assert got[2] == pytest.approx(want[2], abs=1e-10)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_no_split_on_constant_feature(self):
        X = np.ones((6, 1))
        y = np.arange(6.0)
        assert root_split(X, y) is None


def reference_best_split(X, y):
    """Per-node search: argsort each feature's column again at every node."""
    n, n_feat = X.shape
    total = y.sum()
    total2 = float(y @ y)
    sse_parent = total2 - total * total / n
    best = None
    for j in range(n_feat):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            continue
        csum = np.cumsum(ys)[:-1]
        c2 = np.cumsum(ys * ys)[:-1]
        n_left = np.arange(1, n)
        sse_left = c2 - csum * csum / n_left
        sse_right = (total2 - c2) - (total - csum) ** 2 / (n - n_left)
        reduction = np.where(valid, sse_parent - sse_left - sse_right, -np.inf)
        k = int(np.argmax(reduction))
        if reduction[k] == -np.inf:
            continue
        if best is None or reduction[k] > best[2]:
            best = (j, (xs[k] + xs[k + 1]) / 2.0, float(reduction[k]))
    return best


def reference_fit_tree(X, y, depth_limit, min_split, work=None, leaves=None):
    """Recursive tree growth calling reference_best_split on each node's rows.

    Takes and ignores the workspace that gbc_fit passes; fills
    the leaves it passes by walking the finished tree with apply.
    """
    nodes = []  # one dict per node, in the order they are made

    def grow(idx, depth):
        index = len(nodes)
        sub_y = y[idx]
        node = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1,
                "value": float(sub_y.mean())}
        nodes.append(node)
        if depth >= depth_limit or len(idx) < min_split or np.ptp(sub_y) == 0.0:
            return index
        found = reference_best_split(X[idx], sub_y)
        if found is None or found[2] <= 0.0:
            return index
        j, thr, _ = found
        goes_left = X[idx, j] <= thr
        if goes_left.all() or not goes_left.any():
            return index
        node.update(feature=j, threshold=thr,
                    left=grow(idx[goes_left], depth + 1), right=grow(idx[~goes_left], depth + 1))
        return index

    grow(np.arange(len(X)), 0)
    tree = RegressionTree([len(nodes)], *([node[name] for node in nodes] for name in NODE_ARRAYS))
    if leaves is not None:
        leaves[:] = tree.apply(X)[:, 0]
    return tree


def tied_matrix(rng, n=150, n_feat=8):
    """Integer columns with heavy ties, duplicated rows and constant columns."""
    X = rng.integers(0, 4, size=(n, n_feat)).astype(np.float64)
    X[:, 1] = rng.integers(0, 2, size=n)
    X[:, 3] = 7.0
    X[:, n_feat - 1] = 0.0
    X[n // 2:] = X[: n - n // 2]
    X[:, 5] = rng.normal(size=n).round(1)
    return X


def train_shaped_matrix(rng, n=200):
    """43 columns like the benchmark's train features: 21 hold one value each.

    Columns 0-19 and 34 are constant, and column 10 mixes -0.0 and +0.0,
    which compare equal.  The others are normals rounded into ties.
    """
    X = rng.normal(size=(n, 43)).round(2)
    X[:, :20] = np.repeat([1.0, 0.0, 0.5, 0.29, -0.0, -1.2, 1.0, 1.0, 0.1, 0.1], 2)
    X[:, 10] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    X[:, 34] = 6.2
    return X


def unsplittable_case(name, rng):
    """A matrix whose named columns can never split, and its splittable columns."""
    if name == "constant_first_and_last":
        X = tied_matrix(rng)  # columns 3 and 7 are constant
        X[:, 0] = -2.5
        return X, [1, 2, 4, 5, 6]
    if name == "all_constant":
        return np.tile([1.5, -2.0, 0.0, 7.0], (90, 1)), []
    if name == "signed_zeros":
        X = tied_matrix(rng)
        X[:, 2] = np.where(rng.random(len(X)) < 0.5, -0.0, 0.0)
        X[:, 4] = rng.choice([-0.0, 0.0, 1.0], size=len(X))
        return X, [0, 1, 4, 5, 6]
    if name == "train_shaped":
        return train_shaped_matrix(rng), [j for j in range(20, 43) if j != 34]
    raise KeyError(name)


UNSPLITTABLE = ["constant_first_and_last", "all_constant", "signed_zeros", "train_shaped"]


class TestPresortedSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trees_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        X = tied_matrix(rng)
        for y in (rng.normal(size=len(X)), rng.integers(0, 3, size=len(X)) - 1.0):
            got = fit_tree(X, y, 9, 2)
            want = reference_fit_tree(X, y, 9, 2)
            assert got.n_nodes > 1
            for name in TABLE_ARRAYS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_handed_back_leaves_equal_apply(self, seed):
        rng = np.random.default_rng(seed)
        X = tied_matrix(rng)
        # adjacent floats, whose midpoint can round onto the upper one
        X[:, 2] = np.where(rng.random(len(X)) < 0.5, 1.0, np.nextafter(1.0, 2.0))
        for depth, y in ((9, rng.normal(size=len(X))), (3, rng.integers(0, 3, size=len(X)) - 1.0)):
            leaves = np.full(len(X), -1)
            tree = fit_tree(X, y, depth, 4, leaves=leaves)
            assert tree.n_nodes > 1
            assert np.array_equal(leaves, tree.apply(X)[:, 0])

    def test_boosted_model_identical_to_reference(self, monkeypatch):
        rng = np.random.default_rng(4)
        X = tied_matrix(rng, n=90)
        labels = [int(v) for v in rng.integers(-1, 2, size=len(X))]
        cfg = GbcConfig(n_estimators=4, max_depth=5, min_samples_split=4)
        got, got_logloss = gbc_fit(X, labels, cfg)
        monkeypatch.setattr("causalpairs.boosting.fit_tree", reference_fit_tree)
        want, want_logloss = gbc_fit(X, labels, cfg)
        assert got_logloss == want_logloss
        assert len(got.trees.sizes) == 4 * 3
        for name in TABLE_ARRAYS:
            assert np.array_equal(getattr(got.trees, name), getattr(want.trees, name)), name

    def test_best_split_same_with_and_without_order(self):
        """A node searched through the fit's order of row ids splits as its rows alone do."""
        rng = np.random.default_rng(5)
        for trial in range(30):
            X = tied_matrix(rng, n=int(rng.integers(2, 60)), n_feat=6)
            y = rng.normal(size=len(X))
            rows = np.flatnonzero(rng.random(len(X)) < 0.6)
            plain = root_split(X[rows], y[rows])
            assert plain == node_split(split_workspace(X), y, rows)
            assert plain == reference_best_split(X[rows], y[rows])

    def test_best_split_with_workspace_allocates_no_feature_by_row_array(self):
        rng = np.random.default_rng(7)
        n_feat, peaks = 43, {}
        for n in (1000, 4000):
            X, y = rng.normal(size=(n, n_feat)), rng.normal(size=n)
            work = split_workspace(X)
            want = root_split(X, y)
            # the fit's workspace serves a smaller node too
            half = np.arange(n // 2)
            assert node_split(work, y, half) == root_split(X[half], y[half])
            sums = y.sum(), float(y @ y)
            tracemalloc.start()
            try:
                assert best_split(work, y, work["order"], *sums) == want
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # what remains is n-long vectors and numpy's fixed iterator buffers:
        # less than one byte per added [n_features, n] element
        assert peaks[4000] - peaks[1000] < n_feat * 3000
        assert peaks[4000] < n_feat * 4000

    @pytest.mark.parametrize("case", UNSPLITTABLE)
    def test_columns_that_cannot_split_are_not_searched(self, case):
        X, searched = unsplittable_case(case, np.random.default_rng(10))
        assert split_workspace(X)["columns"].tolist() == searched
        rng = np.random.default_rng(11)
        for y in (rng.normal(size=len(X)), rng.integers(0, 3, size=len(X)) - 1.0):
            got = fit_tree(X, y, 9, 2)
            want = reference_fit_tree(X, y, 9, 2)
            assert (got.n_nodes > 1) == bool(searched)
            for name in TABLE_ARRAYS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("case", UNSPLITTABLE)
    def test_boosted_model_without_unsplittable_columns_identical_to_reference(
        self, case, monkeypatch
    ):
        X, _ = unsplittable_case(case, np.random.default_rng(12))
        labels = [int(v) for v in np.random.default_rng(13).integers(-1, 2, size=len(X))]
        cfg = GbcConfig(n_estimators=4, max_depth=5, min_samples_split=4)
        got, got_logloss = gbc_fit(X, labels, cfg)
        monkeypatch.setattr("causalpairs.boosting.fit_tree", reference_fit_tree)
        want, want_logloss = gbc_fit(X, labels, cfg)
        assert got_logloss == want_logloss
        for name in TABLE_ARRAYS:
            assert np.array_equal(getattr(got.trees, name), getattr(want.trees, name)), name

    def test_nan_tailed_column_is_searched(self):
        rng = np.random.default_rng(14)
        X = tied_matrix(rng)
        X[:, 5] = np.where(rng.random(len(X)) < 0.1, np.nan, X[:, 5])
        X[:, 6] = np.where(rng.random(len(X)) < 0.1, np.nan, 2.0)  # one value, then NaN
        # NaN compares false, so its rows go right
        y = np.where(X[:, 5] > 0.3, 5.0, 0.0) + rng.normal(scale=0.1, size=len(X))
        assert split_workspace(X)["columns"].tolist() == [0, 1, 2, 4, 5, 6]
        got = fit_tree(X, y, 9, 2)
        want = reference_fit_tree(X, y, 9, 2)
        assert got.feature[0] == 5
        for name in TABLE_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_fit_tree_calls_best_split_through_the_module_once_per_searched_node(
        self, monkeypatch
    ):
        rng = np.random.default_rng(15)
        X = tied_matrix(rng)
        y = rng.normal(size=len(X))
        depth_limit, min_split = 6, 8
        plain = fit_tree(X, y, depth_limit, min_split)
        sizes = []  # the row count of each node searched

        def counted(work, y, order, total, total2):
            sizes.append(order.shape[1])
            return best_split(work, y, order, total, total2)

        monkeypatch.setattr(boosting, "best_split", counted)
        tree = fit_tree(X, y, depth_limit, min_split)
        for name in TABLE_ARRAYS:
            assert np.array_equal(getattr(tree, name), getattr(plain, name)), name
        # nodes below the depth limit with enough rows and a target that
        # varies, in the order fit_tree makes them
        want = []

        def walk(node, rows, depth):
            if depth < depth_limit and len(rows) >= min_split and np.ptp(y[rows]) > 0:
                want.append(len(rows))
            if tree.feature[node] >= 0:
                left = X[rows, tree.feature[node]] <= tree.threshold[node]
                walk(tree.left[node], rows[left], depth + 1)
                walk(tree.right[node], rows[~left], depth + 1)

        walk(0, np.arange(len(X)), 0)
        assert sizes == want
        assert len(want) >= np.count_nonzero(tree.feature >= 0) > 1

    def test_presort_is_stable_column_argsort(self):
        X = tied_matrix(np.random.default_rng(6), n=40)
        assert np.array_equal(presort(X), np.argsort(X, axis=0, kind="stable").T)

    def test_single_row_has_no_split(self):
        assert root_split(np.ones((1, 3)), np.ones(1)) is None
        # a one-row node of a fit whose column can split
        work = split_workspace(np.array([[0.0], [1.0]]))
        assert node_split(work, np.array([0.0, 1.0]), np.array([1])) is None


def separable_toy(rng, n=60):
    """Two informative features, three linearly separable classes."""
    labels = np.array([1, 0, -1])[rng.integers(0, 3, size=n)]
    centers = {1: (2.0, 0.0), 0: (0.0, 2.0), -1: (-2.0, -2.0)}
    X = np.array([centers[l] for l in labels]) + rng.normal(scale=0.2, size=(n, 2))
    return X, [int(l) for l in labels]


class TestGbcFit:
    def test_zero_rounds_equal_priors(self):
        X = np.zeros((30, 2))
        labels = [1] * 10 + [0] * 10 + [-1] * 10
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=1, learning_rate=0.0))
        p = gbc_predict_batch(model, np.zeros((1, 2)))
        assert p == pytest.approx(np.full((1, 3), 1 / 3), abs=1e-9)

    def test_learning_rate_zero_predicts_priors(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        labels = [1] * 20 + [0] * 10 + [-1] * 10
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=5, learning_rate=0.0))
        p = gbc_predict_batch(model, rng.normal(size=(5, 3)))
        assert p == pytest.approx(np.tile([0.5, 0.25, 0.25], (5, 1)), abs=1e-9)

    def test_separable_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(5)
        X, labels = separable_toy(rng)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=50, max_depth=3,
                                                min_samples_split=2))
        from causalpairs.ensemble import predict_labels

        assert predict_labels(gbc_predict_batch(model, X)).tolist() == labels

    def test_logloss_non_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 4))
        margin = X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.3, size=80)
        labels = [1 if m > 0.5 else (-1 if m < -0.5 else 0) for m in margin]
        _, ll = gbc_fit(X, labels, GbcConfig(n_estimators=60, max_depth=3,
                                             min_samples_split=4, learning_rate=0.05))
        ll = np.array(ll)
        assert (np.diff(ll) <= 1e-12).all()
        assert ll[60] <= ll[30]

    def test_loss_ending_above_the_initial_is_training_error(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        cfg = GbcConfig(n_estimators=5, max_depth=2, min_samples_split=2, learning_rate=1e10)
        with pytest.raises(TrainingError, match=r"log-loss 7\.7712 is above the initial 1\.0397"):
            gbc_fit(X, [1, 0, -1, 0] * 10, cfg)

    @pytest.mark.parametrize("label_seed, rounds", [(2, 4), (4, 4), (17, 30)])
    def test_fit_with_nothing_to_learn_is_not_divergence(self, label_seed, rounds):
        # every row is the same, so every tree is one leaf; rounding alone
        # ended these fits 1 to 3 ulps above their initial loss
        X = np.tile([1.5, -2.0, 0.0, 7.0], (90, 1))
        labels = np.random.default_rng(label_seed).integers(-1, 2, 90)
        model, ll = gbc_fit(X, labels, GbcConfig(n_estimators=rounds, max_depth=5))
        assert ll[-1] == pytest.approx(ll[0], rel=1e-14)
        assert (model.trees.feature < 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            gbc_fit(np.zeros((5, 2)), [1] * 5)

    def test_label_outside_the_three_is_validation_error(self):
        with pytest.raises(ValidationError, match="label 2 at row 3 is not one of 1, 0, -1"):
            gbc_fit(np.zeros((5, 2)), [1, 0, -1, 2, 1])

    def test_label_count_other_than_row_count_is_shape_error(self):
        with pytest.raises(ShapeError, match=r"4 labels for a feature matrix of shape \(5, 2\)"):
            gbc_fit(np.zeros((5, 2)), [1, 0, -1, 1])
        with pytest.raises(ShapeError, match=r"shape \(5,\)"):
            gbc_fit(np.zeros(5), [1, 0, -1, 1, 0])

    def test_non_finite_feature_is_validation_error(self):
        X = np.random.default_rng(16).normal(size=(6, 3))
        X[5, 0] = np.inf
        X[4, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite feature nan at row 4, column 2"):
            gbc_fit(X, [1, 0, -1, 1, 0, -1])

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X, labels = separable_toy(rng, n=40)
        cfg = GbcConfig(n_estimators=10, max_depth=3, min_samples_split=2)
        _, ll1 = gbc_fit(X, labels, cfg)
        _, ll2 = gbc_fit(X, labels, cfg)
        assert ll1 == ll2

    def test_config_defaults_match_contract(self):
        cfg = GbcConfig()
        assert cfg.n_estimators == 500
        assert cfg.max_depth == 9
        assert cfg.min_samples_split == 8
        assert cfg.learning_rate == 0.1
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "n_estimators", "max_depth", "min_samples_split", "learning_rate"
        ]

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            GbcConfig(n_estimators=0)
        for rate in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="learning_rate"):
                GbcConfig(learning_rate=rate)


class TestGbcPredict:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        X, labels = separable_toy(rng, n=30)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=10, max_depth=2,
                                                min_samples_split=2))
        p = gbc_predict_batch(model, rng.normal(size=(10, 2)))
        assert p.shape == (10, 3) and p.dtype == np.float64
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_purity(self):
        rng = np.random.default_rng(16)
        X, labels = separable_toy(rng, n=30)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=5, max_depth=2,
                                                min_samples_split=2))
        rows = rng.normal(size=(3, 2))
        assert gbc_predict_batch(model, rows).tobytes() == gbc_predict_batch(model, rows).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_is_validation_error(self):
        rng = np.random.default_rng(18)
        X, labels = separable_toy(rng, n=30)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=2, max_depth=2,
                                                min_samples_split=2))
        model.init_scores[...] = np.inf
        with pytest.raises(ValidationError, match="out of range"):
            gbc_predict_batch(model, X[:2])

    def test_feature_width_mismatch(self):
        rng = np.random.default_rng(17)
        X, labels = separable_toy(rng, n=30)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=2, max_depth=2,
                                                min_samples_split=2))
        with pytest.raises(ShapeError):
            gbc_predict_batch(model, np.zeros((1, 5)))


def joined(trees):
    """One table holding the given tables' trees, in order."""
    return RegressionTree(
        np.concatenate([t.sizes for t in trees]),
        *(np.concatenate([getattr(t, name) for t in trees]) for name in NODE_ARRAYS),
    )


def split_up(table):
    """The one-tree tables a table holds, in order."""
    return [
        RegressionTree([size], *(getattr(table, name)[start : start + size] for name in NODE_ARRAYS))
        for start, size in zip(table.starts, table.sizes)
    ]


def reference_scores(model, X):
    """Class scores added one tree at a time: round by round, class by class."""
    scores = np.tile(model.init_scores, (len(X), 1))
    for i, tree in enumerate(split_up(model.trees)):
        scores[:, i % 3] += model.config.learning_rate * tree.value[tree.apply(X)[:, 0]]
    return scores


class TestNodeTable:
    def test_apply_matches_a_walk_of_each_tree(self):
        rng = np.random.default_rng(22)
        X = tied_matrix(rng, n=60, n_feat=6)
        trees = [
            fit_tree(X, rng.normal(size=len(X)), 4, 2),
            fit_tree(X, np.full(len(X), 0.5), 4, 2),  # a single leaf
            fit_tree(X, rng.integers(0, 3, size=len(X)) - 1.0, 9, 2),
        ]
        assert trees[1].n_nodes == 1
        table = joined(trees)
        rows = np.vstack([X, rng.normal(size=(20, 6))])
        leaves = table.apply(rows)
        assert leaves.shape == (len(rows), 3)
        for t, (tree, start) in enumerate(zip(trees, table.starts)):
            for r, x in enumerate(rows):
                node = 0
                while tree.feature[node] >= 0:
                    f = tree.feature[node]
                    node = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
                assert leaves[r, t] == start + node

    def test_decision_scores_bytes_match_a_per_tree_reference(self):
        rng = np.random.default_rng(23)
        X, labels = separable_toy(rng, n=60)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=40, max_depth=3,
                                                min_samples_split=2))
        # several chunks of rows, the last one partial
        rows = rng.normal(scale=2.0, size=(3 * boosting._WALK_SIZE // 120 + 7, 2))
        assert model.decision_scores(rows).tobytes() == reference_scores(model, rows).tobytes()

    def test_walk_memory_is_bounded_by_one_chunk(self):
        rng = np.random.default_rng(24)
        X, labels = separable_toy(rng, n=60)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=10, max_depth=3,
                                                min_samples_split=2))
        # the same rounds eight times over: eight times the trees
        longer = dataclasses.replace(model, trees=joined(split_up(model.trees) * 8))
        chunk = boosting._WALK_SIZE // len(model.trees.sizes)
        rows = rng.normal(size=(8 * chunk, 2))

        def peak(m, batch):
            tracemalloc.start()
            try:
                m.decision_scores(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one_chunk = peak(model, rows[:chunk])
        assert peak(model, rows) < 1.5 * one_chunk
        assert peak(longer, rows) < 1.5 * one_chunk


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        X, labels = separable_toy(rng, n=50)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=8, max_depth=3,
                                                min_samples_split=2))
        path = tmp_path / "g.model"
        save_gbc(model, path)
        loaded = load_gbc(path)
        assert isinstance(loaded, BoostedModel)
        assert loaded.config == model.config
        assert loaded.n_features == 2
        a = loaded.decision_scores(X)
        b = model.decision_scores(X)
        assert a == pytest.approx(b, abs=0)

    def test_load_returns_the_saved_table(self, tmp_path):
        rng = np.random.default_rng(25)
        X, labels = separable_toy(rng, n=40)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=6, max_depth=3,
                                                min_samples_split=2))
        save_gbc(model, tmp_path / "g.model")
        loaded = load_gbc(tmp_path / "g.model")
        assert loaded.init_scores.tobytes() == model.init_scores.tobytes()
        for name in TABLE_ARRAYS:
            a, b = getattr(loaded.trees, name), getattr(model.trees, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_save_twice_identical(self, tmp_path):
        rng = np.random.default_rng(20)
        X, labels = separable_toy(rng, n=30)
        model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=3, max_depth=2,
                                                min_samples_split=2))
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_gbc(model, p1)
        save_gbc(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """Path and bytes of a 2-round depth-2 model file."""
    rng = np.random.default_rng(21)
    X, labels = separable_toy(rng, n=30)
    model, _ = gbc_fit(X, labels, GbcConfig(n_estimators=2, max_depth=2,
                                            min_samples_split=2))
    path = tmp_path_factory.mktemp("gbc") / "small.model"
    save_gbc(model, path)
    return path, path.read_bytes()


class TestCorruptModel:
    def rewrite(self, small_model, tmp_path, edit):
        """Load a copy of the small model whose meta and arrays went through edit.

        The copy is written by modelfile.write, so its digest is valid.
        """
        src, _ = small_model
        _, meta, arrays = modelfile.read(src, "gbc")
        arrays = {name: np.array(a) for name, a in arrays.items()}
        edit(meta, arrays)
        path = tmp_path / "edited.model"
        modelfile.write(path, "gbc", meta, arrays)
        return load_gbc(path)

    def test_every_truncation_is_input_error(self, small_model, tmp_path):
        _, data = small_model
        path = tmp_path / "cut.model"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(InputError):
                load_gbc(path)

    def test_trailing_bytes(self, small_model, tmp_path):
        _, data = small_model
        path = tmp_path / "long.model"
        path.write_bytes(data + b"\0")
        with pytest.raises(InputError, match="checksum"):
            load_gbc(path)

    def test_bad_version(self, small_model, tmp_path):
        _, data = small_model
        path = tmp_path / "v3.model"
        body = data[:4] + struct.pack("<I", 3) + data[8:-32]
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(InputError, match="version"):
            load_gbc(path)

    def test_version_1_file(self, tmp_path):
        path = tmp_path / "v1.model"
        path.write_bytes(b"CPBG" + struct.pack("<IIIId", 1, 0, 3, 2, 0.1))
        with pytest.raises(InputError, match="retrain"):
            load_gbc(path)

    def test_bad_metadata(self, small_model, tmp_path):
        edits = [
            lambda meta, arrays: meta.pop("n_features"),
            lambda meta, arrays: meta["config"].update(depth=3),
            lambda meta, arrays: meta["config"].update(max_depth=0),
            lambda meta, arrays: meta.update(label_to_class={"one": 0}),
            lambda meta, arrays: arrays.pop("value"),
        ]
        for edit in edits:
            with pytest.raises(InputError, match=r"edited\.model: bad boosted model metadata"):
                self.rewrite(small_model, tmp_path, edit)

    def test_file_with_older_meta_keys_scores_the_same(self, small_model, tmp_path):
        def older(meta, arrays):
            meta["train_logloss"] = [1.09, 0.8, 0.6]

        X = np.random.default_rng(26).normal(scale=2.0, size=(20, 2))
        want = gbc_predict_batch(self.rewrite(small_model, tmp_path, lambda meta, arrays: None), X)
        got = gbc_predict_batch(self.rewrite(small_model, tmp_path, older), X)
        assert got.tobytes() == want.tobytes()

    def test_metadata_disagreeing_with_arrays(self, small_model, tmp_path):
        edits = [
            lambda meta, arrays: meta.update(n_features="2"),
            lambda meta, arrays: meta.update(label_to_class={"1": 2, "0": 1, "-1": 0}),
            # a round more than the file's node counts hold
            lambda meta, arrays: meta["config"].update(n_estimators=3),
            lambda meta, arrays: arrays.update(left=arrays["left"].astype(np.float64)),
            lambda meta, arrays: arrays.update(value=arrays["value"][None]),
            lambda meta, arrays: arrays.update(init_scores=arrays["init_scores"][:2]),
            lambda meta, arrays: arrays.update(n_nodes=arrays["n_nodes"][:-1]),
        ]
        for edit in edits:
            with pytest.raises(InputError, match="metadata that does not match"):
                self.rewrite(small_model, tmp_path, edit)

    def test_child_pointing_backwards(self, small_model, tmp_path):
        def edit(meta, arrays):
            split = np.flatnonzero(arrays["feature"] >= 0)[0]
            arrays["left"][split] = split

        with pytest.raises(InputError, match="malformed trees"):
            self.rewrite(small_model, tmp_path, edit)

    def test_other_malformed_trees(self, small_model, tmp_path):
        def root_child(side, value):
            def edit(meta, arrays):
                assert arrays["feature"][0] >= 0
                arrays[side][0] = value(arrays)
            return edit

        def node_counts(change):
            def edit(meta, arrays):
                arrays["n_nodes"] = change(arrays["n_nodes"]).astype(np.int32)
            return edit

        def empty_last_tree(meta, arrays):
            n = arrays["n_nodes"][-1]
            arrays["n_nodes"][-1] = 0
            for name in NODE_ARRAYS:
                arrays[name] = arrays[name][:-n]

        edits = [
            root_child("right", lambda arrays: -1),
            # past the end of the first tree, though inside the second
            root_child("right", lambda arrays: arrays["n_nodes"][0]),
            root_child("left", lambda arrays: 0),
            node_counts(lambda n: np.r_[n[:-1], n[-1] + 1]),
            node_counts(lambda n: np.r_[0, n[0] + n[1], n[2:]]),
            empty_last_tree,
            lambda meta, arrays: meta.update(n_features=0),
            lambda meta, arrays: arrays["feature"].__setitem__(0, -2),
        ]
        for edit in edits:
            with pytest.raises(InputError, match="malformed trees"):
                self.rewrite(small_model, tmp_path, edit)

    def test_every_bit_flip_is_input_error(self, small_model, tmp_path):
        _, data = small_model
        path = tmp_path / "flip.model"
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(flipped)
            with pytest.raises(InputError):
                load_gbc(path)
