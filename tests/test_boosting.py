import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from causalpairs.errors import ConfigurationError, InputError, ShapeError, ValidationError


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


class TestFitTree:
    def test_constant_targets_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        tree = fit_tree(X, np.full(10, 2.5), depth_limit=5, min_split=2)
        assert tree.n_nodes == 1
        assert tree.predict(X) == pytest.approx(np.full(10, 2.5))

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
        leaf_of = tree.apply(X)
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
    idx = tree.apply(X)
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
            got = best_split(X, y)
            want = exhaustive_best_split(X, y)
            assert got is not None and want is not None
            assert got[0] == want[0], f"trial {trial}: feature mismatch"
            assert got[2] == pytest.approx(want[2], abs=1e-10)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_no_split_on_constant_feature(self):
        X = np.ones((6, 1))
        y = np.arange(6.0)
        assert best_split(X, y) is None


def reference_best_split(X, y, features=None):
    """Per-node search: argsort each feature's column again at every node."""
    n, n_feat = X.shape
    cols = range(n_feat) if features is None else features
    total = y.sum()
    total2 = float(y @ y)
    sse_parent = total2 - total * total / n
    best = None
    for j in cols:
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


def reference_fit_tree(X, y, depth_limit, min_split, feature_subsample=None, rng=None):
    """Recursive tree growth calling reference_best_split on each node's rows."""
    n_feat = X.shape[1]
    tree = RegressionTree()

    def grow(idx, depth):
        node = tree._add_node()
        sub_y = y[idx]
        tree.value[node] = float(sub_y.mean())
        if depth >= depth_limit or len(idx) < min_split or np.ptp(sub_y) == 0.0:
            return node
        features = None
        if feature_subsample is not None:
            k = max(1, int(np.floor(feature_subsample * n_feat)))
            features = sorted(rng.choice(n_feat, size=k, replace=False))
        found = reference_best_split(X[idx], sub_y, features)
        if found is None or found[2] <= 0.0:
            return node
        j, thr, _ = found
        goes_left = X[idx, j] <= thr
        if goes_left.all() or not goes_left.any():
            return node
        tree.feature[node] = j
        tree.threshold[node] = thr
        tree.left[node] = grow(idx[goes_left], depth + 1)
        tree.right[node] = grow(idx[~goes_left], depth + 1)
        return node

    grow(np.arange(len(X)), 0)
    return tree.finalize()


def tied_matrix(rng, n=150, n_feat=8):
    """Integer columns with heavy ties, duplicated rows and constant columns."""
    X = rng.integers(0, 4, size=(n, n_feat)).astype(np.float64)
    X[:, 1] = rng.integers(0, 2, size=n)
    X[:, 3] = 7.0
    X[:, n_feat - 1] = 0.0
    X[n // 2:] = X[: n - n // 2]
    X[:, 5] = rng.normal(size=n).round(1)
    return X


class TestPresortedSearch:
    @pytest.mark.parametrize("subsample", [None, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trees_identical_to_reference(self, seed, subsample):
        rng = np.random.default_rng(seed)
        X = tied_matrix(rng)
        for y in (rng.normal(size=len(X)), rng.integers(0, 3, size=len(X)) - 1.0):
            got = fit_tree(X, y, 9, 2, subsample, np.random.default_rng(seed + 10))
            want = reference_fit_tree(X, y, 9, 2, subsample, np.random.default_rng(seed + 10))
            assert got.n_nodes > 1
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_boosted_model_identical_to_reference(self, monkeypatch):
        rng = np.random.default_rng(4)
        X = tied_matrix(rng, n=90)
        labels = [int(v) for v in rng.integers(-1, 2, size=len(X))]
        cfg = GbcConfig(n_estimators=4, max_depth=5, min_samples_split=4,
                        feature_subsample=0.5)
        got = gbc_fit(X, labels, cfg, seed=3)
        monkeypatch.setattr("causalpairs.boosting.fit_tree", reference_fit_tree)
        want = gbc_fit(X, labels, cfg, seed=3)
        assert got.train_logloss == want.train_logloss
        for got_round, want_round in zip(got.trees, want.trees):
            for a, b in zip(got_round, want_round):
                assert np.array_equal(a.threshold, b.threshold)
                assert np.array_equal(a.value, b.value)

    def test_best_split_same_with_and_without_order(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            X = tied_matrix(rng, n=int(rng.integers(2, 60)), n_feat=6)
            y = rng.normal(size=len(X))
            features = sorted(rng.choice(6, size=3, replace=False))
            for feats in (None, features):
                plain = best_split(X, y, feats)
                assert plain == best_split(X, y, feats, presort(X))
                assert plain == reference_best_split(X, y, feats)

    def test_presort_is_stable_column_argsort(self):
        X = tied_matrix(np.random.default_rng(6), n=40)
        assert np.array_equal(presort(X), np.argsort(X, axis=0, kind="stable").T)

    def test_single_row_has_no_split(self):
        assert best_split(np.ones((1, 3)), np.ones(1)) is None


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
        model = gbc_fit(X, labels, GbcConfig(n_estimators=1, learning_rate=0.0))
        p = gbc_predict_batch(model, np.zeros((1, 2)))
        assert p == pytest.approx(np.full((1, 3), 1 / 3), abs=1e-9)

    def test_learning_rate_zero_predicts_priors(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        labels = [1] * 20 + [0] * 10 + [-1] * 10
        model = gbc_fit(X, labels, GbcConfig(n_estimators=5, learning_rate=0.0))
        p = gbc_predict_batch(model, rng.normal(size=(5, 3)))
        assert p == pytest.approx(np.tile([0.5, 0.25, 0.25], (5, 1)), abs=1e-9)

    def test_separable_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(5)
        X, labels = separable_toy(rng)
        model = gbc_fit(X, labels, GbcConfig(n_estimators=50, max_depth=3,
                                             min_samples_split=2))
        from causalpairs.ensemble import predict_labels

        assert predict_labels(gbc_predict_batch(model, X)).tolist() == labels

    def test_logloss_non_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 4))
        margin = X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.3, size=80)
        labels = [1 if m > 0.5 else (-1 if m < -0.5 else 0) for m in margin]
        model = gbc_fit(X, labels, GbcConfig(n_estimators=60, max_depth=3,
                                             min_samples_split=4, learning_rate=0.05))
        ll = np.array(model.train_logloss)
        assert (np.diff(ll) <= 1e-12).all()
        assert ll[60] <= ll[30]

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            gbc_fit(np.zeros((5, 2)), [1] * 5)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X, labels = separable_toy(rng, n=40)
        cfg = GbcConfig(n_estimators=10, max_depth=3, min_samples_split=2)
        m1 = gbc_fit(X, labels, cfg)
        m2 = gbc_fit(X, labels, cfg)
        assert m1.train_logloss == m2.train_logloss

    def test_config_defaults_match_contract(self):
        cfg = GbcConfig()
        assert cfg.n_estimators == 500
        assert cfg.max_depth == 9
        assert cfg.min_samples_split == 8
        assert cfg.feature_subsample is None

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            GbcConfig(n_estimators=0)
        with pytest.raises(ConfigurationError):
            GbcConfig(feature_subsample=1.5)


class TestGbcPredict:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        X, labels = separable_toy(rng, n=30)
        model = gbc_fit(X, labels, GbcConfig(n_estimators=10, max_depth=2,
                                             min_samples_split=2))
        p = gbc_predict_batch(model, rng.normal(size=(10, 2)))
        assert p.shape == (10, 3) and p.dtype == np.float64
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_purity(self):
        rng = np.random.default_rng(16)
        X, labels = separable_toy(rng, n=30)
        model = gbc_fit(X, labels, GbcConfig(n_estimators=5, max_depth=2,
                                             min_samples_split=2))
        rows = rng.normal(size=(3, 2))
        assert gbc_predict_batch(model, rows).tobytes() == gbc_predict_batch(model, rows).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_is_validation_error(self):
        rng = np.random.default_rng(18)
        X, labels = separable_toy(rng, n=30)
        model = gbc_fit(X, labels, GbcConfig(n_estimators=2, max_depth=2,
                                             min_samples_split=2))
        model.init_scores[...] = np.inf
        with pytest.raises(ValidationError, match="out of range"):
            gbc_predict_batch(model, X[:2])

    def test_feature_width_mismatch(self):
        rng = np.random.default_rng(17)
        X, labels = separable_toy(rng, n=30)
        model = gbc_fit(X, labels, GbcConfig(n_estimators=2, max_depth=2,
                                             min_samples_split=2))
        with pytest.raises(ShapeError):
            gbc_predict_batch(model, np.zeros((1, 5)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        X, labels = separable_toy(rng, n=50)
        model = gbc_fit(X, labels, GbcConfig(n_estimators=8, max_depth=3,
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

    def test_save_twice_identical(self, tmp_path):
        rng = np.random.default_rng(20)
        X, labels = separable_toy(rng, n=30)
        model = gbc_fit(X, labels, GbcConfig(n_estimators=3, max_depth=2,
                                             min_samples_split=2))
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_gbc(model, p1)
        save_gbc(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """Path, bytes and training rows of a 2-round depth-2 model file."""
    rng = np.random.default_rng(21)
    X, labels = separable_toy(rng, n=30)
    model = gbc_fit(X, labels, GbcConfig(n_estimators=2, max_depth=2,
                                         min_samples_split=2))
    path = tmp_path_factory.mktemp("gbc") / "small.model"
    save_gbc(model, path)
    return path, path.read_bytes(), X


class TestCorruptModel:
    def test_every_truncation_is_input_error(self, small_model, tmp_path):
        _, data, _ = small_model
        path = tmp_path / "cut.model"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(InputError):
                load_gbc(path)

    def test_trailing_bytes(self, small_model, tmp_path):
        _, data, _ = small_model
        path = tmp_path / "long.model"
        path.write_bytes(data + b"\0")
        with pytest.raises(InputError, match="trailing"):
            load_gbc(path)

    def test_bad_version(self, small_model, tmp_path):
        _, data, _ = small_model
        path = tmp_path / "v2.model"
        path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        with pytest.raises(InputError, match="version"):
            load_gbc(path)

    def test_bad_metadata(self, small_model, tmp_path):
        _, data, _ = small_model
        meta_start = data.rindex(b'{"config"')
        meta = data[meta_start:]
        path = tmp_path / "meta.model"
        for bad in (b"x" * len(meta), meta.replace(b'"train_logloss"', b'"train_logl0ss"')):
            path.write_bytes(data[:meta_start] + bad)
            with pytest.raises(InputError, match="metadata"):
                load_gbc(path)

    def test_child_pointing_backwards(self, small_model, tmp_path):
        src, data, _ = small_model
        n_nodes = load_gbc(src).trees[0][0].n_nodes
        # magic, header, 3 init scores, node count, feature and threshold arrays
        left = 4 + 24 + 8 * 3 + 4 + 12 * n_nodes
        path = tmp_path / "loop.model"
        path.write_bytes(data[:left] + struct.pack("<i", 0) + data[left + 4:])
        with pytest.raises(InputError, match="malformed tree"):
            load_gbc(path)

    @given(bit=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_bit_flip_is_input_error_or_usable_model(self, small_model, bit):
        src, data, X = small_model
        bit %= 8 * len(data)
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path = src.with_name("flip.model")
        path.write_bytes(bytes(flipped))
        try:
            model = load_gbc(path)
        except InputError:
            return
        # a flip inside a float, or onto another valid index, leaves a model
        # the v1 format cannot tell apart; it must still predict and stop
        if model.n_features != X.shape[1]:
            with pytest.raises(ShapeError):
                model.decision_scores(X)
            return
        with np.errstate(all="ignore"):
            assert model.decision_scores(X).shape == (len(X), 3)
