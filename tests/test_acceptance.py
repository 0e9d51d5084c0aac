"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The module holds criteria 1 to 7.  Criteria 8 (the synthetic benchmark)
and 9 (the sparse sweep) are not written yet: they would gate the paper's
claims on trained models, and wait until the CNN learns (ROADMAP item 1).
Every tolerance is pinned here.
"""

import time

import numpy as np

from causalpairs.boosting import (
    GbcConfig,
    best_split,
    gbc_fit,
    gbc_predict_batch,
    split_workspace,
)
from causalpairs.cnn import CnnArchitecture, TrainConfig, predict_batch, train_cnn
from causalpairs.cli import _with_twins
from causalpairs.dataset import AttributeKind, PairInstance, augment_swap
from causalpairs.ensemble import (
    WEIGHT_GRID,
    accuracy,
    ensemble,
    predict_labels,
    rank_auc,
    tune_weight,
)
from causalpairs.features import SWAP_ORDER, extract_features
from causalpairs.nnet import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    Network,
    Relu,
    gradient_check,
)
from causalpairs.probs import label_classes, log_loss
from causalpairs.raster import rasterize, rasterize_all
from causalpairs.synth import Mechanism, generate_benchmark

BENCH_MIX = {
    Mechanism.ADDITIVE_NOISE_NONLINEAR: 0.4,
    Mechanism.LINEAR_NON_GAUSSIAN: 0.2,
    Mechanism.INDEPENDENT: 0.2,
    Mechanism.COMMON_CAUSE: 0.2,
}


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed {suffix}"


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    rng = np.random.Generator(np.random.PCG64(12))
    net = Network([
        Conv(1, 3), Relu(),
        Conv(3, 3), Relu(),
        MaxPool(), Flatten(),
        Dense(3 * 4 * 4, 3),
    ], rng=rng)
    x = rng.normal(size=(1, 8, 8))
    t0 = time.time()
    err = gradient_check(net, x, true_class=2, epsilon=1e-5, max_params=300, seed=4)
    elapsed = time.time() - t0
    report(
        1, "gradient correctness",
        err <= 1e-4 and elapsed < 60.0,
        f"max relative error {err:.2e}, {elapsed:.1f}s",
    )


# -- 2 ----------------------------------------------------------------------


def _random_instance(rng):
    kinds = [AttributeKind.NUMERICAL, AttributeKind.CATEGORICAL, AttributeKind.BINARY]
    kx, ky = rng.choice(3, size=2)
    n = int(rng.integers(1, 300))
    vecs = []
    for k in (kinds[kx], kinds[ky]):
        if k is AttributeKind.NUMERICAL:
            vecs.append(rng.normal(size=n) * rng.uniform(0.5, 5.0))
        elif k is AttributeKind.BINARY:
            vecs.append(rng.integers(0, 2, size=n).astype(float))
        else:
            vecs.append(rng.integers(0, int(rng.integers(2, 12)), size=n).astype(float))
    return PairInstance("t", vecs[0], vecs[1], kinds[kx], kinds[ky], 0)


def test_criterion_2_rasterizer_symmetry():
    rng = np.random.default_rng(77)
    failures = 0
    for i in range(1000):
        inst = _random_instance(rng)
        m = int(rng.choice([2, 5, 16, 32, 64]))
        img = rasterize(inst, m)
        mirrored = rasterize(augment_swap(inst), m)
        occupancy = (
            inst.x_kind is AttributeKind.NUMERICAL
            or inst.y_kind is AttributeKind.NUMERICAL
        )
        ok = (
            np.array_equal(mirrored, img.T)
            and img.min() >= 0
            and img.max() <= 255
            and (not occupancy or set(np.unique(img)) <= {0, 255})
        )
        failures += int(not ok)
    report(2, "rasterizer symmetry", failures == 0, f"{failures} failures of 1000")


# -- 3 ----------------------------------------------------------------------


def _pair_counting_auc(scores, positives):
    pos = scores[positives][:, None]
    neg = scores[~positives][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.size * neg.size)


def test_criterion_3_auc_oracle_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        scores = np.round(rng.normal(size=n), rng.integers(0, 3))
        positives = rng.random(n) < rng.uniform(0.2, 0.8)
        if not positives.any():
            positives[0] = True
        if positives.all():
            positives[-1] = False
        got = rank_auc(scores, positives)
        want = _pair_counting_auc(scores, positives)
        worst = max(worst, abs(got - want))
    report(3, "AUC oracle equivalence", worst <= 1e-12, f"max deviation {worst:.2e}")


# -- 4 ----------------------------------------------------------------------


def _exhaustive_split(X, y):
    n, n_feat = X.shape
    parent = float(((y - y.mean()) ** 2).sum())
    best = None
    for j in range(n_feat):
        uniq = np.unique(X[:, j])
        for a, b in zip(uniq[:-1], uniq[1:]):
            thr = (a + b) / 2.0
            left = y[X[:, j] <= thr]
            right = y[X[:, j] > thr]
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            red = parent - sse
            if best is None or red > best[2]:
                best = (j, thr, red)
    return best


def test_criterion_4_split_finding_oracle():
    rng = np.random.default_rng(321)
    worst = 0.0
    feature_mismatches = 0
    for _ in range(100):
        n = int(rng.integers(5, 101))
        f = int(rng.integers(1, 6))
        X = rng.normal(size=(n, f))
        y = rng.normal(size=n)
        work = split_workspace(X)
        got = best_split(work, y, work["order"], y.sum(), float(y @ y))
        want = _exhaustive_split(X, y)
        feature_mismatches += int(got[0] != want[0])
        worst = max(worst, abs(got[2] - want[2]))
    report(
        4, "split-finding oracle",
        feature_mismatches == 0 and worst <= 1e-10,
        f"{feature_mismatches} feature mismatches, max reduction deviation {worst:.2e}",
    )


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_ensemble_endpoint_guarantee():
    rng = np.random.default_rng(55)
    ok_runs = 0
    runs = 20
    for _ in range(runs):
        n = int(rng.integers(15, 80))
        labels = [int(l) for l in rng.choice([1, 0, -1], size=n)]
        while len(set(labels)) < 3:
            labels = [int(l) for l in rng.choice([1, 0, -1], size=n)]
        pc = np.array([rng.dirichlet([1, 1, 1]) for _ in range(n)])
        pg = np.array([rng.dirichlet([1, 1, 1]) for _ in range(n)])
        w = tune_weight(pc, pg, labels)

        def loss_at(weight):
            return log_loss(ensemble(pc, pg, weight), label_classes(labels))

        ok_runs += int(loss_at(w) <= min(loss_at(0.0), loss_at(1.0)))
    report(
        5, "ensemble endpoint guarantee",
        ok_runs == runs and len(WEIGHT_GRID) == 11,
        f"{ok_runs}/{runs} runs, grid size {len(WEIGHT_GRID)}",
    )


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_augmentation_bookkeeping():
    # --augment's training set: each feature row and image, then its swapped
    # twin's, taken as the row in SWAP_ORDER and as the transpose
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(50):
        n = int(rng.integers(0, 60))
        insts = [
            PairInstance(
                f"a{i}", rng.normal(size=4), rng.normal(size=4),
                AttributeKind.NUMERICAL, AttributeKind.NUMERICAL,
                int(rng.choice([1, 0, -1])),
            )
            for i in range(n)
        ]
        swapped = [augment_swap(inst) for inst in insts]
        rows, images = extract_features(insts), rasterize_all(insts, 32)
        out, labels = _with_twins(rows, rows[:, SWAP_ORDER], [i.label for i in insts])
        pixels, _ = _with_twins(images, images.transpose(0, 2, 1), labels)
        ok = (
            ok and len(out) == len(pixels) == len(labels) == 2 * n
            and labels.count(1) == labels.count(-1)
            and out[0::2].tobytes() == rows.tobytes()
            and out[1::2].tobytes() == extract_features(swapped).tobytes()
            and pixels[0::2].tobytes() == images.tobytes()
            and pixels[1::2].tobytes() == rasterize_all(swapped, 32).tobytes()
        )
    report(6, "augmentation bookkeeping", ok)


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_overfit_sanity():
    t0 = time.time()
    insts = generate_benchmark(20, n_obs_range=(200, 200), seed=42)
    pixels, labels = rasterize_all(insts, 32), [i.label for i in insts]
    arch = CnnArchitecture(stages=((4, 4),) * 5, input_side=32)
    model, _ = train_cnn(
        pixels, labels, arch,
        TrainConfig(epochs=200, batch_size=32, learning_rate=0.1, momentum=0.9, seed=0),
        pixels, labels,
    )
    probs = predict_batch(model, pixels)
    cnn_acc = accuracy(predict_labels(probs), labels)
    cnn_time = time.time() - t0

    t0 = time.time()
    rng = np.random.default_rng(5)
    labels = [int(l) for l in np.array([1, 0, -1])[rng.integers(0, 3, size=60)]]
    centers = {1: (2.0, 0.0), 0: (0.0, 2.0), -1: (-2.0, -2.0)}
    X = np.array([centers[l] for l in labels]) + rng.normal(scale=0.2, size=(60, 2))
    gmodel, _ = gbc_fit(X, labels, GbcConfig(n_estimators=50, max_depth=3,
                                             min_samples_split=2))
    gpreds = predict_labels(gbc_predict_batch(gmodel, X))
    gbc_acc = accuracy(gpreds, labels)
    gbc_time = time.time() - t0

    report(
        7, "overfit sanity",
        cnn_acc >= 0.95 and cnn_time < 300 and gbc_acc == 1.0 and gbc_time < 300,
        f"cnn train acc {cnn_acc:.2f} in {cnn_time:.0f}s; "
        f"gbc train acc {gbc_acc:.2f} in {gbc_time:.0f}s",
    )
