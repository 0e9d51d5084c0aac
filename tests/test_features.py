import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalpairs import synth
from causalpairs.dataset import AttributeKind, PairInstance, augment_swap
from causalpairs.errors import ValidationError
from causalpairs.features import (
    FEATURE_BINS,
    FEATURE_NAMES,
    N_FEATURES,
    SWAP_EXCHANGE,
    extract_features,
    feature_matrix,
)
from causalpairs.ranks import rankdata
from causalpairs.raster import discretize

NUM = AttributeKind.NUMERICAL
CAT = AttributeKind.CATEGORICAL
BIN = AttributeKind.BINARY


def instance(x, y, x_kind=NUM, y_kind=NUM, pid="f0", label=1):
    return PairInstance(pid, np.asarray(x, float), np.asarray(y, float),
                        x_kind, y_kind, label)


def feat(vec, name):
    return vec[FEATURE_NAMES.index(name)]


class TestVectorLayout:
    def test_feature_count_is_43(self):
        assert N_FEATURES == 43
        assert len(FEATURE_NAMES) == 43
        assert len(set(FEATURE_NAMES)) == 43

    def test_exchange_covers_all_directional_names(self):
        exchanged = {i for pair in SWAP_EXCHANGE for i in pair}
        for i, name in enumerate(FEATURE_NAMES):
            directional = name.endswith(("_x", "_y", "_xy", "_yx"))
            assert (i in exchanged) == directional


class TestValues:
    def test_perfect_linear_relation(self):
        x = np.linspace(-3, 3, 40)
        vec = extract_features(instance(x, 2 * x))
        assert feat(vec, "pearson") == pytest.approx(1.0)
        assert feat(vec, "resvar_xy") == pytest.approx(0.0, abs=1e-12)
        assert feat(vec, "resvar_yx") == pytest.approx(0.0, abs=1e-12)
        assert feat(vec, "spearman") == pytest.approx(1.0)

    def test_constant_attribute_fallbacks(self):
        vec = extract_features(instance(np.zeros(20), np.arange(20.0)))
        assert feat(vec, "std_x") == 0.0
        assert feat(vec, "pearson") == 0.0
        assert feat(vec, "spearman") == 0.0
        assert np.isfinite(vec).all()

    def test_kind_indicators(self):
        vec = extract_features(
            instance([0, 1, 0, 1], [0, 1, 2, 1], BIN, CAT)
        )
        assert feat(vec, "kind_bin_x") == 1.0
        assert feat(vec, "kind_cat_y") == 1.0
        assert feat(vec, "kind_num_x") == 0.0

    def test_log_n(self):
        vec = extract_features(instance(np.arange(100.0), np.arange(100.0)))
        assert feat(vec, "log_n") == pytest.approx(np.log(100))

    def test_too_few_observations(self):
        with pytest.raises(ValidationError):
            extract_features(instance([1.0], [2.0]))

    def test_noise_direction_asymmetry(self):
        # y = x^2 + small noise: residual variance of y~x fit is far below
        # that of x~y, which is what the directional features encode
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, 500)
        y = x**2 + rng.uniform(-0.1, 0.1, 500)
        vec = extract_features(instance(x, y))
        assert feat(vec, "condstd_mean_xy") < feat(vec, "condstd_mean_yx")


def swap_permutation():
    perm = np.arange(N_FEATURES)
    for i, j in SWAP_EXCHANGE:
        perm[i], perm[j] = j, i
    return perm


class TestSwapSymmetry:
    @pytest.mark.parametrize("kinds", [(NUM, NUM), (NUM, BIN), (CAT, CAT), (BIN, NUM)])
    def test_swap_exchanges_paired_features(self, kinds):
        rng = np.random.default_rng(11)
        n = 120
        vecs = []
        for kind in kinds:
            if kind is NUM:
                vecs.append(rng.normal(size=n) * 3)
            elif kind is BIN:
                vecs.append(rng.integers(0, 2, n).astype(float))
            else:
                vecs.append(rng.integers(0, 5, n).astype(float))
        inst = instance(vecs[0], vecs[1], kinds[0], kinds[1])
        base = extract_features(inst)
        swapped = extract_features(augment_swap(inst))
        assert swapped == pytest.approx(base[swap_permutation()], abs=1e-10)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=60),
    degenerate=st.sampled_from(["none", "const_x", "const_both", "two_point"]),
)
@settings(max_examples=80, deadline=None)
def test_all_features_finite(seed, n, degenerate):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    if degenerate == "const_x":
        x = np.full(n, 1.25)
    elif degenerate == "const_both":
        x = np.zeros(n)
        y = np.full(n, -4.0)
    elif degenerate == "two_point":
        x, y = x[:2], y[:2]
    vec = extract_features(instance(x, y))
    assert vec.shape == (N_FEATURES,)
    assert np.isfinite(vec).all()


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=80), rng.normal(size=80)
    perm = rng.permutation(80)
    a = extract_features(instance(x, y))
    b = extract_features(instance(x[perm], y[perm]))
    assert a == pytest.approx(b, abs=1e-12)


def test_feature_matrix_of_no_instances_has_every_column():
    assert feature_matrix([]).shape == (0, N_FEATURES)


def test_raw_variance_overflow_is_validation_error():
    # y follows x (r = 0.99 without the two extreme points), but the spread
    # of x overflows float64: Pearson is undefined, not -0.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=60)
    y = x + rng.normal(scale=0.1, size=60)
    x[3], x[7] = 1e308, -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="overflows"):
            extract_features(instance(x, y))
        with pytest.raises(ValidationError, match="overflows"):
            extract_features(instance(y, x))


# ---------------------------------------------------------------------------
# The straightforward formulation of the 43 features, kept as the reference
# for extract_features: one numpy call per statistic, np.ptp for the constant
# test, np.unique for distinct counts and one boolean mask per bin.


def ref_normalize(values, kind):
    if kind is AttributeKind.NUMERICAL:
        return rankdata(values) / len(values)
    return values.astype(np.float64)


def ref_moments(v):
    mean = float(v.mean())
    if np.ptp(v) == 0.0:
        return mean, 0.0, 0.0, 0.0
    std = float(v.std())
    if std < 1e-12:
        return mean, std, 0.0, 0.0
    z = (v - mean) / std
    return mean, std, float((z**3).mean()), float((z**4).mean() - 3.0)


def ref_entropy(counts):
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def ref_corr(a, b):
    sa, sb = a.std(), b.std()
    if sa < 1e-12 or sb < 1e-12:
        return 0.0
    ca, cb = a - a.mean(), b - b.mean()
    return float(np.dot(ca, cb) / (len(a) * sa * sb))


def ref_fit_stats(a, b):
    va = a.var()
    if va < 1e-24:
        slope = 0.0
    else:
        slope = float(np.dot(a - a.mean(), b - b.mean()) / (len(a) * va))
    resid = b - (b.mean() + slope * (a - a.mean()))
    _, _, rskew, rkurt = ref_moments(resid)
    return slope, float(max(resid.var(), 0.0)), rskew, rkurt


def ref_conditional_stats(bins_a, b):
    stds = []
    for k in np.unique(bins_a):
        stds.append(b[bins_a == k].std())
    stds = np.array(stds)
    return float(stds.mean()), float(stds.std())


def ref_extract_features(inst):
    n = inst.n_obs
    if n < 2:
        raise ValidationError(f"instance {inst.id}: need >= 2 observations")
    out = {}
    xn = ref_normalize(inst.x, inst.x_kind)
    yn = ref_normalize(inst.y, inst.y_kind)
    rx = rankdata(inst.x)
    ry = rankdata(inst.y)
    for side, raw, norm, kind in (
        ("x", inst.x, xn, inst.x_kind),
        ("y", inst.y, yn, inst.y_kind),
    ):
        out[f"kind_num_{side}"] = float(kind is AttributeKind.NUMERICAL)
        out[f"kind_cat_{side}"] = float(kind is AttributeKind.CATEGORICAL)
        out[f"kind_bin_{side}"] = float(kind is AttributeKind.BINARY)
        mean, std, skew, kurt = ref_moments(norm)
        out[f"mean_{side}"] = mean
        out[f"std_{side}"] = std
        out[f"skew_{side}"] = skew
        out[f"kurt_{side}"] = kurt
        out[f"uniq_ratio_{side}"] = len(np.unique(raw)) / n
    xb = discretize(xn, FEATURE_BINS, inst.x_kind)
    yb = discretize(yn, FEATURE_BINS, inst.y_kind)
    joint = np.zeros((FEATURE_BINS, FEATURE_BINS))
    np.add.at(joint, (xb, yb), 1.0)
    cx = joint.sum(axis=1)
    cy = joint.sum(axis=0)
    hx = ref_entropy(cx)
    hy = ref_entropy(cy)
    hxy = ref_entropy(joint.ravel())
    mi = max(hx + hy - hxy, 0.0)
    log_bins = np.log(FEATURE_BINS)
    out["entropy_x"] = hx / log_bins
    out["entropy_y"] = hy / log_bins
    out["mode_freq_x"] = float(cx.max()) / n
    out["mode_freq_y"] = float(cy.max()) / n
    out["condstd_mean_xy"], out["condstd_spread_xy"] = ref_conditional_stats(xb, yn)
    out["condstd_mean_yx"], out["condstd_spread_yx"] = ref_conditional_stats(yb, xn)
    out["condent_xy"] = (hxy - hx) / log_bins
    out["condent_yx"] = (hxy - hy) / log_bins
    for d, a, b in (("xy", xn, yn), ("yx", yn, xn)):
        slope, resvar, rskew, rkurt = ref_fit_stats(a, b)
        out[f"slope_{d}"] = slope
        out[f"resvar_{d}"] = resvar
        out[f"res_skew_{d}"] = rskew
        out[f"res_kurt_{d}"] = rkurt
    out["log_n"] = float(np.log(n))
    pearson = ref_corr(inst.x, inst.y)
    spearman = ref_corr(rx, ry)
    out["pearson"] = pearson
    out["abs_pearson"] = abs(pearson)
    out["spearman"] = spearman
    out["abs_spearman"] = abs(spearman)
    out["mutual_info"] = mi
    denom = np.sqrt(hx * hy)
    out["mutual_info_norm"] = mi / denom if denom > 1e-12 else 0.0
    out["joint_entropy_norm"] = hxy / (2.0 * log_bins)
    out["occupied_ratio"] = float((joint > 0).sum()) / (FEATURE_BINS * FEATURE_BINS)
    vec = np.array([out[name] for name in FEATURE_NAMES], dtype=np.float64)
    if not np.isfinite(vec).all():
        raise ValidationError(f"non-finite features for instance {inst.id}")
    return vec


def outcome(extract, inst):
    """The feature bytes, or None when the instance is rejected."""
    with np.errstate(all="ignore"):
        try:
            return extract(inst).tobytes()
        except ValidationError:
            return None


def assert_matches_reference(inst):
    got = outcome(extract_features, inst)
    want = outcome(ref_extract_features, inst)
    if got is None and want is not None:
        # the one intended difference: a raw spread that overflows float64
        # is rejected instead of giving a Pearson of +-0.0
        with np.errstate(all="ignore"):
            assert not (np.isfinite(inst.x.std()) and np.isfinite(inst.y.std()))
    else:
        assert got == want


MODES = ("normal", "ties", "constant", "signed_zero", "scaled", "copy", "affine")


def attribute_values(rng, n, kind, mode, exponent, codes, other):
    if mode == "copy" and other is not None:
        return other.copy()
    if kind is BIN:
        if mode == "constant":
            return np.full(n, float(rng.integers(0, 2)))
        return rng.integers(0, 2, n).astype(float)
    if kind is CAT:
        if mode == "constant":
            return np.full(n, float(rng.integers(0, codes)))
        return rng.integers(0, codes, n).astype(float)
    if mode == "ties":
        return rng.integers(-3, 4, n).astype(float)
    if mode == "constant":
        return np.full(n, rng.normal())
    if mode == "signed_zero":
        v = rng.choice([0.0, -0.0, 1.5, -2.0], n)
        v[rng.random(n) < 0.3] = rng.normal()
        return v
    if mode == "scaled":
        return rng.normal(size=n) * 10.0**exponent
    if mode == "affine" and other is not None:
        return 2.0 * other + rng.normal(scale=0.1, size=n)
    return rng.normal(size=n)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=1200) | st.integers(min_value=2, max_value=12),
    kinds=st.sampled_from(list(itertools.product((NUM, CAT, BIN), repeat=2))),
    modes=st.tuples(st.sampled_from(MODES), st.sampled_from(MODES)),
    exponent=st.integers(min_value=-300, max_value=300),
    codes=st.sampled_from([1, 2, 3, 9, FEATURE_BINS, FEATURE_BINS + 1, 37, 10**6, 2**40]),
)
@settings(max_examples=300, deadline=None)
def test_bytes_equal_reference(seed, n, kinds, modes, exponent, codes):
    rng = np.random.default_rng(seed)
    x = attribute_values(rng, n, kinds[0], modes[0], exponent, codes, None)
    y = attribute_values(
        rng, n, kinds[1], modes[1], exponent, codes, x if kinds[0] is kinds[1] else None
    )
    assert_matches_reference(instance(x, y, kinds[0], kinds[1]))


def test_bytes_equal_reference_on_benchmark_corpus():
    # the mechanisms and the categorical share of the evaluate benchmark
    insts = synth.generate_benchmark(40, n_obs_range=(200, 1000), seed=1)
    for i, inst in enumerate(insts):
        if i % 4 == 0:
            inst = synth.to_categorical(inst, 8)
        assert_matches_reference(inst)
