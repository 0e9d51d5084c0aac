import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalpairs import features, synth
from causalpairs.dataset import AttributeKind, PairInstance, augment_swap
from causalpairs.errors import ValidationError
from causalpairs.features import (
    FEATURE_BINS,
    FEATURE_NAMES,
    N_FEATURES,
    SWAP_EXCHANGE,
    extract_features,
)
from causalpairs.ranks import rankdata
from causalpairs.raster import discretize

NUM = AttributeKind.NUMERICAL
CAT = AttributeKind.CATEGORICAL
BIN = AttributeKind.BINARY


def instance(x, y, x_kind=NUM, y_kind=NUM, pid="f0", label=1):
    return PairInstance(pid, np.asarray(x, float), np.asarray(y, float),
                        x_kind, y_kind, label)


def one(inst):
    """The feature vector of a single pair."""
    return extract_features([inst])[0]


def feat(vec, name):
    return vec[FEATURE_NAMES.index(name)]


def benchmark_corpus():
    """The pairs of both benchmark workloads' corpora, in small."""
    evaluate = synth.generate_benchmark(60, n_obs_range=(200, 1000), seed=1)
    return synth.generate_benchmark(60, n_obs_range=(500, 500), seed=1) + [
        synth.to_categorical(inst, 8) if i % 4 == 0 else inst
        for i, inst in enumerate(evaluate)
    ]


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
        vec = one(instance(x, 2 * x))
        assert feat(vec, "pearson") == pytest.approx(1.0)
        assert feat(vec, "resvar_xy") == pytest.approx(0.0, abs=1e-12)
        assert feat(vec, "resvar_yx") == pytest.approx(0.0, abs=1e-12)
        assert feat(vec, "spearman") == pytest.approx(1.0)

    def test_constant_attribute_fallbacks(self):
        vec = one(instance(np.zeros(20), np.arange(20.0)))
        assert feat(vec, "std_x") == 0.0
        assert feat(vec, "pearson") == 0.0
        assert feat(vec, "spearman") == 0.0
        assert np.isfinite(vec).all()

    def test_kind_indicators(self):
        vec = one(instance([0, 1, 0, 1], [0, 1, 2, 1], BIN, CAT))
        assert feat(vec, "kind_bin_x") == 1.0
        assert feat(vec, "kind_cat_y") == 1.0
        assert feat(vec, "kind_num_x") == 0.0

    def test_log_n(self):
        vec = one(instance(np.arange(100.0), np.arange(100.0)))
        assert feat(vec, "log_n") == pytest.approx(np.log(100))

    def test_too_few_observations(self):
        with pytest.raises(ValidationError):
            one(instance([1.0], [2.0]))

    def test_noise_direction_asymmetry(self):
        # y = x^2 + small noise: residual variance of y~x fit is far below
        # that of x~y, which is what the directional features encode
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, 500)
        y = x**2 + rng.uniform(-0.1, 0.1, 500)
        vec = one(instance(x, y))
        assert feat(vec, "condstd_mean_xy") < feat(vec, "condstd_mean_yx")


def swap_permutation():
    perm = np.arange(N_FEATURES)
    for i, j in SWAP_EXCHANGE:
        perm[i], perm[j] = j, i
    return perm


def assert_swap_exact(insts):
    base = extract_features(insts)
    swapped = extract_features([augment_swap(inst) for inst in insts])
    assert swapped.tobytes() == base[:, swap_permutation()].tobytes()


class TestSwapSymmetry:
    @pytest.mark.parametrize("kinds", [(NUM, NUM), (NUM, BIN), (CAT, CAT), (BIN, NUM)])
    def test_swap_exchanges_paired_features(self, kinds):
        # bit for bit: a tree must not split a pair from its swapped twin
        rng = np.random.default_rng(11)
        insts = []
        for pid, mode in enumerate(("plain", "ties", "constant")):
            n = 120
            vecs = []
            for kind in kinds:
                if kind is NUM:
                    v = rng.normal(size=n) * 3
                    if mode == "ties":
                        v = np.round(v)
                elif kind is BIN:
                    v = rng.integers(0, 2, n).astype(float)
                else:
                    v = rng.integers(0, 5, n).astype(float)
                vecs.append(v)
            if mode == "constant":
                vecs[0] = np.full(n, vecs[0][0])
            insts.append(instance(vecs[0], vecs[1], kinds[0], kinds[1], pid=f"s{pid}"))
        assert_swap_exact(insts)

    def test_swap_exact_on_benchmark_corpus(self):
        assert_swap_exact(benchmark_corpus())


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
    vec = one(instance(x, y))
    assert vec.shape == (N_FEATURES,)
    assert np.isfinite(vec).all()


PER_ATTRIBUTE = [i for i, name in enumerate(FEATURE_NAMES) if name.endswith(("_x", "_y"))]


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    insts = [instance(rng.normal(size=80), rng.normal(size=80), pid="p0"),
             instance(np.round(rng.normal(size=80)), rng.integers(0, 5, 80), NUM, CAT, pid="p1")]
    permuted = []
    for inst in insts:
        perm = rng.permutation(inst.n_obs)
        permuted.append(instance(inst.x[perm], inst.y[perm], inst.x_kind, inst.y_kind))
    a = extract_features(insts)
    b = extract_features(permuted)
    # each attribute's own features are summed in sorted order: exact
    assert a[:, PER_ATTRIBUTE].tobytes() == b[:, PER_ATTRIBUTE].tobytes()
    # the rest sum over the rows in data order
    assert b == pytest.approx(a, abs=1e-12)


def test_tie_free_moments_depend_on_n_alone():
    # a tie-free numerical attribute normalizes to the ranks 1/n .. n/n
    insts = [inst for inst in synth.generate_benchmark(80, n_obs_range=(300, 300), seed=5)
             if len(np.unique(inst.x)) == inst.n_obs]
    assert len(insts) >= 40
    mat = extract_features(insts)
    for name in ("mean_x", "std_x", "skew_x", "kurt_x"):
        assert len(set(mat[:, FEATURE_NAMES.index(name)].tolist())) == 1, name


def test_feature_matrix_of_no_instances_has_every_column():
    assert extract_features([]).shape == (0, N_FEATURES)


def test_raw_variance_overflow_is_validation_error():
    # y follows x (r = 0.99 without the two extreme points), but the spread
    # of x overflows float64: Pearson is undefined, not -0.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=60)
    y = x + rng.normal(scale=0.1, size=60)
    x[3], x[7] = 1e308, -1e308
    with pytest.raises(ValidationError, match="variance of x overflows"):
        one(instance(x, y))
    with pytest.raises(ValidationError, match="variance of y overflows"):
        one(instance(y, x))


def overflowing(pid):
    x = np.linspace(-1.0, 1.0, 30)
    x[3], x[7] = 1e308, -1e308
    return instance(x, np.linspace(0.0, 1.0, 30), pid=pid)


def odd_length(pid):
    # the length that the patched _entropy below turns into NaN
    return instance(np.arange(37.0), np.arange(37.0) % 5, pid=pid)


@pytest.mark.parametrize("fault, match", [
    (lambda pid: instance([1.0], [2.0], pid=pid), "need >= 2 observations"),
    (overflowing, "the variance of x overflows float64"),
    (odd_length, "non-finite features ['entropy_x', 'entropy_y'"),
], ids=["few", "overflow", "non_finite"])
def test_error_names_first_pair_at_fault(fault, match, monkeypatch):
    # no finite input reaches the last check: a Pearson of a finite raw
    # variance is finite, and every other feature reads bounded values
    entropy = features._entropy
    monkeypatch.setattr(
        features, "_entropy", lambda counts, n: np.where(n == 37, np.nan, entropy(counts, n))
    )
    good = synth.generate_benchmark(6, n_obs_range=(50, 50), seed=2)
    batch = good[:3] + [fault("bad1")] + good[3:] + [fault("bad2")]
    with pytest.raises(ValidationError) as err:
        extract_features(batch)
    text = str(err.value)
    assert match in text
    assert "instance bad1" in text and "bad2" not in text


def test_chunking_does_not_change_bytes(monkeypatch):
    insts = benchmark_corpus()
    monkeypatch.setattr(features, "_CHUNK_OBS", 1)
    one_per_chunk = extract_features(insts)
    monkeypatch.setattr(features, "_CHUNK_OBS", 10**9)
    assert extract_features(insts).tobytes() == one_per_chunk.tobytes()


def test_memory_is_bounded_by_one_chunk():
    # eight chunks' worth of pairs: unchunked, the temporaries grow eightfold
    insts = synth.generate_benchmark(
        8 * features._CHUNK_OBS // 1000, n_obs_range=(1000, 1000), seed=3
    )

    def peak(batch):
        tracemalloc.start()
        try:
            extract_features(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(insts) < 1.5 * peak(insts[: features._CHUNK_OBS // 1000])


def test_one_full_chunk_holds_its_temporaries_below_4_mb():
    # 16 pairs of 1000 observations: 2.59 MB; 65 of them, a full chunk of
    # 65,536 observations, measured 10.5 MB
    insts = synth.generate_benchmark(
        features._CHUNK_OBS // 1000, n_obs_range=(1000, 1000), seed=3
    )
    tracemalloc.start()
    try:
        extract_features(insts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


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
    """The feature vector, or None when the instance is rejected."""
    with np.errstate(all="ignore"):
        try:
            return extract(inst)
        except ValidationError:
            return None


# The batch and the reference evaluate the same formulas; only the order of
# their sums differs (sequential in sorted or data order against numpy's
# pairwise sums).  Two orders of a sum of m terms t_i differ by at most
# 2(m-1)u * sum |t_i|, u = 2**-53, so a mean moves by less than 2mu times
# the largest |t_i|.  A feature stacks at most four such means (a mean,
# the deviations' moment, a ratio, a root), each error carried at most
# fourfold by a power or quotient: the bound is 32mu times the size of
# what the feature sums, with m = max(n, FEATURE_BINS**2) since the
# entropies sum the histogram's 100 cells.  That size is the largest
# |value| for a mean or a spread; for a moment of z-scores it also carries
# the condition peak / std, how far an error in the mean moves the
# z-scores, and is unbounded where the spread is 0 or rounding noise.
REORDER_ERROR = 32 * 2.0**-53


def error_sizes(inst, want):
    """Per-feature size of the terms behind each value of want (see above)."""
    w = dict(zip(FEATURE_NAMES, want))

    def peak(v):
        return float(np.abs(v).max())

    def cond(scale, v):
        std = float(v.std())
        return scale / std if std > 0 else np.inf

    norm = {"x": ref_normalize(inst.x, inst.x_kind), "y": ref_normalize(inst.y, inst.y_kind)}
    size = dict.fromkeys(FEATURE_NAMES, 1.0)
    for side, v in norm.items():
        size[f"mean_{side}"] = size[f"std_{side}"] = peak(v)
        size[f"skew_{side}"] = size[f"kurt_{side}"] = (
            (abs(w[f"kurt_{side}"]) + 3) * (1 + cond(peak(v), v))
        )
    for d, a, b in (("xy", norm["x"], norm["y"]), ("yx", norm["y"], norm["x"])):
        slope = w[f"slope_{d}"]
        size[f"condstd_mean_{d}"] = size[f"condstd_spread_{d}"] = peak(b)
        # below the 1e-24 variance test the slope is 0 on both sides
        slope_size = 0.0 if a.var() < 1e-24 else (
            cond(peak(a), a) * b.std() + peak(b) + 2 * abs(slope) * peak(a)
        ) / a.std()
        size[f"slope_{d}"] = slope_size
        resid = b - (b.mean() + slope * (a - a.mean()))
        terms = peak(b) + (abs(slope) + slope_size) * peak(a)
        size[f"resvar_{d}"] = (terms + resid.std()) ** 2
        size[f"res_skew_{d}"] = size[f"res_kurt_{d}"] = (
            (abs(w[f"res_kurt_{d}"]) + 3) * (1 + cond(terms, resid))
        )
    size["pearson"] = size["abs_pearson"] = (
        1 + cond(peak(inst.x), inst.x) + cond(peak(inst.y), inst.y)
    )
    rx, ry = rankdata(inst.x), rankdata(inst.y)
    size["spearman"] = size["abs_spearman"] = 1 + cond(peak(rx), rx) + cond(peak(ry), ry)
    entropies = w["entropy_x"] * w["entropy_y"] * np.log(FEATURE_BINS) ** 2
    if entropies > 0:
        size["mutual_info_norm"] = 1 + 1 / np.sqrt(entropies)
    return np.array([size[name] for name in FEATURE_NAMES])


def assert_matches_reference(inst):
    got = outcome(one, inst)
    want = outcome(ref_extract_features, inst)
    if got is None and want is not None:
        # the one intended difference: a raw spread that overflows float64
        # is rejected instead of giving a Pearson of +-0.0
        with np.errstate(all="ignore"):
            assert not (np.isfinite(inst.x.std()) and np.isfinite(inst.y.std()))
    elif want is None:
        assert got is None
    else:
        with np.errstate(all="ignore"):
            bound = REORDER_ERROR * max(inst.n_obs, FEATURE_BINS**2) * error_sizes(inst, want)
        over = ~(np.abs(got - want) <= bound)
        assert not over.any(), [
            (FEATURE_NAMES[i], got[i], want[i], bound[i]) for i in np.flatnonzero(over)
        ]


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
def test_close_to_reference(seed, n, kinds, modes, exponent, codes):
    rng = np.random.default_rng(seed)
    x = attribute_values(rng, n, kinds[0], modes[0], exponent, codes, None)
    y = attribute_values(
        rng, n, kinds[1], modes[1], exponent, codes, x if kinds[0] is kinds[1] else None
    )
    assert_matches_reference(instance(x, y, kinds[0], kinds[1]))


def test_close_to_reference_on_benchmark_corpus():
    # the mechanisms and the categorical share of the evaluate benchmark
    insts = synth.generate_benchmark(40, n_obs_range=(200, 1000), seed=1)
    for i, inst in enumerate(insts):
        if i % 4 == 0:
            inst = synth.to_categorical(inst, 8)
        assert_matches_reference(inst)
