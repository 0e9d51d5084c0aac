"""Statistical feature vector for a pair instance (43 features).

The set is this package's own documented, order-fixed collection of
standard descriptive statistics plus directional measures built on the
variability of conditional distributions.  Numerical attributes are
rank-normalized to (0, 1] before moments, least-squares fits, and
discretization; categorical/binary attributes enter with their integer
codes.  Pearson correlation uses the raw values (Spearman covers the
rank scale).  Discrete information measures use the FEATURE_BINS-bin
discretization of the (normalized) attribute.

Naming convention: a ``_x``/``_y`` suffix marks per-attribute features and
an ``_xy``/``_yx`` suffix marks directional features.  Swapping the two
attributes of an instance exchanges each such pair and leaves every other
feature unchanged; SWAP_EXCHANGE lists the exchanged index pairs.

Cost: the extractor runs once per pair, so it spends its time in numpy
call overhead rather than arithmetic, and it keeps the number of calls
small without changing a bit of the result.  Each attribute is sorted once
(``ranks.rank_groups``): the average ranks serve both the rank
normalization and Spearman, and the distinct count serves ``uniq_ratio``
and the constant-attribute test.  Each vector is centred once, and every
mean and variance is the reduction ``ndarray.mean``/``var`` perform inside:
``np.add.reduce`` (numpy's pairwise sum) over the vector in data order,
divided by n.  The conditional statistics take each bin's values as a
contiguous slice of one stable sort by bin, so each bin's sums also run in
data order.  Pairs are not batched together: ``np.add.reduceat`` over
concatenated pairs sums each segment sequentially rather than pairwise,
which changes the low bits.  Nor is ``z**3`` written ``z * z * z``: the
two round differently.
"""

from typing import NamedTuple

import numpy as np

from .dataset import AttributeKind, PairInstance
from .errors import ValidationError
from .ranks import rank_groups
from .raster import discretize

FEATURE_BINS = 10

_PAIRED = [
    "kind_num", "kind_cat", "kind_bin",
    "mean", "std", "skew", "kurt", "uniq_ratio", "entropy", "mode_freq",
]
_DIRECTIONAL = [
    "condstd_mean", "condstd_spread", "condent",
    "slope", "resvar", "res_skew", "res_kurt",
]
_SYMMETRIC = [
    "log_n", "pearson", "abs_pearson", "spearman", "abs_spearman",
    "mutual_info", "mutual_info_norm", "joint_entropy_norm", "occupied_ratio",
]

FEATURE_NAMES = tuple(
    [f"{base}_{side}" for base in _PAIRED for side in ("x", "y")]
    + [f"{base}_{d}" for base in _DIRECTIONAL for d in ("xy", "yx")]
    + _SYMMETRIC
)

N_FEATURES = len(FEATURE_NAMES)

SWAP_EXCHANGE = tuple(
    (FEATURE_NAMES.index(f"{base}_x"), FEATURE_NAMES.index(f"{base}_y"))
    for base in _PAIRED
) + tuple(
    (FEATURE_NAMES.index(f"{base}_xy"), FEATURE_NAMES.index(f"{base}_yx"))
    for base in _DIRECTIONAL
)


_LOG_BINS = np.log(FEATURE_BINS)


class _Centred(NamedTuple):
    mean: np.float64
    dev: np.ndarray    # v - mean
    var: np.float64    # population variance


def _centred(v: np.ndarray) -> _Centred:
    """What v.mean() and v.var() compute, without their Python wrappers."""
    n = len(v)
    mean = np.add.reduce(v) / n
    dev = v - mean
    return _Centred(mean, dev, np.add.reduce(dev * dev) / n)


def _shape(c: _Centred):
    """Standard deviation, skewness and excess kurtosis."""
    std = np.sqrt(c.var)
    if std < 1e-12:
        return float(std), 0.0, 0.0
    z = c.dev / std
    n = len(z)
    return float(std), float(np.add.reduce(z**3) / n), float(np.add.reduce(z**4) / n - 3.0)


class _Attribute(NamedTuple):
    """One attribute's sort and centred vectors, shared by all its features."""

    norm: np.ndarray    # rank-normalized (numerical) or the integer codes
    distinct: int
    centred: _Centred   # of norm
    ranks: _Centred     # of the average ranks, for Spearman
    raw: _Centred       # of the raw values, for Pearson


def _attribute(raw: np.ndarray, kind: AttributeKind) -> _Attribute:
    ranks, distinct = rank_groups(raw)
    if kind is AttributeKind.NUMERICAL:
        norm = ranks / len(raw)
        return _Attribute(norm, distinct, _centred(norm), _centred(ranks), _centred(raw))
    centred = _centred(raw)
    return _Attribute(raw, distinct, centred, _centred(ranks), centred)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-np.add.reduce(p * np.log(p)))


def _corr(a: _Centred, b: _Centred) -> float:
    sa, sb = np.sqrt(a.var), np.sqrt(b.var)
    if sa < 1e-12 or sb < 1e-12:
        return 0.0
    return float(np.dot(a.dev, b.dev) / (len(a.dev) * sa * sb))


def _fit_stats(a: _Attribute, b: _Attribute):
    """Least-squares b ~ a: slope, residual variance, residual skew/kurtosis."""
    ca, cb = a.centred, b.centred
    if ca.var < 1e-24:
        slope = 0.0
    else:
        slope = float(np.dot(ca.dev, cb.dev) / (len(ca.dev) * ca.var))
    resid = b.norm - (cb.mean + slope * ca.dev)
    cr = _centred(resid)
    # np.ptp(resid) == 0.0 without its Python wrapper
    if np.maximum.reduce(resid) - np.minimum.reduce(resid) == 0.0:
        rskew = rkurt = 0.0
    else:
        _, rskew, rkurt = _shape(cr)
    return slope, float(max(cr.var, 0.0)), rskew, rkurt


def _conditional_stats(bins_a: np.ndarray, counts_a: np.ndarray, b: np.ndarray):
    """Mean and spread of std(b | bin of a) over occupied bins.

    A stable sort by bin (a radix sort on uint8) lays each bin's values out
    contiguously in data order, so each slice's sums are those of
    ``b[bins_a == k]``.
    """
    grouped = b[np.argsort(bins_a.astype(np.uint8), kind="stable")]
    sizes = counts_a[counts_a > 0]
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    means = np.array([np.add.reduce(grouped[i:j]) for i, j in spans]) / sizes
    dev = grouped - np.repeat(means, sizes)
    dev *= dev
    stds = np.sqrt(np.array([np.add.reduce(dev[i:j]) for i, j in spans]) / sizes)
    c = _centred(stds)
    return float(c.mean), float(np.sqrt(c.var))


def extract_features(instance: PairInstance) -> np.ndarray:
    """The 43-feature vector in FEATURE_NAMES order; every value finite."""
    n = instance.n_obs
    if n < 2:
        raise ValidationError(f"instance {instance.id}: need >= 2 observations")

    out = {}
    x = _attribute(instance.x, instance.x_kind)
    y = _attribute(instance.y, instance.y_kind)

    for side, attr, kind in (("x", x, instance.x_kind), ("y", y, instance.y_kind)):
        out[f"kind_num_{side}"] = float(kind is AttributeKind.NUMERICAL)
        out[f"kind_cat_{side}"] = float(kind is AttributeKind.CATEGORICAL)
        out[f"kind_bin_{side}"] = float(kind is AttributeKind.BINARY)
        out[f"mean_{side}"] = float(attr.centred.mean)
        if attr.distinct == 1:
            std, skew, kurt = 0.0, 0.0, 0.0
        else:
            std, skew, kurt = _shape(attr.centred)
        out[f"std_{side}"] = std
        out[f"skew_{side}"] = skew
        out[f"kurt_{side}"] = kurt
        out[f"uniq_ratio_{side}"] = attr.distinct / n
        if not np.isfinite(attr.raw.var):
            raise ValidationError(
                f"instance {instance.id}: the variance of {side} overflows float64,"
                " so its Pearson correlation is undefined"
            )

    xb = discretize(x.norm, FEATURE_BINS, instance.x_kind)
    yb = discretize(y.norm, FEATURE_BINS, instance.y_kind)
    joint = np.bincount(xb * FEATURE_BINS + yb, minlength=FEATURE_BINS * FEATURE_BINS)
    joint = joint.reshape(FEATURE_BINS, FEATURE_BINS)
    cx = np.add.reduce(joint, axis=1)
    cy = np.add.reduce(joint, axis=0)
    hx = _entropy(cx, n)
    hy = _entropy(cy, n)
    hxy = _entropy(joint.ravel(), n)
    mi = max(hx + hy - hxy, 0.0)

    out["entropy_x"] = hx / _LOG_BINS
    out["entropy_y"] = hy / _LOG_BINS
    out["mode_freq_x"] = float(cx.max()) / n
    out["mode_freq_y"] = float(cy.max()) / n
    out["condstd_mean_xy"], out["condstd_spread_xy"] = _conditional_stats(xb, cx, y.norm)
    out["condstd_mean_yx"], out["condstd_spread_yx"] = _conditional_stats(yb, cy, x.norm)
    out["condent_xy"] = (hxy - hx) / _LOG_BINS
    out["condent_yx"] = (hxy - hy) / _LOG_BINS

    for d, a, b in (("xy", x, y), ("yx", y, x)):
        slope, resvar, rskew, rkurt = _fit_stats(a, b)
        out[f"slope_{d}"] = slope
        out[f"resvar_{d}"] = resvar
        out[f"res_skew_{d}"] = rskew
        out[f"res_kurt_{d}"] = rkurt

    out["log_n"] = float(np.log(n))
    pearson = _corr(x.raw, y.raw)
    spearman = _corr(x.ranks, y.ranks)
    out["pearson"] = pearson
    out["abs_pearson"] = abs(pearson)
    out["spearman"] = spearman
    out["abs_spearman"] = abs(spearman)
    out["mutual_info"] = mi
    denom = np.sqrt(hx * hy)
    out["mutual_info_norm"] = mi / denom if denom > 1e-12 else 0.0
    out["joint_entropy_norm"] = hxy / (2.0 * _LOG_BINS)
    out["occupied_ratio"] = np.count_nonzero(joint) / (FEATURE_BINS * FEATURE_BINS)

    vec = np.array([out[name] for name in FEATURE_NAMES], dtype=np.float64)
    if not np.isfinite(vec).all():
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~np.isfinite(vec))]
        raise ValidationError(f"non-finite features {bad} for instance {instance.id}")
    return vec


def feature_matrix(instances) -> np.ndarray:
    """[n_instances, N_FEATURES] matrix in FEATURE_NAMES column order."""
    return np.array([extract_features(inst) for inst in instances], dtype=np.float64)


def write_feature_csv(path, ids, matrix) -> None:
    """Comma-separated export: id column first, then named feature columns."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("id," + ",".join(FEATURE_NAMES) + "\n")
        for pid, row in zip(ids, matrix):
            f.write(pid + "," + ",".join(repr(float(v)) for v in row) + "\n")
