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
"""

import numpy as np

from .dataset import AttributeKind, PairInstance
from .errors import ValidationError
from .ranks import rankdata
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


def _normalize(values: np.ndarray, kind: AttributeKind) -> np.ndarray:
    if kind is AttributeKind.NUMERICAL:
        return rankdata(values) / len(values)
    return values.astype(np.float64)


def _moments(v: np.ndarray):
    mean = float(v.mean())
    if np.ptp(v) == 0.0:
        return mean, 0.0, 0.0, 0.0
    std = float(v.std())
    if std < 1e-12:
        return mean, std, 0.0, 0.0
    z = (v - mean) / std
    return mean, std, float((z**3).mean()), float((z**4).mean() - 3.0)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa < 1e-12 or sb < 1e-12:
        return 0.0
    ca, cb = a - a.mean(), b - b.mean()
    return float(np.dot(ca, cb) / (len(a) * sa * sb))


def _fit_stats(a: np.ndarray, b: np.ndarray):
    """Least-squares b ~ a: slope, residual variance, residual skew/kurtosis."""
    va = a.var()
    if va < 1e-24:
        slope = 0.0
    else:
        slope = float(np.dot(a - a.mean(), b - b.mean()) / (len(a) * va))
    resid = b - (b.mean() + slope * (a - a.mean()))
    _, _, rskew, rkurt = _moments(resid)
    return slope, float(max(resid.var(), 0.0)), rskew, rkurt


def _conditional_stats(bins_a: np.ndarray, b: np.ndarray):
    """Mean and spread of std(b | bin of a) over occupied bins."""
    stds = []
    for k in np.unique(bins_a):
        stds.append(b[bins_a == k].std())
    stds = np.array(stds)
    return float(stds.mean()), float(stds.std())


def extract_features(instance: PairInstance) -> np.ndarray:
    """The 43-feature vector in FEATURE_NAMES order; every value finite."""
    n = instance.n_obs
    if n < 2:
        raise ValidationError(f"instance {instance.id}: need >= 2 observations")

    out = {}
    xn = _normalize(instance.x, instance.x_kind)
    yn = _normalize(instance.y, instance.y_kind)
    rx = rankdata(instance.x)
    ry = rankdata(instance.y)

    for side, raw, norm, kind in (
        ("x", instance.x, xn, instance.x_kind),
        ("y", instance.y, yn, instance.y_kind),
    ):
        out[f"kind_num_{side}"] = float(kind is AttributeKind.NUMERICAL)
        out[f"kind_cat_{side}"] = float(kind is AttributeKind.CATEGORICAL)
        out[f"kind_bin_{side}"] = float(kind is AttributeKind.BINARY)
        mean, std, skew, kurt = _moments(norm)
        out[f"mean_{side}"] = mean
        out[f"std_{side}"] = std
        out[f"skew_{side}"] = skew
        out[f"kurt_{side}"] = kurt
        out[f"uniq_ratio_{side}"] = len(np.unique(raw)) / n

    xb = discretize(xn, FEATURE_BINS, instance.x_kind)
    yb = discretize(yn, FEATURE_BINS, instance.y_kind)
    joint = np.zeros((FEATURE_BINS, FEATURE_BINS))
    np.add.at(joint, (xb, yb), 1.0)
    cx = joint.sum(axis=1)
    cy = joint.sum(axis=0)
    hx = _entropy(cx)
    hy = _entropy(cy)
    hxy = _entropy(joint.ravel())
    mi = max(hx + hy - hxy, 0.0)
    log_bins = np.log(FEATURE_BINS)

    out["entropy_x"] = hx / log_bins
    out["entropy_y"] = hy / log_bins
    out["mode_freq_x"] = float(cx.max()) / n
    out["mode_freq_y"] = float(cy.max()) / n
    out["condstd_mean_xy"], out["condstd_spread_xy"] = _conditional_stats(xb, yn)
    out["condstd_mean_yx"], out["condstd_spread_yx"] = _conditional_stats(yb, xn)
    out["condent_xy"] = (hxy - hx) / log_bins
    out["condent_yx"] = (hxy - hy) / log_bins

    for d, a, b in (("xy", xn, yn), ("yx", yn, xn)):
        slope, resvar, rskew, rkurt = _fit_stats(a, b)
        out[f"slope_{d}"] = slope
        out[f"resvar_{d}"] = resvar
        out[f"res_skew_{d}"] = rskew
        out[f"res_kurt_{d}"] = rkurt

    out["log_n"] = float(np.log(n))
    pearson = _corr(instance.x, instance.y)
    spearman = _corr(rx, ry)
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
