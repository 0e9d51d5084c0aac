"""Statistical feature vectors for pair instances (43 features per pair).

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

Batching: ``extract_features`` takes a list of pairs and works on chunks
of them, each chunk's observations concatenated into one vector per
attribute.  Only the sort, one argsort per attribute per pair, and
``raster.discretize`` run per pair.  The sort gives the sorted order, and
``ranks.sorted_ranks`` turns it into average ranks and distinct counts.
Everything else is a segment reduction over the chunk: ``np.add.reduceat``
for sums, which adds each pair's terms one after another, and
``np.bincount`` on ``pair * bins + bin`` for the joint histogram and the
per-bin sums.  A chunk holds at most _CHUNK_OBS = 16,384 observations (one
pair at least), so a batch's temporaries stay near 2.5 MB.  A pair's features
depend on its own observations only, never on its chunk or the other pairs.

Exactness:

* Each attribute's own moments (of the normalized values, the ranks and
  the raw values) are summed over the attribute in sorted order.  So the
  per-attribute features do not change by a bit when the rows are
  permuted, and a tie-free numerical attribute's mean, std, skewness and
  kurtosis depend on n alone.
* Swapping the attributes gives the exchanged vector bit for bit.  Cross
  sums multiply elementwise, which commutes; the correlation denominators
  are ``n * (sa * sb)``; the joint entropy is summed over the sorted joint
  counts, which a transpose of the histogram does not change.
"""

from typing import NamedTuple

import numpy as np

from .dataset import AttributeKind
from .errors import ValidationError
from .ranks import sorted_ranks
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

# observations per chunk: a chunk's temporaries peak near 20 float64
# vectors of this length, about 2.5 MB, however many pairs a batch holds
_CHUNK_OBS = 16_384

_LOG_BINS = np.log(FEATURE_BINS)


class _Segments(NamedTuple):
    """A chunk's pairs laid end to end in one vector per attribute."""

    sizes: np.ndarray   # [P] observations per pair
    n: np.ndarray       # [P] the same as float64
    starts: np.ndarray  # [P] index of each pair's first observation

    def sum(self, v: np.ndarray) -> np.ndarray:
        """Each pair's sum of v, its terms added in the order they appear."""
        return np.add.reduceat(v, self.starts)

    def spread(self, per_pair: np.ndarray) -> np.ndarray:
        """[N] array holding each pair's value at each of its observations."""
        return np.repeat(per_pair, self.sizes)

    def centred(self, v: np.ndarray):
        """Each pair's mean, v minus its pair's mean, and population variance."""
        mean = self.sum(v) / self.n
        dev = v - self.spread(mean)
        return mean, dev, self.sum(dev * dev) / self.n

    def shape(self, dev: np.ndarray, std: np.ndarray):
        """Skewness and excess kurtosis from deviations; 0 where std < 1e-12."""
        ok = std >= 1e-12
        z = dev / self.spread(np.where(ok, std, 1.0))
        z2 = z * z
        skew = np.where(ok, self.sum(z2 * z) / self.n, 0.0)
        kurt = np.where(ok, self.sum(z2 * z2) / self.n - 3.0, 0.0)
        return skew, kurt


class _Attribute(NamedTuple):
    """One attribute of every pair in a chunk; [N] arrays are in data order."""

    kinds: list
    norm: np.ndarray      # [N] rank-normalized (numerical) or the integer codes
    bins: np.ndarray      # [N] FEATURE_BINS-bin discretization of norm
    distinct: np.ndarray  # [P]
    mean: np.ndarray      # [P] of norm
    dev: np.ndarray       # [N] norm minus its mean
    var: np.ndarray       # [P] of norm
    std: np.ndarray       # [P] of norm, 0 for a constant attribute
    skew: np.ndarray
    kurt: np.ndarray
    rank_dev: np.ndarray  # [N] for Spearman
    rank_std: np.ndarray
    raw_dev: np.ndarray   # [N] for Pearson
    raw_std: np.ndarray   # [P] not finite where the raw spread overflows


def _attribute(seg: _Segments, vectors, kinds) -> _Attribute:
    raw = np.concatenate(vectors)
    size = len(raw)
    # the sort, per pair, as indices into the chunk.  Tied values may come
    # in any order: they have one rank, and a sum does not depend on
    # where its zeros of either sign fall.
    order = np.concatenate([np.argsort(v) for v in vectors])
    order += seg.spread(seg.starts)
    ordered = raw[order]
    ranks_sorted, distinct = sorted_ranks(ordered, seg.starts)
    ranks = np.empty(size)
    ranks[order] = ranks_sorted
    numerical = seg.spread(np.array([k is AttributeKind.NUMERICAL for k in kinds]))
    n_obs = seg.spread(seg.n)
    norm_sorted = np.where(numerical, ranks_sorted / n_obs, ordered)
    norm = np.where(numerical, ranks / n_obs, raw)

    # the attribute's own moments, summed in sorted order
    mean, dev_sorted, var = seg.centred(norm_sorted)
    std = np.where(distinct == 1, 0.0, np.sqrt(var))
    skew, kurt = seg.shape(dev_sorted, std)
    rank_mean, _, rank_var = seg.centred(ranks_sorted)
    with np.errstate(over="ignore", invalid="ignore"):
        # a raw spread beyond float64 is reported by _chunk_features
        raw_mean, _, raw_var = seg.centred(ordered)
        raw_dev = raw - seg.spread(raw_mean)

    bounds = np.append(seg.starts, size).tolist()
    bins = np.concatenate([
        discretize(norm[i:j], FEATURE_BINS, kind)
        for i, j, kind in zip(bounds[:-1], bounds[1:], kinds)
    ])
    return _Attribute(
        kinds=kinds, norm=norm, bins=bins, distinct=distinct,
        mean=mean, dev=norm - seg.spread(mean), var=var, std=std, skew=skew, kurt=kurt,
        rank_dev=ranks - seg.spread(rank_mean), rank_std=np.sqrt(rank_var),
        raw_dev=raw_dev, raw_std=np.sqrt(raw_var),
    )


def _entropy(counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Entropy (nats) of each row of counts over n observations; 0 log 0 = 0."""
    p = counts / n[:, None]
    return -np.add.reduce(p * np.log(np.where(counts > 0, p, 1.0)), axis=1)


def _corr(seg: _Segments, dev_a, std_a, dev_b, std_b) -> np.ndarray:
    """Correlation of each pair; 0 where either side is (nearly) constant."""
    ok = (std_a >= 1e-12) & (std_b >= 1e-12)
    denom = np.where(ok, seg.n * (std_a * std_b), 1.0)
    return np.where(ok, seg.sum(dev_a * dev_b) / denom, 0.0)


def _fit_stats(seg: _Segments, a: _Attribute, b: _Attribute, cov: np.ndarray):
    """Least-squares b ~ a: slope, residual variance, residual skew/kurtosis.

    cov is each pair's sum of a.dev * b.dev.
    """
    flat = a.var < 1e-24
    slope = np.where(flat, 0.0, cov / np.where(flat, 1.0, seg.n * a.var))
    resid = b.norm - (seg.spread(b.mean) + seg.spread(slope) * a.dev)
    _, dev, var = seg.centred(resid)
    varies = np.maximum.reduceat(resid, seg.starts) != np.minimum.reduceat(resid, seg.starts)
    rskew, rkurt = seg.shape(dev, np.where(varies, np.sqrt(var), 0.0))
    return slope, var, rskew, rkurt


def _conditional_stats(seg: _Segments, key_a: np.ndarray, counts_a: np.ndarray, b):
    """Mean and spread of std(b | bin of a) over each pair's occupied bins.

    key_a is ``pair * FEATURE_BINS + bin`` of a, counts_a its [P, bins] counts.
    """
    size = counts_a.size
    occupied = counts_a > 0
    denom = np.where(occupied, counts_a, 1).ravel()
    means = np.bincount(key_a, weights=b, minlength=size) / denom
    dev = b - means[key_a]
    stds = np.sqrt(np.bincount(key_a, weights=dev * dev, minlength=size) / denom)
    stds = stds.reshape(counts_a.shape)
    k = np.count_nonzero(occupied, axis=1)
    mean = np.add.reduce(stds, axis=1) / k
    spread = np.where(occupied, stds - mean[:, None], 0.0)
    return mean, np.sqrt(np.add.reduce(spread * spread, axis=1) / k)


def _chunk_features(instances) -> np.ndarray:
    """The feature rows of one chunk of pairs, each with at least 2 observations."""
    sizes = np.array([inst.n_obs for inst in instances])
    n = len(sizes)
    seg = _Segments(sizes, sizes.astype(np.float64), np.cumsum(sizes) - sizes)
    x = _attribute(seg, [i.x for i in instances], [i.x_kind for i in instances])
    y = _attribute(seg, [i.y for i in instances], [i.y_kind for i in instances])

    bad = ~(np.isfinite(x.raw_std) & np.isfinite(y.raw_std))
    if bad.any():
        p = int(np.argmax(bad))
        side = "y" if np.isfinite(x.raw_std[p]) else "x"
        raise ValidationError(
            f"instance {instances[p].id}: the variance of {side} overflows float64,"
            " so its Pearson correlation is undefined"
        )

    out = {}
    for side, a in (("x", x), ("y", y)):
        for kind in AttributeKind:
            out[f"kind_{kind.value}_{side}"] = np.array(
                [float(k is kind) for k in a.kinds]
            )
        out[f"mean_{side}"] = a.mean
        out[f"std_{side}"] = a.std
        out[f"skew_{side}"] = a.skew
        out[f"kurt_{side}"] = a.kurt
        out[f"uniq_ratio_{side}"] = a.distinct / seg.n

    base = seg.spread(np.arange(0, n * FEATURE_BINS, FEATURE_BINS))
    joint = np.bincount(
        (base + x.bins) * FEATURE_BINS + y.bins, minlength=n * FEATURE_BINS * FEATURE_BINS
    ).reshape(n, FEATURE_BINS, FEATURE_BINS)
    cx = np.add.reduce(joint, axis=2)
    cy = np.add.reduce(joint, axis=1)
    hx = _entropy(cx, seg.n)
    hy = _entropy(cy, seg.n)
    hxy = _entropy(np.sort(joint.reshape(n, -1), axis=1), seg.n)
    mi = np.maximum(hx + hy - hxy, 0.0)

    out["entropy_x"] = hx / _LOG_BINS
    out["entropy_y"] = hy / _LOG_BINS
    out["mode_freq_x"] = cx.max(axis=1) / seg.n
    out["mode_freq_y"] = cy.max(axis=1) / seg.n
    out["condstd_mean_xy"], out["condstd_spread_xy"] = _conditional_stats(
        seg, base + x.bins, cx, y.norm
    )
    out["condstd_mean_yx"], out["condstd_spread_yx"] = _conditional_stats(
        seg, base + y.bins, cy, x.norm
    )
    out["condent_xy"] = (hxy - hx) / _LOG_BINS
    out["condent_yx"] = (hxy - hy) / _LOG_BINS

    cov = seg.sum(x.dev * y.dev)
    for d, a, b in (("xy", x, y), ("yx", y, x)):
        (out[f"slope_{d}"], out[f"resvar_{d}"],
         out[f"res_skew_{d}"], out[f"res_kurt_{d}"]) = _fit_stats(seg, a, b, cov)

    out["log_n"] = np.log(seg.n)
    pearson = _corr(seg, x.raw_dev, x.raw_std, y.raw_dev, y.raw_std)
    spearman = _corr(seg, x.rank_dev, x.rank_std, y.rank_dev, y.rank_std)
    out["pearson"] = pearson
    out["abs_pearson"] = np.abs(pearson)
    out["spearman"] = spearman
    out["abs_spearman"] = np.abs(spearman)
    out["mutual_info"] = mi
    denom = np.sqrt(hx * hy)
    ok = denom > 1e-12
    out["mutual_info_norm"] = np.where(ok, mi / np.where(ok, denom, 1.0), 0.0)
    out["joint_entropy_norm"] = hxy / (2.0 * _LOG_BINS)
    out["occupied_ratio"] = np.count_nonzero(
        joint.reshape(n, -1), axis=1
    ) / (FEATURE_BINS * FEATURE_BINS)

    mat = np.column_stack([out[name] for name in FEATURE_NAMES])
    finite = np.isfinite(mat)
    if not finite.all():
        p = int(np.argmin(finite.all(axis=1)))
        bad = [FEATURE_NAMES[i] for i in np.flatnonzero(~finite[p])]
        raise ValidationError(f"non-finite features {bad} for instance {instances[p].id}")
    return mat


def extract_features(instances) -> np.ndarray:
    """[len(instances), N_FEATURES] matrix in FEATURE_NAMES column order.

    instances is a sequence of PairInstance; pass one pair as ``[inst]``.
    Every value is finite: a pair with fewer than 2 observations, a raw
    spread that overflows float64 or a non-finite feature raises
    ValidationError naming the first pair at fault.
    """
    for inst in instances:
        if inst.n_obs < 2:
            raise ValidationError(f"instance {inst.id}: need >= 2 observations")
    out = np.empty((len(instances), N_FEATURES))
    start = 0
    while start < len(instances):
        stop, total = start + 1, instances[start].n_obs
        while stop < len(instances) and total + instances[stop].n_obs <= _CHUNK_OBS:
            total += instances[stop].n_obs
            stop += 1
        out[start:stop] = _chunk_features(instances[start:stop])
        start = stop
    return out
