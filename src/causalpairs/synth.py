"""Synthetic labeled pair generation with known causal direction.

Mechanisms:

* additive-noise nonlinear:  y = f(x) + noise, f drawn from {polynomial of
  degree <= 3, sigmoid, sinusoid}, noise non-Gaussian -> label 1;
* linear non-Gaussian:       y = a*x + noise, a != 0, noise uniform or
  Laplace -> label 1;
* independent:               x, y independent draws -> label 0;
* common cause:              x = g(z)+noise, y = h(z)+noise for a latent
  z -> label 0.

A direction coin drawn first from the seed swaps the two attributes and
negates the label with probability 1/2, so generated corpora are
direction-balanced.  Both attributes are standardized to zero mean and
unit variance before emission.
"""

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import AttributeKind, PairInstance, augment_swap
from .errors import ConfigurationError
from .raster import discretize
from .seeding import derive_seed, make_rng


class Mechanism(Enum):
    ADDITIVE_NOISE_NONLINEAR = "anm"
    LINEAR_NON_GAUSSIAN = "linear"
    INDEPENDENT = "independent"
    COMMON_CAUSE = "common-cause"


@dataclass(frozen=True)
class GenSpec:
    mechanism: Mechanism
    n_obs: int
    noise_scale: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_obs < 2:
            raise ConfigurationError(f"n_obs must be >= 2, got {self.n_obs}")
        if not 0 < self.noise_scale < np.inf:  # written so that NaN fails too
            raise ConfigurationError(f"noise_scale must be finite and > 0, got {self.noise_scale}")


def _draw_source(rng, n):
    """Marginal for a cause/independent attribute: uniform or Gaussian mixture."""
    if rng.random() < 0.3:
        return rng.uniform(-2.0, 2.0, size=n)
    k = int(rng.integers(1, 4))
    means = rng.uniform(-2.0, 2.0, size=k)
    sds = rng.uniform(0.4, 1.2, size=k)
    comp = rng.integers(0, k, size=n)
    return rng.normal(means[comp], sds[comp])


def _draw_function(rng):
    """Nonlinear mechanism from {polynomial deg<=3, sigmoid, sinusoid}."""
    choice = int(rng.integers(0, 3))
    if choice == 0:
        coeffs = rng.uniform(-1.5, 1.5, size=3)
        if np.abs(coeffs).max() < 0.3:
            coeffs[0] += np.sign(coeffs[0]) or 1.0
        return lambda v: coeffs[0] * v + coeffs[1] * v**2 + coeffs[2] * v**3
    if choice == 1:
        a = rng.uniform(1.0, 3.0) * rng.choice((-1.0, 1.0))
        b = rng.uniform(1.0, 5.0)
        c = rng.uniform(-1.0, 1.0)
        return lambda v: a / (1.0 + np.exp(-b * (v - c)))
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.8, 3.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return lambda v: a * np.sin(b * v + phase)


def _unit_noise(rng, n, families=("uniform", "laplace", "symexp")):
    """Unit-variance non-Gaussian noise from a randomly chosen family."""
    family = families[int(rng.integers(0, len(families)))]
    if family == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=n)
    if family == "laplace":
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=n)
    # symmetrized exponential: exponential magnitude with a random sign
    return rng.exponential(1.0 / np.sqrt(2.0), size=n) * rng.choice((-1.0, 1.0), size=n)


def _standardize(v):
    sd = v.std()
    centered = v - v.mean()
    return centered / sd if sd > 1e-12 else centered


def _spread(rng, values, scale, n, families=("uniform", "laplace", "symexp")):
    target = max(values.std(), 1e-6) * scale
    return target * _unit_noise(rng, n, families)


def generate(spec: GenSpec) -> PairInstance:
    """One labeled instance; a pure, bit-reproducible function of the spec."""
    rng = make_rng(spec.seed)
    coin = bool(rng.random() < 0.5)
    n = spec.n_obs
    mech = spec.mechanism

    if mech is Mechanism.ADDITIVE_NOISE_NONLINEAR:
        x = _draw_source(rng, n)
        f = _draw_function(rng)
        fx = f(x)
        if fx.std() < 1e-6:
            fx = fx + x
        y = fx + _spread(rng, fx, spec.noise_scale, n)
        label = 1
    elif mech is Mechanism.LINEAR_NON_GAUSSIAN:
        x = _draw_source(rng, n)
        a = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        lin = a * x
        y = lin + _spread(rng, lin, spec.noise_scale, n, families=("uniform", "laplace"))
        label = 1
    elif mech is Mechanism.INDEPENDENT:
        x = _draw_source(rng, n)
        y = _draw_source(rng, n)
        label = 0
    elif mech is Mechanism.COMMON_CAUSE:
        z = rng.normal(0.0, 1.0, size=n)
        gz = _draw_function(rng)(z)
        hz = _draw_function(rng)(z)
        if gz.std() < 1e-6:
            gz = gz + z
        if hz.std() < 1e-6:
            hz = hz + z
        x = gz + _spread(rng, gz, spec.noise_scale, n)
        y = hz + _spread(rng, hz, spec.noise_scale, n)
        label = 0
    else:
        raise ConfigurationError(f"unknown mechanism {mech}")

    x = _standardize(x)
    y = _standardize(y)
    inst = PairInstance(
        id=f"{mech.value}-{spec.seed:x}",
        x=x,
        y=y,
        x_kind=AttributeKind.NUMERICAL,
        y_kind=AttributeKind.NUMERICAL,
        label=label,
    )
    return augment_swap(inst) if coin else inst


DEFAULT_MIX = {
    Mechanism.ADDITIVE_NOISE_NONLINEAR: 0.4,
    Mechanism.LINEAR_NON_GAUSSIAN: 0.2,
    Mechanism.INDEPENDENT: 0.2,
    Mechanism.COMMON_CAUSE: 0.2,
}


def _allocate(count, mix):
    """Exact largest-remainder allocation of count across the mix."""
    mechs = list(mix.keys())
    fracs = np.array([mix[m] for m in mechs], dtype=np.float64)
    # written so that a NaN fraction fails too
    if (fracs < 0).any() or not abs(fracs.sum() - 1.0) <= 1e-9:
        raise ConfigurationError(
            f"mechanism fractions {fracs.tolist()} must be >= 0 and sum to 1"
        )
    raw = fracs * count
    base = np.floor(raw).astype(int)
    remainder = count - base.sum()
    order = np.argsort(-(raw - base), kind="stable")
    for i in range(remainder):
        base[order[i]] += 1
    return {m: int(c) for m, c in zip(mechs, base)}


def generate_benchmark(
    count: int,
    mix=None,
    n_obs_range=(500, 500),
    seed: int = 0,
    noise_scale: float = 0.3,
) -> list[PairInstance]:
    """Deterministic labeled benchmark with an exact mechanism allocation.

    Per-instance sub-seeds derive from (seed, index), and the observation
    count is drawn uniformly from n_obs_range inclusive.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    lo, hi = n_obs_range
    if not 2 <= lo <= hi:
        raise ConfigurationError(f"bad n_obs_range {n_obs_range}")
    mix = DEFAULT_MIX if mix is None else mix
    allocation = _allocate(count, mix)
    instances = []
    index = 0
    for mech, n_mech in allocation.items():
        for _ in range(n_mech):
            sub_seed = derive_seed(seed, "instance", index)
            n_obs = int(make_rng(derive_seed(seed, "nobs", index)).integers(lo, hi + 1))
            spec = GenSpec(mechanism=mech, n_obs=n_obs, noise_scale=noise_scale, seed=sub_seed)
            inst = generate(spec)
            instances.append(dataclasses.replace(inst, id=f"pair{index:05d}"))
            index += 1
    return instances


def to_categorical(instance: PairInstance, k: int) -> PairInstance:
    """Post-step: discretize both attributes into k categorical bins."""
    if k < 2:
        raise ConfigurationError(f"need k >= 2 bins, got {k}")
    return PairInstance(
        id=instance.id,
        x=discretize(instance.x, k, instance.x_kind).astype(np.float64),
        y=discretize(instance.y, k, instance.y_kind).astype(np.float64),
        x_kind=AttributeKind.CATEGORICAL,
        y_kind=AttributeKind.CATEGORICAL,
        label=instance.label,
    )
