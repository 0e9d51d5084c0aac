import numpy as np
import pytest
from scipy import stats

from causalpairs import synth
from causalpairs.dataset import AttributeKind, augment_swap, format_pairs, parse_pairs
from causalpairs.errors import ConfigurationError
from causalpairs.synth import (
    DEFAULT_MIX,
    GenSpec,
    Mechanism,
    generate,
    generate_benchmark,
    to_categorical,
)

ANM = Mechanism.ADDITIVE_NOISE_NONLINEAR


class ForcedFirstDraw:
    """A generator whose first random() returns ``value`` in place of its own
    draw, which it still consumes, so every later draw is unchanged."""

    def __init__(self, rng, value):
        self._rng = rng
        self._value = value

    def random(self, *args, **kwargs):
        draw = self._rng.random(*args, **kwargs)
        value, self._value = self._value, None
        return draw if value is None else value

    def __getattr__(self, name):
        return getattr(self._rng, name)


def generate_with_coin(spec, coin):
    """generate(spec) with the direction coin, the spec stream's first draw, forced."""
    real = synth.make_rng
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            synth, "make_rng", lambda seed: ForcedFirstDraw(real(seed), 0.0 if coin else 0.75)
        )
        return generate(spec)


class TestGenerate:
    def test_independent_always_label_zero(self):
        for seed in range(10):
            inst = generate(GenSpec(Mechanism.INDEPENDENT, 50, seed=seed))
            assert inst.label == 0

    def test_common_cause_label_zero(self):
        for seed in range(5):
            assert generate(GenSpec(Mechanism.COMMON_CAUSE, 50, seed=seed)).label == 0

    def test_causal_mechanisms_directional(self):
        for mech in (ANM, Mechanism.LINEAR_NON_GAUSSIAN):
            for seed in range(10):
                assert generate(GenSpec(mech, 50, seed=seed)).label in (1, -1)

    def test_same_seed_identical(self):
        spec = GenSpec(ANM, 64, seed=123)
        a, b = generate(spec), generate(spec)
        assert a.id == b.id and a.label == b.label
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_standardized(self):
        inst = generate(GenSpec(ANM, 500, seed=5))
        assert inst.x.mean() == pytest.approx(0.0, abs=1e-9)
        assert inst.x.std() == pytest.approx(1.0, abs=1e-9)
        assert inst.y.std() == pytest.approx(1.0, abs=1e-9)

    def test_low_noise_monotone_high_spearman(self):
        # with noise_scale -> 0 a monotone mechanism leaves |spearman| near 1;
        # seeds 1 and 6 draw strictly monotone functions (verified by rank
        # agreement of the near-noiseless pair)
        for seed in (1, 6):
            inst = generate(GenSpec(ANM, 400, noise_scale=1e-4, seed=seed))
            rho = abs(stats.spearmanr(inst.x, inst.y).statistic)
            assert rho > 0.99

    def test_forced_coin_matches_swap(self):
        for seed in (0, 3, 9):
            spec = GenSpec(ANM, 40, seed=seed)
            plain = generate_with_coin(spec, False)
            flipped = generate_with_coin(spec, True)
            # forcing the coin leaves the rest of the stream alone
            natural = generate(spec)
            assert any(np.array_equal(natural.x, inst.x) for inst in (plain, flipped))
            swapped = augment_swap(plain)
            assert flipped.label == swapped.label == -plain.label
            assert flipped.id == swapped.id == plain.id
            assert np.array_equal(flipped.x, swapped.x)
            assert np.array_equal(flipped.y, swapped.y)

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            GenSpec(ANM, 1, seed=0)
        with pytest.raises(ConfigurationError):
            GenSpec(ANM, 10, noise_scale=0.0)


class TestBenchmark:
    def test_exact_mechanism_allocation(self):
        mix = {ANM: 0.5, Mechanism.INDEPENDENT: 0.5}
        insts = generate_benchmark(100, mix=mix, n_obs_range=(20, 20), seed=1)
        labels = [i.label for i in insts]
        assert len(insts) == 100
        assert labels.count(0) == 50
        assert labels.count(1) + labels.count(-1) == 50

    def test_direction_coin_frequency(self):
        # each causal instance lands on 1 or -1 with probability 1/2;
        # with 600 causal draws, a 3-sigma band is 300 +- 3*sqrt(150)
        insts = generate_benchmark(
            600, mix={ANM: 1.0}, n_obs_range=(10, 10), seed=7
        )
        ones = sum(1 for i in insts if i.label == 1)
        assert abs(ones - 300) <= 3 * np.sqrt(150)

    def test_fixed_n_obs(self):
        insts = generate_benchmark(30, n_obs_range=(100, 100), seed=3)
        assert all(i.n_obs == 100 for i in insts)

    def test_n_obs_range(self):
        insts = generate_benchmark(200, n_obs_range=(50, 60), seed=4)
        counts = {i.n_obs for i in insts}
        assert counts <= set(range(50, 61))
        assert len(counts) > 3

    def test_deterministic(self):
        a = generate_benchmark(20, seed=11)
        b = generate_benchmark(20, seed=11)
        for i1, i2 in zip(a, b):
            assert i1.id == i2.id and np.array_equal(i1.x, i2.x)

    def test_default_mix_sums_to_one(self):
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)

    def test_bad_mix(self):
        with pytest.raises(ConfigurationError):
            generate_benchmark(10, mix={ANM: 0.7}, seed=0)

    def test_file_format_round_trip(self):
        insts = generate_benchmark(12, n_obs_range=(10, 15), seed=9)
        texts = format_pairs(insts)
        back = parse_pairs(*texts)
        assert len(back) == len(insts)
        for before, after in zip(insts, back):
            assert before.id == after.id
            assert before.label == after.label
            assert np.array_equal(before.x, after.x)
            assert np.array_equal(before.y, after.y)


class TestCategoricalPostStep:
    def test_discretizes_to_k_categories(self):
        inst = generate(GenSpec(ANM, 200, seed=6))
        cat = to_categorical(inst, 5)
        assert cat.x_kind is AttributeKind.CATEGORICAL
        assert set(np.unique(cat.x)) <= set(range(5))
        assert cat.label == inst.label

    def test_bad_bins(self):
        inst = generate(GenSpec(ANM, 20, seed=6))
        with pytest.raises(ConfigurationError):
            to_categorical(inst, 1)
