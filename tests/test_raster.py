import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalpairs.dataset import AttributeKind, PairInstance, augment_swap
from causalpairs.errors import ConfigurationError, ParseError, ValidationError
from causalpairs.raster import (
    RasterConfig,
    ScatterImage,
    discretize,
    rasterize,
    read_image,
    write_image,
)

NUM = AttributeKind.NUMERICAL
CAT = AttributeKind.CATEGORICAL
BIN = AttributeKind.BINARY


def instance(x, y, x_kind=NUM, y_kind=NUM, label=0, pid="r0"):
    return PairInstance(pid, np.asarray(x, float), np.asarray(y, float),
                        x_kind, y_kind, label)


class TestDiscretize:
    def test_halving(self):
        assert discretize(np.array([0.0, 0.5, 1.0]), 2, NUM).tolist() == [0, 1, 1]

    def test_constant_vector_goes_to_bin_zero(self):
        assert discretize(np.full(5, 3.7), 8, NUM).tolist() == [0] * 5

    def test_identity_binning(self):
        vals = np.arange(10, dtype=float)
        assert discretize(vals, 10, NUM).tolist() == list(range(10))

    def test_category_passthrough(self):
        assert discretize(np.array([0.0, 2.0, 1.0]), 5, CAT).tolist() == [0, 2, 1]

    def test_category_modulo_when_overflowing(self):
        vals = np.arange(7, dtype=float)
        assert discretize(vals, 3, CAT).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_max_value_lands_in_last_bin(self):
        assert discretize(np.array([0.0, 10.0]), 4, NUM).tolist() == [0, 3]

    def test_invalid_m(self):
        with pytest.raises(ConfigurationError):
            discretize(np.array([1.0]), 1, NUM)

    def test_empty(self):
        with pytest.raises(ValidationError):
            discretize(np.array([]), 4, NUM)


class TestRasterize:
    def test_binary_frequency_normalization(self):
        # cell counts {(0,0):40, (0,1):10, (1,0):10, (1,1):40}:
        # fmin over occupied = 10, fmax = 40, so count 40 -> 255, count 10 -> 0
        x = np.array([0] * 40 + [0] * 10 + [1] * 10 + [1] * 40, float)
        y = np.array([0] * 40 + [1] * 10 + [0] * 10 + [1] * 40, float)
        img = rasterize(instance(x, y, BIN, BIN), RasterConfig(m=2))
        assert img.pixels[0, 0] == 255  # (x=0, y=0)
        assert img.pixels[1, 1] == 255
        assert img.pixels[1, 0] == 0
        assert img.pixels[0, 1] == 0

    def test_equal_counts_all_max(self):
        x = np.array([0, 1, 0, 1], float)
        y = np.array([0, 0, 1, 1], float)
        img = rasterize(instance(x, y, BIN, BIN), RasterConfig(m=2))
        assert (img.pixels == 255).all()

    def test_occupancy_diagonal(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        img = rasterize(instance(vals, vals), RasterConfig(m=4))
        assert np.array_equal(img.pixels, np.diag([255] * 4).astype(np.uint8))

    def test_occupancy_values_binary(self):
        rng = np.random.default_rng(0)
        img = rasterize(
            instance(rng.normal(size=300), rng.normal(size=300)), RasterConfig(m=16)
        )
        assert set(np.unique(img.pixels)) <= {0, 255}

    def test_categorical_enlargement_fills_canvas(self):
        x = np.array([0, 0, 1, 1], float)
        y = np.array([0, 1, 0, 1], float)
        img = rasterize(instance(x, y, BIN, BIN), RasterConfig(m=8))
        # 2x2 grid of equal counts blown up to 8x8 blocks of 255
        assert img.pixels.shape == (8, 8)
        assert (img.pixels == 255).all()

    def test_mixed_pair_uses_occupancy(self):
        x = np.array([0, 0, 0, 1, 1, 1], float)
        y = np.array([0.0, 0.1, 0.2, 0.8, 0.9, 1.0])
        img = rasterize(instance(x, y, BIN, NUM), RasterConfig(m=4))
        assert set(np.unique(img.pixels)) <= {0, 255}

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=50), rng.normal(size=50)
        perm = rng.permutation(50)
        a = rasterize(instance(x, y), RasterConfig(m=10))
        b = rasterize(instance(x[perm], y[perm]), RasterConfig(m=10))
        assert np.array_equal(a.pixels, b.pixels)


def _random_instance(rng, kinds, n):
    vecs = []
    for kind in kinds:
        if kind is NUM:
            vecs.append(rng.normal(size=n) * rng.uniform(0.1, 10))
        elif kind is BIN:
            vecs.append(rng.integers(0, 2, size=n).astype(float))
        else:
            vecs.append(rng.integers(0, rng.integers(2, 9), size=n).astype(float))
    return instance(vecs[0], vecs[1], kinds[0], kinds[1])


ALL_KINDS = [(a, b) for a in (NUM, CAT, BIN) for b in (NUM, CAT, BIN)]


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    kinds=st.sampled_from(ALL_KINDS),
    n=st.integers(min_value=1, max_value=400),
    m=st.sampled_from([2, 3, 7, 16, 64]),
)
@settings(max_examples=120, deadline=None)
def test_transpose_symmetry_property(seed, kinds, n, m):
    rng = np.random.default_rng(seed)
    inst = _random_instance(rng, kinds, n)
    img = rasterize(inst, RasterConfig(m=m))
    img_swapped = rasterize(augment_swap(inst), RasterConfig(m=m))
    assert np.array_equal(img_swapped.pixels, img.pixels.T)


class TestImageIO:
    def test_exact_bytes(self, tmp_path):
        img = ScatterImage(pixels=np.array([[0, 255], [255, 0]], dtype=np.uint8), m=2)
        path = tmp_path / "a.pgm"
        write_image(img, path)
        data = path.read_bytes()
        # header P5\n2 2\n255\n (11 bytes) then 4 payload bytes, inverted,
        # top row (y bin 1) first
        assert data[:11] == b"P5\n2 2\n255\n"
        assert data[11:] == bytes([0, 255, 255, 0])

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(5):
            m = int(rng.integers(2, 40))
            img = ScatterImage(
                pixels=rng.integers(0, 256, size=(m, m)).astype(np.uint8), m=m
            )
            path = tmp_path / f"r{i}.pgm"
            write_image(img, path)
            back = read_image(path)
            assert back.m == img.m
            assert np.array_equal(back.pixels, img.pixels)

    def test_zero_image_payload(self, tmp_path):
        img = ScatterImage(pixels=np.zeros((3, 3), dtype=np.uint8), m=3)
        path = tmp_path / "z.pgm"
        write_image(img, path)
        assert path.read_bytes()[-9:] == b"\xff" * 9  # darkness 0 = white bytes

    def test_write_failure_names_path(self, tmp_path):
        img = ScatterImage(pixels=np.zeros((2, 2), dtype=np.uint8), m=2)
        with pytest.raises(OSError) as err:
            write_image(img, tmp_path / "no" / "such" / "dir.pgm")
        assert "dir.pgm" in str(err.value)

    @pytest.mark.parametrize("side", [b"ab", b"0", b"-4", b"4.0"])
    def test_side_not_a_positive_integer_is_parse_error(self, tmp_path, side):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n" + side + b" " + side + b"\n255\n" + bytes(16))
        with pytest.raises(ParseError, match="not a positive integer") as err:
            read_image(path)
        assert str(path) in str(err.value)
