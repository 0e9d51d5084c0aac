import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalpairs.dataset import AttributeKind, PairInstance, augment_swap
from causalpairs.errors import ConfigurationError, ParseError, ValidationError
from causalpairs.raster import (
    discretize,
    rasterize,
    rasterize_all,
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

    def test_span_beyond_float64(self):
        # vmax - vmin overflows; the operands are halved instead
        vals = np.array([1e308, -1e308, 0.0, 5e307, -1.7976931348623157e308])
        bins = discretize(vals, 8, NUM)
        assert bins.tolist() == [7, 2, 5, 6, 0]

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
        img = rasterize(instance(x, y, BIN, BIN), 2)
        assert img[0, 0] == 255  # (x=0, y=0)
        assert img[1, 1] == 255
        assert img[1, 0] == 0
        assert img[0, 1] == 0

    def test_equal_counts_all_max(self):
        x = np.array([0, 1, 0, 1], float)
        y = np.array([0, 0, 1, 1], float)
        img = rasterize(instance(x, y, BIN, BIN), 2)
        assert (img == 255).all()

    def test_occupancy_diagonal(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        img = rasterize(instance(vals, vals), 4)
        assert np.array_equal(img, np.diag([255] * 4).astype(np.uint8))

    def test_occupancy_values_binary(self):
        rng = np.random.default_rng(0)
        img = rasterize(
            instance(rng.normal(size=300), rng.normal(size=300)), 16
        )
        assert set(np.unique(img)) <= {0, 255}

    def test_categorical_enlargement_fills_canvas(self):
        x = np.array([0, 0, 1, 1], float)
        y = np.array([0, 1, 0, 1], float)
        img = rasterize(instance(x, y, BIN, BIN), 8)
        # 2x2 grid of equal counts blown up to 8x8 blocks of 255
        assert img.shape == (8, 8)
        assert (img == 255).all()

    def test_mixed_pair_uses_occupancy(self):
        x = np.array([0, 0, 0, 1, 1, 1], float)
        y = np.array([0.0, 0.1, 0.2, 0.8, 0.9, 1.0])
        img = rasterize(instance(x, y, BIN, NUM), 4)
        assert set(np.unique(img)) <= {0, 255}

    def test_side_below_two_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="m must be >= 2"):
            rasterize(instance([0.0, 1.0], [1.0, 0.0]), 1)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=50), rng.normal(size=50)
        perm = rng.permutation(50)
        a = rasterize(instance(x, y), 10)
        b = rasterize(instance(x[perm], y[perm]), 10)
        assert np.array_equal(a, b)


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
    img = rasterize(inst, m)
    img_swapped = rasterize(augment_swap(inst), m)
    assert np.array_equal(img_swapped, img.T)


class TestRasterizeAll:
    def test_stack_holds_each_image_in_order(self):
        rng = np.random.default_rng(5)
        insts = [_random_instance(rng, kinds, 30) for kinds in ALL_KINDS]
        stack = rasterize_all(insts, 16)
        assert stack.shape == (len(insts), 16, 16) and stack.dtype == np.uint8
        for inst, img in zip(insts, stack):
            assert np.array_equal(img, rasterize(inst, 16))
        assert not stack.flags.writeable
        assert rasterize_all([], 16).shape == (0, 16, 16)

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_side_below_two_is_configuration_error(self, m):
        with pytest.raises(ConfigurationError, match="m must be >= 2"):
            rasterize_all([instance([0.0, 1.0], [1.0, 0.0])], m)

    def test_stack_too_large_to_allocate_is_configuration_error(self):
        # 1.42 PiB: numpy refuses the request before it allocates anything
        with pytest.raises(ConfigurationError, match="side 40000000 do not fit in memory"):
            rasterize_all([instance([0.0, 1.0], [1.0, 0.0])], 40_000_000)


class TestScatterImage:
    """Images are plain uint8 arrays: what the functions return is read-only
    and C-contiguous, and what they are given they leave as it was."""

    def test_side_is_the_grid_side_and_pixels_are_read_only_uint8(self, tmp_path):
        img = rasterize(instance([0.0, 1.0, 2.0], [2.0, 0.0, 1.0]), 3)
        write_image(img, tmp_path / "a.pgm")
        for pixels in (img, read_image(tmp_path / "a.pgm")):
            assert pixels.shape == (3, 3)
            assert pixels.dtype == np.uint8 and pixels.flags.c_contiguous
            with pytest.raises(ValueError):
                pixels[0, 0] = 1

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_callers_array_stays_writeable_and_apart(self, tmp_path, order):
        a = np.asarray(np.arange(4, dtype=np.uint8).reshape(2, 2), order=order)
        write_image(a, tmp_path / "a.pgm")
        img = read_image(tmp_path / "a.pgm")
        assert a.flags.writeable and img.flags.c_contiguous
        a[0, 0] = 200
        assert img.tolist() == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("shape",[(2, 3), (4,), (2, 2, 2)])
    def test_grid_that_is_not_square_is_validation_error(self, tmp_path, shape):
        with pytest.raises(ValidationError, match="not square uint8"):
            write_image(np.zeros(shape, dtype=np.uint8), tmp_path / "a.pgm")
        assert not (tmp_path / "a.pgm").exists()
        (tmp_path / "b.pgm").write_bytes(b"P5\n2 3\n255\n" + bytes(6))
        with pytest.raises(ParseError, match="unsupported PGM header"):
            read_image(tmp_path / "b.pgm")

    def test_grid_that_is_not_uint8_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="float64 pixel grid"):
            write_image(np.zeros((2, 2)), tmp_path / "a.pgm")


class TestImageIO:
    def test_exact_bytes(self, tmp_path):
        img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
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
            img = rng.integers(0, 256, size=(m, m)).astype(np.uint8)
            path = tmp_path / f"r{i}.pgm"
            write_image(img, path)
            back = read_image(path)
            assert back.shape == img.shape
            assert np.array_equal(back, img)

    def test_zero_image_payload(self, tmp_path):
        img = np.zeros((3, 3), dtype=np.uint8)
        path = tmp_path / "z.pgm"
        write_image(img, path)
        assert path.read_bytes()[-9:] == b"\xff" * 9  # darkness 0 = white bytes

    def test_write_failure_names_path(self, tmp_path):
        img = np.zeros((2, 2), dtype=np.uint8)
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
