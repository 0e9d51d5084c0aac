import struct
import tracemalloc

import numpy as np
import pytest

from causalpairs import nnet
from causalpairs.errors import ConfigurationError, InputError, ShapeError, TrainingError
from causalpairs.nnet import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    Network,
    Relu,
    Softmax,
    backward,
    conv2d_forward,
    cross_entropy,
    dense_forward,
    gradient_check,
    maxpool_forward,
    sgd_step,
    softmax,
)


class TestConvForward:
    def test_identity_kernel(self):
        x = np.array([[[5.0]]])
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d_forward(x, k, np.zeros(1))
        assert out == pytest.approx(np.array([[[5.0]]]))

    def test_all_ones_zero_padding(self):
        # 3x3 ones vs 3x3 ones kernel: center sums the full window (9),
        # edge centers see 6 in-range cells, corners see 4
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, k, np.zeros(1))[0]
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        assert out == pytest.approx(expected)

    def test_same_padding_shape(self):
        x = np.zeros((2, 5, 7))
        k = np.zeros((4, 2, 3, 3))
        assert conv2d_forward(x, k, np.zeros(4)).shape == (4, 5, 7)

    def test_bias_added(self):
        x = np.zeros((1, 2, 2))
        k = np.zeros((3, 1, 3, 3))
        out = conv2d_forward(x, k, np.array([1.0, -2.0, 0.5]))
        assert out[0] == pytest.approx(np.ones((2, 2)))
        assert out[1] == pytest.approx(-2 * np.ones((2, 2)))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError) as err:
            conv2d_forward(np.zeros((2, 4, 4)), np.zeros((3, 1, 3, 3)), np.zeros(3))
        assert "(2, 4, 4)" in str(err.value) and "(3, 1, 3, 3)" in str(err.value)


class TestMaxPool:
    def test_single_window(self):
        out = maxpool_forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out == pytest.approx(np.array([[[4.0]]]))

    def test_floor_semantics(self):
        assert maxpool_forward(np.zeros((3, 5, 5))).shape == (3, 2, 2)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            maxpool_forward(np.zeros((1, 1, 4)))

    def test_tie_gradient_goes_to_first_scanned(self):
        pool = MaxPool()
        x = np.full((1, 1, 2, 2), 7.0)
        pool.forward(x)
        dx = pool.backward(np.ones((1, 1, 1, 1)))
        assert dx[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


class TestDense:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        assert dense_forward(x, np.eye(3), np.zeros(3)) == pytest.approx(x)

    def test_zero_weights_gives_bias(self):
        b = np.array([4.0, 5.0])
        assert dense_forward(np.ones(3), np.zeros((2, 3)), b) == pytest.approx(b)

    def test_hand_value(self):
        out = dense_forward(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                            np.zeros(2))
        assert out == pytest.approx([3.0, 7.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dense_forward(np.ones(3), np.ones((2, 4)), np.zeros(2))


class TestSoftmaxAndLoss:
    def test_uniform(self):
        assert softmax(np.zeros(3)) == pytest.approx([1 / 3] * 3)

    def test_stability(self):
        out = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.5])
        assert softmax(z + 17.0) == pytest.approx(softmax(z), abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = softmax(rng.normal(size=5) * 10)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_cross_entropy_values(self):
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-9)
        assert cross_entropy(np.array([1 / 3] * 3), 2) == pytest.approx(np.log(3))

    def test_cross_entropy_monotone(self):
        losses = [cross_entropy(np.array([p, 1 - p]), 0) for p in (0.2, 0.5, 0.9)]
        assert losses[0] > losses[1] > losses[2]

    def test_cross_entropy_bad_index(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)


def tiny_dense_net(n_in=4, n_out=3, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Network([Dense(n_in, n_out, rng), Softmax()])


class TestBackward:
    def test_dense_softmax_closed_form(self):
        # d(loss)/d(weights) = (p - onehot) outer input
        net = tiny_dense_net(seed=3)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        _, grads = backward(net, x, true_class=1)
        p = net.forward(x[None])[0]
        delta = p.copy()
        delta[1] -= 1.0
        assert grads["layer0.dense.weights"] == pytest.approx(np.outer(delta, x))
        assert grads["layer0.dense.bias"] == pytest.approx(delta)

    def test_zero_input_conv_gradients(self):
        rng = np.random.Generator(np.random.PCG64(1))
        net = Network([Conv(1, 2, rng), Flatten(),
                       Dense(2 * 4 * 4, 3, rng), Softmax()])
        x = np.zeros((1, 4, 4))
        _, grads = backward(net, x, true_class=0)
        assert grads["layer0.conv.kernels"] == pytest.approx(np.zeros((2, 1, 3, 3)))
        assert np.abs(grads["layer0.conv.bias"]).max() > 0

    def test_linear_dense_gradient_at_roundoff(self):
        net = tiny_dense_net(seed=3)
        x = np.array([1.0, 2.0, -0.5, 0.3])
        err = gradient_check(net, x, true_class=0, epsilon=1e-5)
        assert err <= 1e-9

    def test_full_conv_net_gradient_check(self):
        rng = np.random.Generator(np.random.PCG64(12))
        net = Network([
            Conv(1, 3, rng), Relu(),
            Conv(3, 3, rng), Relu(),
            MaxPool(), Flatten(),
            Dense(3 * 4 * 4, 3, rng), Softmax(),
        ])
        x = rng.normal(size=(1, 8, 8))
        err = gradient_check(net, x, true_class=2, epsilon=1e-5, max_params=300, seed=4)
        assert err <= 1e-4

    def test_epsilon_precondition(self):
        net = tiny_dense_net()
        with pytest.raises(ConfigurationError):
            gradient_check(net, np.zeros(4), 0, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            gradient_check(net, np.zeros(4), 0, epsilon=1e-3)


class TestSgd:
    def test_plain_step(self):
        p = [("w", np.array([1.0]))]
        g = [("w", np.array([1.0]))]
        v = [np.zeros(1)]
        sgd_step(p, g, v, learning_rate=0.1, momentum=0.0)
        assert p[0][1] == pytest.approx([0.9])

    def test_zero_gradient_no_change(self):
        p = [("w", np.array([2.0, 3.0]))]
        g = [("w", np.zeros(2))]
        v = [np.zeros(2)]
        sgd_step(p, g, v, 0.5, 0.0)
        assert p[0][1] == pytest.approx([2.0, 3.0])

    def test_momentum_recursion(self):
        # v1 = -lr*g1 = -0.2; p1 = 1 - 0.2 = 0.8
        # v2 = 0.9*(-0.2) - 0.1*1 = -0.28; p2 = 0.8 - 0.28 = 0.52
        p = [("w", np.array([1.0]))]
        v = [np.zeros(1)]
        g = [("w", np.array([2.0]))]
        sgd_step(p, g, v, 0.1, 0.9)
        assert p[0][1] == pytest.approx([0.8])
        g = [("w", np.array([1.0]))]
        sgd_step(p, g, v, 0.1, 0.9)
        assert p[0][1] == pytest.approx([0.52])

    def test_nonfinite_gradient_names_parameter(self):
        p = [("layer3.dense.weights", np.array([1.0]))]
        g = [("layer3.dense.weights", np.array([np.nan]))]
        v = [np.zeros(1)]
        with pytest.raises(TrainingError) as err:
            sgd_step(p, g, v, 0.1, 0.0)
        assert "layer3.dense.weights" in str(err.value)

    def test_parameter_validation(self):
        p, g, v = [("w", np.ones(1))], [("w", np.ones(1))], [np.zeros(1)]
        with pytest.raises(ConfigurationError):
            sgd_step(p, g, v, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            sgd_step(p, g, v, 0.1, 1.0)


class TestLossDescent:
    def test_loss_non_increasing_50_steps(self):
        rng = np.random.Generator(np.random.PCG64(21))
        net = Network([
            Conv(1, 2, rng), Relu(), MaxPool(), Flatten(),
            Dense(2 * 3 * 3, 3, rng), Softmax(),
        ])
        xs = rng.normal(size=(6, 1, 6, 6))
        cls = np.array([0, 1, 2, 0, 1, 2])
        params = net.parameters()
        vel = [np.zeros_like(a) for _, a in params]
        losses = []
        for _ in range(50):
            losses.append(net.loss_and_backward(xs, cls))
            sgd_step(params, net.gradients(), vel, 1e-4, 0.0)
        losses.append(net.loss_and_backward(xs, cls))
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).all()


class TestSerialization:
    def test_round_trip_bytes_and_behavior(self):
        rng = np.random.Generator(np.random.PCG64(8))
        net = Network([
            Conv(1, 2, rng), Relu(), MaxPool(), Flatten(),
            Dense(2 * 2 * 2, 3, rng), Softmax(),
        ])
        blob = nnet.network_to_bytes(net)
        again = nnet.network_from_bytes(blob)
        assert nnet.network_to_bytes(again) == blob
        x = rng.normal(size=(2, 1, 4, 4))
        assert again.forward(x) == pytest.approx(net.forward(x), abs=0)

    def test_magic_rejected(self):
        with pytest.raises(InputError):
            nnet.network_from_bytes(b"JUNKxxxxxxxxxxxx")

    def test_every_truncation_and_trailing_byte_is_input_error(self):
        rng = np.random.Generator(np.random.PCG64(9))
        blob = nnet.network_to_bytes(Network([
            Conv(1, 2, rng), Relu(), MaxPool(), Flatten(), Dense(2, 3, rng), Softmax(),
        ]))
        for cut in range(len(blob)):
            with pytest.raises(InputError):
                nnet.network_from_bytes(blob[:cut])
        with pytest.raises(InputError, match="trailing"):
            nnet.network_from_bytes(blob + b"\0")

    def test_bad_records_are_input_errors(self):
        blob = nnet.network_to_bytes(Network([Dense(2, 3, None), Softmax()]))
        cases = {
            "version": blob[:4] + struct.pack("<I", 2) + blob[8:],
            "unknown layer code": blob[:12] + bytes([6]) + blob[13:],
            "sizes": blob[:13] + struct.pack("<II", 0, 3) + blob[21:],
            # a huge layer is refused from its record, before any allocation
            "truncated": blob[:13] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + blob[21:],
            "non-finite": blob[:-8] + struct.pack("<d", float("nan")),
        }
        for message, data in cases.items():
            with pytest.raises(InputError, match=message):
                nnet.network_from_bytes(data)


# ---------------------------------------------------------------------------
# The batched convolution as it was before the chunked rewrite: whole-batch
# patch matrices built through a padded copy and kept for backward.  The
# chunked layer must match it bit for bit.


def ref_im2col(x):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c * 9, h * w), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di : di + h, dj : dj + w].reshape(n, c, h * w)
            cols[:, di * 3 + dj :: 9, :] = patch
    return cols


def ref_col2im(dcols, shape):
    n, c, h, w = shape
    dxp = np.zeros((n, c, h + 2, w + 2), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            dxp[:, :, di : di + h, dj : dj + w] += dcols[:, di * 3 + dj :: 9, :].reshape(
                n, c, h, w
            )
    return dxp[:, :, 1 : h + 1, 1 : w + 1]


def ref_conv(x, kernels, bias, g):
    """(out, dx, d_kernels, d_bias) of the unchunked batched convolution."""
    n, c, h, w = x.shape
    k = kernels.shape[0]
    cols = ref_im2col(x)
    wmat = kernels.reshape(k, c * 9)
    out = (np.matmul(wmat, cols) + bias[:, None]).reshape(n, k, h, w)
    gmat = g.reshape(n, k, h * w)
    d_kernels = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape)
    d_bias = g.sum(axis=(0, 2, 3))
    dx = ref_col2im(np.matmul(wmat.T, gmat), x.shape)
    return out, dx, d_kernels, d_bias


class TestChunkedConv:
    @pytest.mark.parametrize("n,c,k,h,w", [
        (3, 4, 3, 64, 64),    # one image per chunk: C*9*H*W*8 > 1 MiB
        (8, 1, 2, 64, 64),    # chunks of 3, the last one partial
        (20, 2, 3, 32, 32),   # chunks of 7, the last one partial
        (1, 3, 2, 16, 16),
        (5, 1, 1, 8, 8),
        (4, 2, 3, 5, 7),      # non-square odd sides
        (2, 2, 2, 1, 3),
        (32, 8, 8, 64, 64),   # the benchmark's widest layer
    ])
    def test_bit_identical_to_unchunked(self, n, c, k, h, w):
        rng = np.random.Generator(np.random.PCG64(n * 1000 + c * 100 + h))
        x = rng.normal(size=(n, c, h, w))
        x[x < 0.2] = 0.0
        x.flat[::7] = -0.0
        g = rng.normal(size=(n, k, h, w))
        conv = Conv(c, k, rng)
        conv.bias[...] = rng.normal(size=k)
        expected = ref_conv(x, conv.kernels, conv.bias, g)
        got = (conv.forward(x), conv.backward(g), conv.d_kernels, conv.d_bias)
        for name, a, b in zip(("out", "dx", "d_kernels", "d_bias"), got, expected):
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_memory_bounded_by_chunks(self):
        # the unchunked layer kept a 75 MB patch matrix per call here
        rng = np.random.Generator(np.random.PCG64(32))
        x = rng.normal(size=(32, 8, 64, 64))
        g = rng.normal(size=x.shape)
        conv = Conv(8, 8, rng)
        tracemalloc.start()
        try:
            conv.forward(x)
            conv.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes
