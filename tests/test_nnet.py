import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from causalpairs import nnet
from causalpairs.errors import ConfigurationError, ShapeError, TrainingError
from causalpairs.nnet import (
    Conv,
    Dense,
    Flatten,
    MaxPool,
    Network,
    Relu,
    gradient_check,
    sgd_step,
    softmax_batch,
)


def conv_forward(x, kernels, bias):
    """Forward pass of a Conv layer holding kernels and bias on the batch x."""
    conv = Network([Conv(kernels.shape[1], kernels.shape[0])]).layers[0]
    conv.kernels[...] = kernels
    conv.bias[...] = bias
    return conv.forward(x)


def dense_forward(x, weights, bias):
    dense = Network([Dense(weights.shape[1], weights.shape[0])]).layers[0]
    dense.weights[...] = weights
    dense.bias[...] = bias
    return dense.forward(x)


def softmax_loss(logits, true_class):
    """Network.loss_and_backward on one row: cross-entropy of softmax(logits)."""
    return Network([]).loss_and_backward(
        np.asarray(logits, dtype=np.float64)[None], np.array([true_class])
    )[0]


class TestConvForward:
    def test_identity_kernel(self):
        x = np.array([[[[5.0]]]])
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv_forward(x, k, np.zeros(1))
        assert out == pytest.approx(np.array([[[[5.0]]]]))

    def test_all_ones_zero_padding(self):
        # 3x3 ones vs 3x3 ones kernel: center sums the full window (9),
        # edge centers see 6 in-range cells, corners see 4
        x = np.ones((1, 1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = conv_forward(x, k, np.zeros(1))[0, 0]
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        assert out == pytest.approx(expected)

    def test_same_padding_shape(self):
        x = np.zeros((3, 2, 5, 7))
        k = np.zeros((4, 2, 3, 3))
        assert conv_forward(x, k, np.zeros(4)).shape == (3, 4, 5, 7)

    def test_bias_added(self):
        x = np.zeros((1, 1, 2, 2))
        k = np.zeros((3, 1, 3, 3))
        out = conv_forward(x, k, np.array([1.0, -2.0, 0.5]))[0]
        assert out[0] == pytest.approx(np.ones((2, 2)))
        assert out[1] == pytest.approx(-2 * np.ones((2, 2)))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError) as err:
            conv_forward(np.zeros((1, 2, 4, 4)), np.zeros((3, 1, 3, 3)), np.zeros(3))
        assert "1 channels" in str(err.value) and "(1, 2, 4, 4)" in str(err.value)


class TestMaxPool:
    def test_single_window(self):
        out = MaxPool().forward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out == pytest.approx(np.array([[[[4.0]]]]))

    def test_floor_semantics(self):
        assert MaxPool().forward(np.zeros((2, 3, 5, 5))).shape == (2, 3, 2, 2)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            MaxPool().forward(np.zeros((1, 1, 1, 4)))

    def test_tie_gradient_goes_to_first_scanned(self):
        pool = MaxPool()
        x = np.full((1, 1, 2, 2), 7.0)
        dx = pool.backward(np.ones((1, 1, 1, 1)), pool.record(x, pool.forward(x)))
        assert dx[0, 0].tolist() == [[1.0, 0.0], [0.0, 0.0]]


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
        assert dense_forward(x, np.eye(3), np.zeros(3)) == pytest.approx(x)

    def test_zero_weights_gives_bias(self):
        b = np.array([4.0, 5.0])
        assert dense_forward(np.ones((1, 3)), np.zeros((2, 3)), b) == pytest.approx(b[None])

    def test_hand_value(self):
        out = dense_forward(np.array([[1.0, 1.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]),
                            np.zeros(2))
        assert out == pytest.approx(np.array([[3.0, 7.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dense_forward(np.ones((1, 3)), np.ones((2, 4)), np.zeros(2))


class TestSoftmaxAndLoss:
    def test_uniform(self):
        assert softmax_batch(np.zeros((2, 3))) == pytest.approx(np.full((2, 3), 1 / 3))

    def test_stability(self):
        out = softmax_batch(np.array([[1000.0, 0.0, 0.0], [0.0, -1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert out[:, [0, 2]].tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_shift_invariance(self):
        z = np.array([[0.3, -1.2, 2.5], [4.0, 0.0, -4.0]])
        assert softmax_batch(z + 17.0) == pytest.approx(softmax_batch(z), abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_batch(rng.normal(size=(20, 5)) * 10)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_cross_entropy_values(self):
        assert softmax_loss([1000.0, 0.0, 0.0], 0) == pytest.approx(0.0, abs=1e-9)
        assert softmax_loss([0.0, 0.0, 0.0], 2) == pytest.approx(np.log(3))

    def test_cross_entropy_monotone(self):
        losses = [softmax_loss(np.log([p, 1 - p]), 0) for p in (0.2, 0.5, 0.9)]
        assert losses[0] > losses[1] > losses[2]

    def test_cross_entropy_is_batch_mean(self):
        logits = np.array([[0.3, -1.2, 2.5], [4.0, 0.0, -4.0]])
        both, probs = Network([]).loss_and_backward(logits, np.array([2, 1]))
        assert probs.tobytes() == softmax_batch(logits).tobytes()
        assert both == pytest.approx((softmax_loss(logits[0], 2) + softmax_loss(logits[1], 1)) / 2)

    def test_network_output_is_the_softmax_of_its_last_layer(self):
        net = tiny_dense_net(seed=5)
        x = np.random.default_rng(5).normal(size=(4, 4))
        assert net.forward(x).tobytes() == softmax_batch(net.layers[0].forward(x)).tobytes()
        assert Network([]).forward(x).tobytes() == softmax_batch(x).tobytes()

    def test_cross_entropy_bad_index(self):
        for bad in (2, -1):
            with pytest.raises(IndexError):
                softmax_loss([0.0, 0.0], bad)


def tiny_dense_net(n_in=4, n_out=3, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Network([Dense(n_in, n_out)], rng=rng)


class TestBackward:
    def test_dense_softmax_closed_form(self):
        # d(loss)/d(weights) = (p - onehot) outer input
        net = tiny_dense_net(seed=3)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        net.loss_and_backward(x[None], np.array([1]))
        dense = net.layers[0]
        p = net.forward(x[None])[0]
        delta = p.copy()
        delta[1] -= 1.0
        assert dense.d_weights == pytest.approx(np.outer(delta, x))
        assert dense.d_bias == pytest.approx(delta)

    def test_zero_input_conv_gradients(self):
        rng = np.random.Generator(np.random.PCG64(1))
        net = Network([Conv(1, 2), Flatten(), Dense(2 * 4 * 4, 3)], rng=rng)
        net.loss_and_backward(np.zeros((1, 1, 4, 4)), np.array([0]))
        conv = net.layers[0]
        assert conv.d_kernels == pytest.approx(np.zeros((2, 1, 3, 3)))
        assert np.abs(conv.d_bias).max() > 0

    def test_linear_dense_gradient_at_roundoff(self):
        net = tiny_dense_net(seed=3)
        x = np.array([1.0, 2.0, -0.5, 0.3])
        err = gradient_check(net, x, true_class=0, epsilon=1e-5)
        assert err <= 1e-9

    def test_full_conv_net_gradient_check(self):
        rng = np.random.Generator(np.random.PCG64(12))
        net = Network([
            Conv(1, 3), Relu(),
            Conv(3, 3), Relu(),
            MaxPool(), Flatten(),
            Dense(3 * 4 * 4, 3),
        ], rng=rng)
        x = rng.normal(size=(1, 8, 8))
        err = gradient_check(net, x, true_class=2, epsilon=1e-5, max_params=300, seed=4)
        assert err <= 1e-4

    def test_epsilon_precondition(self):
        net = tiny_dense_net()
        with pytest.raises(ConfigurationError):
            gradient_check(net, np.zeros(4), 0, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            gradient_check(net, np.zeros(4), 0, epsilon=1e-3)


def one_dense(params, grads):
    """Network([Dense(1, 1)]) with params (weight, bias) and grads set."""
    net = Network([Dense(1, 1)])
    net.params[...] = params
    net.grads[...] = grads
    return net


class TestSgd:
    def test_plain_step(self):
        net = one_dense([1.0, 2.0], [1.0, 0.0])
        sgd_step(net, np.zeros(2), learning_rate=0.1, momentum=0.0)
        assert net.params == pytest.approx([0.9, 2.0])
        assert net.layers[0].weights[0, 0] == pytest.approx(0.9)

    def test_zero_gradient_no_change(self):
        net = one_dense([2.0, 3.0], [0.0, 0.0])
        sgd_step(net, np.zeros(2), 0.5, 0.0)
        assert net.params == pytest.approx([2.0, 3.0])

    def test_momentum_recursion(self):
        # v1 = -lr*g1 = -0.2; p1 = 1 - 0.2 = 0.8
        # v2 = 0.9*(-0.2) - 0.1*1 = -0.28; p2 = 0.8 - 0.28 = 0.52
        net = one_dense([1.0, 0.0], [2.0, 0.0])
        vel = np.zeros(2)
        sgd_step(net, vel, 0.1, 0.9)
        assert net.params[0] == pytest.approx(0.8)
        net.grads[0] = 1.0
        sgd_step(net, vel, 0.1, 0.9)
        assert net.params[0] == pytest.approx(0.52)

    def test_nonfinite_gradient_names_parameter(self):
        rng = np.random.Generator(np.random.PCG64(3))
        net = Network([Conv(1, 2), MaxPool(), Flatten(), Dense(2 * 2 * 2, 3)], rng=rng)
        before = net.params.copy()
        start = net.layers[0].kernels.size + net.layers[0].bias.size
        # the first and the last element of layer3.dense.weights
        for at, bad in itertools.product(
            (start, start + net.layers[3].weights.size - 1), (np.nan, np.inf, -np.inf)
        ):
            net.grads[...] = 0.0
            net.grads[at] = bad
            with pytest.raises(TrainingError) as err:
                sgd_step(net, np.zeros_like(net.params), 0.1, 0.0)
            assert "non-finite gradient in layer3.dense.weights" in str(err.value)
            # nothing is updated
            assert net.params.tobytes() == before.tobytes()

    def test_step_allocates_no_parameter_sized_temporary(self):
        net = Network([Dense(1000, 1000)], np.float32)
        net.grads[...] = 0.5
        velocity = np.zeros_like(net.params)
        tracemalloc.start()
        try:
            sgd_step(net, velocity, 0.1, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # lr * grads formed in a fresh array would take grads.nbytes, and a
        # finiteness bool per parameter a quarter of that
        assert peak < net.grads.size // 8
        assert (net.grads == np.float32(0.1) * np.float32(0.5)).all()

    def test_parameter_validation(self):
        net = one_dense([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            sgd_step(net, np.zeros(2), 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            sgd_step(net, np.zeros(2), 0.1, 1.0)


def param_grads(layer, g, x):
    """Fresh (weight, bias) gradients of a Conv or Dense layer, formed as the
    layers formed them before they wrote into the network's grads vector."""
    if layer.kind == "dense":
        return g.T @ x, g.sum(axis=0)
    n, _, h, w = x.shape
    gmat = g.reshape(n, layer.out_channels, h * w)
    parts = [
        part for sl, cols in nnet._patch_chunks(x)
        for part in np.matmul(gmat[sl], cols.transpose(0, 2, 1))
    ]
    d_kernels = parts[0].copy()
    for part in parts[1:]:
        d_kernels += part
    return d_kernels.reshape(layer.kernels.shape), g.sum(axis=(0, 2, 3))


def float32_net(seed):
    """A small float32 conv+dense network with seeded weights."""
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = [
        Conv(1, 3), Relu(), MaxPool(), Flatten(),
        Dense(3 * 3 * 3, 4), Relu(), Dense(4, 3),
    ]
    return Network(layers, np.float32, rng)


class TestFlatParameters:
    """One params and one grads vector per network, every layer array a view of them."""

    def test_three_steps_match_the_per_array_update(self):
        rng = np.random.Generator(np.random.PCG64(17))
        xs = rng.normal(size=(5, 1, 6, 6)).astype(np.float32)
        cls = np.array([0, 1, 2, 0, 1])
        lr, momentum = 0.1, 0.9
        net = float32_net(9)
        # the reference: fresh per-layer gradient arrays (param_grads; what
        # its layers' backward writes into their own network goes unread)
        # and one velocity per array
        layers = float32_net(9).layers
        owned = [(layer, name) for layer in layers for name in getattr(layer, "param_shapes", {})]
        vels = [np.zeros_like(getattr(layer, name)) for layer, name in owned]
        velocity = np.zeros_like(net.params)
        for step in range(3):
            net.loss_and_backward(xs, cls)
            # the step leaves lr * grads in grads
            got_grads = net.grads.tobytes()
            sgd_step(net, velocity, lr, momentum)
            inputs = [xs]
            for layer in layers:
                inputs.append(layer.forward(inputs[-1]))
            g = softmax_batch(inputs.pop())
            g[np.arange(5), cls] -= 1.0
            g = (g / 5).astype(np.float32)
            grads = {}
            for i in reversed(range(len(layers))):
                x = inputs.pop()
                if getattr(layers[i], "param_shapes", {}):
                    grads[layers[i]] = param_grads(layers[i], g, x)
                if i:
                    g = backward_from_input(layers[i], g, x)
            grads = [grads[layer][k] for layer in layers if layer in grads for k in (0, 1)]
            for (layer, name), grad, vel in zip(owned, grads, vels):
                vel *= momentum
                vel -= lr * grad
                getattr(layer, name)[...] += vel
            flat = [np.concatenate([a.ravel() for a in arrays]).tobytes()
                    for arrays in ([getattr(lay, n) for lay, n in owned], grads, vels,
                                   [lr * grad for grad in grads])]
            got = [net.params.tobytes(), got_grads, velocity.tobytes(), net.grads.tobytes()]
            assert got == flat, step
            if step == 1:
                self.assert_views_in_declaration_order(net)

    @staticmethod
    def assert_views_in_declaration_order(net):
        start = 0
        for layer in net.layers:
            for name in getattr(layer, "param_shapes", {}):
                for arr, vec in ((getattr(layer, name), net.params),
                                 (getattr(layer, f"d_{name}"), net.grads)):
                    part = vec[start : start + arr.size]
                    assert np.shares_memory(arr, part), name
                    assert arr.ctypes.data == part.ctypes.data and arr.flags.c_contiguous
                start += getattr(layer, name).size
        assert start == net.params.size == net.grads.size

    def test_layout_names_every_parameter(self):
        net = float32_net(2)
        assert [name for name, _ in net.layout] == [
            "layer0.conv.kernels", "layer0.conv.bias", "layer4.dense.weights",
            "layer4.dense.bias", "layer6.dense.weights", "layer6.dense.bias",
        ]
        assert net.layout[-1][1] == net.params.size == 3 * 9 + 3 + 27 * 4 + 4 + 4 * 3 + 3
        assert nnet.n_params(net.layers) == net.params.size
        assert net.params.dtype == net.grads.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_are_glorot_draws_cast_to_the_dtype(self, dtype):
        layers = [Conv(1, 3), Relu(), Conv(3, 4), MaxPool(), Flatten(), Dense(16, 5), Dense(5, 3)]
        net = Network(layers, dtype, np.random.Generator(np.random.PCG64(6)))
        # the reference draws as the layers drew their own weights before a
        # Network did: layer by layer, float64 within sqrt(6 / (fan_in +
        # fan_out)), then cast; biases zero
        rng = np.random.Generator(np.random.PCG64(6))
        want = []
        for layer in layers:
            if layer.kind == "conv":
                n_in, n_out = layer.in_channels, layer.out_channels
                shape, fans = (n_out, n_in, 3, 3), n_in * 9 + n_out * 9
            elif layer.kind == "dense":
                n_in, n_out = layer.in_features, layer.units
                shape, fans = (n_out, n_in), n_in + n_out
            else:
                continue
            limit = np.sqrt(6.0 / fans)
            want += [rng.uniform(-limit, limit, size=shape).astype(dtype).ravel(),
                     np.zeros(n_out, dtype=dtype)]
        assert net.params.dtype == dtype
        assert net.params.tobytes() == np.concatenate(want).tobytes()

    def test_building_peaks_at_params_grads_and_one_draw(self):
        # four equal float32 layers: a float32 copy of every layer beside
        # params and grads, as layers that drew and held their own weights
        # needed, would peak at three times params, above this bound
        layers = [Dense(1000, 1000) for _ in range(4)]
        tracemalloc.start()
        try:
            net = Network(layers, np.float32, np.random.Generator(np.random.PCG64(0)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest_draw = 1000 * 1000 * np.dtype(np.float64).itemsize
        assert peak < net.params.nbytes + net.grads.nbytes + largest_draw

    def test_building_draws_each_weight_in_row_blocks(self):
        # one dominant float32 weight of 8 MB: drawn whole in float64, it
        # would peak at params plus a 16 MB draw, above this bound
        layers = [Dense(2000, 1000), Dense(1000, 3)]
        tracemalloc.start()
        try:
            net = Network(layers, np.float32, np.random.Generator(np.random.PCG64(0)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slack = 64 * 1024  # array headers
        assert peak < net.params.nbytes + net.grads.nbytes + nnet._CHUNK_BYTES + slack

    def test_given_params_become_the_vector_uncopied(self):
        params = np.arange(8, dtype=np.float32)
        net = Network([Dense(3, 2)], params=params)
        assert net.params is params and net.grads.dtype == np.float32
        assert net.layers[0].weights.tolist() == [[0, 1, 2], [3, 4, 5]]
        with pytest.raises(ShapeError, match="params of shape"):
            Network([Dense(3, 2)], params=params[:7])

    def test_stack_without_parameters_has_empty_vectors(self):
        for net in (Network([]), Network([Flatten(), Relu()])):
            assert net.params.shape == net.grads.shape == (0,) and net.layout == []
            net.loss_and_backward(np.array([[0.5, -1.0, 2.0]]), np.array([1]))
            sgd_step(net, np.zeros(0), 0.1, 0.9)


class TestLossDescent:
    def test_loss_non_increasing_50_steps(self):
        rng = np.random.Generator(np.random.PCG64(21))
        net = Network([
            Conv(1, 2), Relu(), MaxPool(), Flatten(),
            Dense(2 * 3 * 3, 3),
        ], rng=rng)
        xs = rng.normal(size=(6, 1, 6, 6))
        cls = np.array([0, 1, 2, 0, 1, 2])
        velocity = np.zeros_like(net.params)
        losses = []
        for _ in range(50):
            losses.append(net.loss_and_backward(xs, cls)[0])
            sgd_step(net, velocity, 1e-4, 0.0)
        losses.append(net.loss_and_backward(xs, cls)[0])
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).all()


class TestSerialization:
    """The flat parameter vector that model files store and training restores."""

    def test_round_trip_bytes_and_behavior(self):
        def stack(rng):
            return Network([
                Conv(1, 2), Relu(), MaxPool(), Flatten(), Dense(2 * 2 * 2, 3),
            ], rng=rng)

        rng = np.random.Generator(np.random.PCG64(8))
        net, again = stack(rng), stack(None)
        again.params[...] = net.params
        assert again.params.tobytes() == net.params.tobytes()
        x = rng.normal(size=(2, 1, 4, 4))
        assert again.forward(x) == pytest.approx(net.forward(x), abs=0)

    def test_format_bytes(self):
        net = Network([Dense(2, 3)])
        net.layers[0].weights[...] = np.arange(6.0).reshape(3, 2)
        net.layers[0].bias[...] = [-1.0, 0.5, 2.0]
        expected = struct.pack("<6d", *range(6)) + struct.pack("<3d", -1.0, 0.5, 2.0)
        assert net.params.tobytes() == expected
        # the live vector: changing it changes the layer
        net.params[0] = 9.0
        assert net.layers[0].weights[0, 0] == 9.0


# ---------------------------------------------------------------------------
# The batched convolution as it was before the chunked rewrite: whole-batch
# patch matrices built through a padded copy and kept for backward, and the
# input gradient scattered back from W^T g.  The chunked layer must match its
# output and parameter gradients bit for bit.  The layer forms the input
# gradient as a convolution of g instead, which adds each pixel's K*9 terms
# in another order, so that one is held to the rounding bound of such a sum
# (see the float32 section below).


def ref_im2col(x):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c * 9, h * w), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di : di + h, dj : dj + w].reshape(n, c, h * w)
            cols[:, di * 3 + dj :: 9, :] = patch
    return cols


def ref_col2im(dcols, shape):
    n, c, h, w = shape
    dxp = np.zeros((n, c, h + 2, w + 2), dtype=dcols.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, :, di : di + h, dj : dj + w] += dcols[:, di * 3 + dj :: 9, :].reshape(
                n, c, h, w
            )
    return dxp[:, :, 1 : h + 1, 1 : w + 1]


def bordered(rng, shape, dtype):
    """Normal draws with NaN, +-inf and -0.0 on every border row and column."""
    x = rng.normal(size=shape).astype(dtype)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=dtype)
    for k, edge in enumerate((x[:, :, 0], x[:, :, -1], x[..., 0], x[..., -1])):
        edge[...] = np.resize(np.roll(specials, k), edge.shape)
    return x


class TestIm2col:
    """The framed strided copy against the padded reference, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,c,h,w", [
        (2, 3, 5, 7), (1, 2, 7, 5), (3, 1, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1),
        (1, 3, 2, 2), (2, 1, 1, 6), (1, 2, 6, 1), (2, 2, 2, 9), (1, 1, 8, 2),
        (2, 4, 6, 6),
    ])
    def test_matches_padded_reference(self, n, c, h, w, dtype):
        rng = np.random.Generator(np.random.PCG64(n * 100 + h * 10 + w))
        x = bordered(rng, (n, c, h, w), dtype)
        # spare rows in both buffers, and a patch buffer with nothing zero in it
        out = np.full((n + 1, c * 9, h * w), np.nan, dtype=dtype)
        framed = np.zeros((n + 1, c, h * w + 2 * (w + 1)), dtype=dtype)
        assert nnet._im2col(x, out, framed).tobytes() == ref_im2col(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunks_leave_nothing_stale(self, dtype, monkeypatch):
        # chunks of 3, 3 and 1 images, the first all NaN: a write into the
        # frame, or a wrapped column zeroed only once, shows in a later chunk
        n, c, h, w = 7, 2, 4, 5
        x = bordered(np.random.Generator(np.random.PCG64(5)), (n, c, h, w), dtype)
        x[:3] = np.nan
        image_bytes = c * 9 * h * w * x.itemsize
        monkeypatch.setattr(nnet, "_CHUNK_BYTES", 3 * image_bytes)
        chunks = [(sl, cols.copy()) for sl, cols in nnet._patch_chunks(x)]
        assert [len(cols) for _, cols in chunks] == [3, 3, 1]
        for sl, cols in chunks:
            assert cols.tobytes() == ref_im2col(x[sl]).tobytes(), sl


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
        # the layer forms each image's kernel gradient as (patches . g^T)^T,
        # the reference as g . patches^T: this pins that BLAS adds both in
        # the same order, in the CNN's float32 too
        for dtype in (np.float64, np.float32):
            rng = np.random.Generator(np.random.PCG64(n * 1000 + c * 100 + h))
            x = rng.normal(size=(n, c, h, w)).astype(dtype)
            x[x < 0.2] = 0.0
            x.flat[::7] = -0.0
            g = rng.normal(size=(n, k, h, w)).astype(dtype)
            conv = Network([Conv(c, k)], dtype, rng).layers[0]
            conv.bias[...] = rng.normal(size=k)
            expected = ref_conv(x, conv.kernels, conv.bias, g)
            got = (conv.forward(x), conv.backward(g, x), conv.d_kernels, conv.d_bias)
            for name, a, b in zip(("out", "dx", "d_kernels", "d_bias"), got, expected):
                assert a.shape == b.shape, (name, dtype)
                if name != "dx":
                    assert a.tobytes() == b.tobytes(), (name, dtype)
            abs_args = (np.abs(x), np.abs(conv.kernels), np.abs(conv.bias), np.abs(g))
            magnitude = ref_conv(*abs_args)[1]
            eps = np.finfo(dtype).eps
            assert (np.abs(got[1] - expected[1]) <= k * 9 * eps * magnitude).all(), dtype

    def test_memory_bounded_by_chunks(self):
        # the unchunked layer kept a 75 MB patch matrix per call here
        for dtype in (np.float64, np.float32):
            rng = np.random.Generator(np.random.PCG64(32))
            x = rng.normal(size=(32, 8, 64, 64)).astype(dtype)
            g = rng.normal(size=x.shape).astype(dtype)
            conv = Network([Conv(8, 8)], dtype, rng).layers[0]
            tracemalloc.start()
            try:
                conv.forward(x)
                conv.backward(g, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # dx and one chunk buffer; float64 buffers on float32 input take 3.2x
            assert peak < 2 * x.nbytes, dtype


# ---------------------------------------------------------------------------
# Max pooling and ReLU as they were before the strided-view rewrite: a
# transposed [N, C, H/2, W/2, 4] window copy with argmax and an int64 winner
# per output, and ReLU through np.where.  The layers must match them bit for
# bit on everything a pool can receive, which is ReLU output.


def ref_windows(x):
    """[N, C, H//2, W//2, 4]: each 2x2 window's elements in row-major order."""
    n, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    return (
        x[:, :, : 2 * ho, : 2 * wo]
        .reshape(n, c, ho, 2, wo, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, 4)
    )


def ref_maxpool(x):
    windows = ref_windows(x)
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, arg


def ref_maxpool_backward(g, arg, in_shape):
    n, c, h, w = in_shape
    ho, wo = h // 2, w // 2
    dwin = np.zeros((n, c, ho, wo, 4), dtype=np.float64)
    np.put_along_axis(dwin, arg[..., None], g[..., None], axis=-1)
    dx = np.zeros(in_shape, dtype=np.float64)
    dx[:, :, : 2 * ho, : 2 * wo] = (
        dwin.reshape(n, c, ho, wo, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, 2 * ho, 2 * wo)
    )
    return dx


def ref_relu(x):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def first_equal_winners(x):
    """Each window's first element, in row-major order, equal to the pool's
    max, or 3, the last, when none is (a NaN max)."""
    equal = ref_windows(x) == MaxPool().forward(x)[..., None]
    return np.where(equal.any(axis=-1), equal.argmax(axis=-1), 3)


def backward_from_input(layer, g, x):
    """layer.backward given the layer's input x; a pool gets the record of x."""
    if isinstance(layer, MaxPool):
        return layer.backward(g, layer.record(x, layer.forward(x)))
    return layer.backward(g, x)


SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, 1.0])


def special_input(rng, shape, integer_valued=False):
    """Normal draws, or small integers (many ties), seeded with special values."""
    if integer_valued:
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
    else:
        x = rng.normal(size=shape)
    flat = x.reshape(-1)
    at = rng.choice(flat.size, size=min(flat.size, 3 * SPECIALS.size), replace=False)
    flat[at] = np.resize(SPECIALS, at.size)
    return x


LAYER_SHAPES = [
    (2, 3, 64, 64),
    (4, 8, 32, 32),
    (3, 2, 5, 7),     # odd sides: the last row and column belong to no window
    (1, 1, 2, 2),
    (2, 1, 3, 3),
    (1, 2, 9, 4),
    (1, 1, 1, 17),    # below the SIMD width: fmax's scalar tail
]


class TestLeanPoolAndRelu:
    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    @pytest.mark.parametrize("integer_valued", [False, True])
    def test_relu_bit_identical_to_where(self, shape, integer_valued):
        rng = np.random.Generator(np.random.PCG64(sum(shape) + integer_valued))
        x = special_input(rng, shape, integer_valued)
        g = special_input(rng, shape)
        want, mask = ref_relu(x)
        relu = Relu()
        got = relu.forward(x.copy())
        assert got.tobytes() == want.tobytes()
        # backward reads the kept output; it zeroes the gradient in place
        assert relu.backward(g.copy(), got).tobytes() == np.where(mask, g, 0.0).tobytes()

    @pytest.mark.parametrize("shape", [s for s in LAYER_SHAPES if min(s[2:]) >= 2])
    @pytest.mark.parametrize("integer_valued", [False, True])
    def test_pool_bit_identical_on_relu_output(self, shape, integer_valued):
        rng = np.random.Generator(np.random.PCG64(sum(shape) * 3 + integer_valued))
        x, _ = ref_relu(special_input(rng, shape, integer_valued))
        want, arg = ref_maxpool(x)
        g = special_input(rng, want.shape)
        pool = MaxPool()
        got = pool.forward(x)
        assert got.tobytes() == want.tobytes()
        dx = pool.backward(g, pool.record(x, got))
        assert dx.tobytes() == ref_maxpool_backward(g, arg, x.shape).tobytes()

    def test_pool_tie_order_is_row_major(self):
        # every subset of tied maxima in one window: the first one wins
        pool = MaxPool()
        for bits in range(1, 16):
            x = np.array([1.0 if bits >> k & 1 else 0.0 for k in range(4)]).reshape(1, 1, 2, 2)
            dx = pool.backward(np.ones((1, 1, 1, 1)), pool.record(x, pool.forward(x)))
            first = (bits & -bits).bit_length() - 1
            assert dx.reshape(-1).tolist() == [1.0 if k == first else 0.0 for k in range(4)]

    def test_layers_retain_nothing(self):
        rng = np.random.Generator(np.random.PCG64(40))
        x = rng.normal(size=(16, 8, 129, 127))
        slack = 4096  # array headers
        relu = Relu()
        tracemalloc.start()
        try:
            relu.forward(x)
            _, relu_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # in place, and no mask, not even transiently
        assert relu_peak <= slack
        pool = MaxPool()
        tracemalloc.start()
        try:
            out = pool.forward(x)
            pool_current, pool_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool_current - out.nbytes <= slack
        # no uint8 winner per output, not even transiently; the rest of the
        # peak is numpy's fixed-size buffers for the strided window views
        assert pool_peak - out.nbytes < out.size

    def test_backward_masks_span_one_chunk(self):
        # 32 images of 8 x 64 x 64 float32: 128 KiB each, 4 MiB together, so
        # a chunk's slice of the input is 8 images and 1 MiB
        rng = np.random.Generator(np.random.PCG64(45))
        x = np.maximum(rng.normal(size=(32, 8, 64, 64)), 0.0).astype(np.float32)
        chunk = nnet._CHUNK_BYTES
        slack = 128 * 1024  # array headers and numpy's iteration buffers
        pool = MaxPool()
        out = pool.forward(x)

        def traced_peak(call):
            """(what call returns, the tracemalloc peak while it ran)."""
            tracemalloc.start()
            try:
                got = call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return got, peak

        g = rng.normal(size=x.shape).astype(np.float32)
        dx, relu_peak = traced_peak(lambda: Relu().backward(g, x))
        assert dx is g
        record, record_peak = traced_peak(lambda: pool.record(x, out, after_relu=True))
        g = rng.normal(size=out.shape).astype(np.float32)
        dx, pool_peak = traced_peak(lambda: pool.backward(g, record))
        # ReLU works in g: one chunk's integer mask and its bool, 1.25 MiB;
        # over the whole batch they would take 5 MiB
        assert relu_peak < chunk + chunk // 4 + slack
        # the record: beside its uint8 per window, one chunk's bool per
        # window, 64 KiB; over the whole batch it would take 256 KiB
        assert record_peak - record[0].nbytes < chunk // 16 + slack
        # pooling: beside dx, one chunk's integer mask and bool, 320 KiB;
        # over the whole batch they would take 1.25 MiB
        assert pool_peak - dx.nbytes < chunk // 4 + chunk // 16 + slack

    @pytest.mark.parametrize("first", ["relu", "flatten", "conv"])
    def test_network_never_modifies_its_input(self, first):
        rng = np.random.Generator(np.random.PCG64(41))
        head = {
            "relu": [Relu(), Flatten()],
            "flatten": [Flatten(), Relu()],
            "conv": [Conv(1, 2), Relu(), MaxPool(), Flatten()],
        }[first]
        width = 2 * 2 * 2 if first == "conv" else 4 * 4
        net = Network([*head, Dense(width, 3)], rng=rng)
        x = rng.normal(size=(3, 1, 4, 4))
        x.flat[::3] = -0.0
        before = x.tobytes()
        net.forward(x)
        net.loss_and_backward(x, np.array([0, 1, 2]))
        assert x.tobytes() == before

    def test_skipped_input_gradient_leaves_parameter_gradients_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(42))
        net = Network([
            Conv(1, 3), Relu(), Conv(3, 3), Relu(), MaxPool(),
            Flatten(), Dense(3 * 4 * 4, 3),
        ], rng=rng)
        x = rng.normal(size=(5, 1, 8, 8))
        cls = np.array([0, 1, 2, 0, 1])
        net.loss_and_backward(x, cls)
        got = net.grads.tobytes()
        # the full sweep, input gradient included
        inputs = [x]
        for layer in net.layers:
            inputs.append(layer.forward(inputs[-1]))
        g = softmax_batch(inputs.pop())
        g[np.arange(5), cls] -= 1.0
        g /= 5
        for layer in reversed(net.layers):
            g = backward_from_input(layer, g, inputs.pop())
        assert g.shape == x.shape
        assert got == net.grads.tobytes()
        assert net.layers[0].backward(np.ones((5, 3, 8, 8)), x, input_grad=False) is None

    def test_layers_hold_only_parameters_and_gradients(self):
        rng = np.random.Generator(np.random.PCG64(44))
        net = Network([
            Conv(1, 3), Relu(), Conv(3, 3), Relu(), MaxPool(),
            Flatten(), Dense(3 * 4 * 4, 8), Relu(), Dense(8, 3),
        ], rng=rng)
        assert {layer.kind for layer in net.layers} == {"conv", "relu", "pool", "flatten", "dense"}
        x = rng.normal(size=(5, 1, 8, 8))

        def held_arrays():
            # every array a layer holds is a view of the parameter or gradient vector
            return [
                (i, name)
                for i, layer in enumerate(net.layers)
                for name, value in vars(layer).items()
                if isinstance(value, np.ndarray)
                and not any(np.shares_memory(value, v) for v in (net.params, net.grads))
            ]

        net.forward(x)
        assert held_arrays() == []
        net.loss_and_backward(x, np.array([0, 1, 2, 0, 1]))
        assert held_arrays() == []
        # nor any other state, such as an input shape
        for layer in net.layers:
            assert set(vars(layer)) <= {
                "in_channels", "out_channels", "in_features", "units", "param_shapes",
                "kernels", "bias", "d_kernels", "d_bias", "weights", "d_weights",
            }


POOLED_SHAPES = [s for s in LAYER_SHAPES if min(s[2:]) >= 2]


def sweep_keeping_every_input(net, x, classes):
    """net.grads as bytes after a sweep that keeps every layer's input and
    runs every layer's backward, through the references for pooling and ReLU."""
    inputs = [x]
    for layer in net.layers:
        # ReLU works in place: its input is kept apart
        inputs.append(layer.forward(inputs[-1].copy() if isinstance(layer, Relu) else inputs[-1]))
    n = len(x)
    g = softmax_batch(inputs.pop())
    g[np.arange(n), classes] -= 1.0
    g = (g / n).astype(x.dtype)
    for layer in reversed(net.layers):
        kept = inputs.pop()
        if isinstance(layer, MaxPool):
            g = ref_maxpool_backward(g, first_equal_winners(kept), kept.shape).astype(g.dtype)
        elif isinstance(layer, Relu):
            g = np.where(ref_relu(kept)[1], g, 0.0)
        else:
            g = layer.backward(g, kept)
    return net.grads.tobytes()


class TestPoolRecord:
    """A training step keeps a pool's record of its winners, not its input; after
    a ReLU the record also does that ReLU's backward."""

    @pytest.mark.parametrize("shape", POOLED_SHAPES)
    @pytest.mark.parametrize("integer_valued", [False, True])
    @pytest.mark.parametrize("after_relu", [False, True])
    def test_backward_matches_the_reference(self, shape, integer_valued, after_relu):
        rng = np.random.Generator(np.random.PCG64(sum(shape) * 7 + integer_valued))
        # NaN, +-inf, -0.0 and subnormals, fed to the pool or to the ReLU before it
        x = special_input(rng, shape, integer_valued)
        a = Relu().forward(x.copy()) if after_relu else x
        pool = MaxPool()
        out = pool.forward(a)
        g = special_input(rng, out.shape)
        want = ref_maxpool_backward(g, first_equal_winners(a), shape)
        if after_relu:
            want = np.where(ref_relu(x)[1], want, 0.0)
        winners, in_shape = pool.record(a, out, after_relu)
        assert winners.dtype == np.uint8 and winners.shape == out.shape and in_shape == shape
        assert pool.backward(g, (winners, in_shape)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", POOLED_SHAPES)
    @pytest.mark.parametrize("integer_valued", [False, True])
    def test_step_matches_a_sweep_keeping_every_input(self, shape, integer_valued):
        n, c, h, w = shape
        rng = np.random.Generator(np.random.PCG64(sum(shape) * 11 + integer_valued))
        net = Network([
            Conv(c, 3), Relu(), Conv(3, 4), Relu(), MaxPool(),
            Flatten(), Dense(4 * (h // 2) * (w // 2), 3),
        ], np.float32, rng)
        if integer_valued:
            # integer kernels on integer inputs: ties among positive maxima
            for conv in (net.layers[0], net.layers[2]):
                conv.kernels[...] = rng.integers(-1, 2, size=conv.kernels.shape)
        # channel 0 feeds NaN to the second ReLU: every window all zeros, tied
        net.layers[2].bias[0] = np.nan
        x = special_input(rng, shape, integer_valued).astype(np.float32)
        # a NaN or infinite pixel would make every first-conv kernel gradient NaN
        x[~np.isfinite(x)] = -0.0
        classes = np.arange(n) % 3
        net.loss_and_backward(x, classes)
        got = net.grads.tobytes()
        assert got == sweep_keeping_every_input(net, x, classes)

    @pytest.mark.parametrize("shape", POOLED_SHAPES)
    def test_step_without_relu_matches_a_sweep_keeping_every_input(self, shape):
        n, c, h, w = shape
        rng = np.random.Generator(np.random.PCG64(sum(shape) * 13))
        net = Network([
            Conv(c, 2), MaxPool(), Flatten(), Dense(2 * (h // 2) * (w // 2), 3),
        ], np.float32, rng)
        conv = net.layers[0]
        # integer kernels and inputs tie often; channel 1's maxima are negative
        conv.kernels[...] = rng.integers(-1, 2, size=conv.kernels.shape)
        conv.bias[1] = -20.0
        x = rng.integers(-2, 3, size=shape).astype(np.float32)
        classes = np.arange(n) % 3
        net.loss_and_backward(x, classes)
        got = net.grads.tobytes()
        assert got == sweep_keeping_every_input(net, x, classes)

    def test_step_drops_each_pool_input(self):
        # two conv-ReLU-conv-ReLU-pool stages on 32 float32 images of side 64
        def stage(c, k):
            return [Conv(c, k), Relu(), Conv(k, k), Relu(), MaxPool()]

        rng = np.random.Generator(np.random.PCG64(46))
        net = Network([*stage(1, 8), *stage(8, 16), Flatten(), Dense(16 * 16 * 16, 3)],
                      np.float32, rng)
        x = rng.random((32, 1, 64, 64)).astype(np.float32)
        classes = np.arange(32) % 3
        net.loss_and_backward(x, classes)
        tracemalloc.start()
        try:
            net.loss_and_backward(x, classes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the peak, 3.32 activations of the first stage (4 MiB each), is in
        # its second conv's backward: its input, its output gradient, its
        # input gradient and a chunk of patches.  Holding each pool's input
        # as well peaked at 4.11, in the second stage's backward.
        activation = 32 * 8 * 64 * 64 * 4
        assert peak < 3.5 * activation


class TestChunkedForward:
    """Network.forward runs the layers before the first Dense chunk by chunk."""

    @staticmethod
    def whole_batch(net, x):
        """The softmax of every layer run, one after another, over the whole batch."""
        a = x.copy()
        for layer in net.layers:
            a = layer.forward(a)
        return softmax_batch(a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_whole_batch(self, dtype, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(45))
        net = Network([
            Conv(1, 4), Relu(), Conv(4, 4), Relu(), MaxPool(),
            Flatten(), Dense(4 * 8 * 8, 16), Relu(), Dense(16, 3),
        ], dtype, rng)
        x = rng.random((11, 1, 16, 16)).astype(dtype)
        want = self.whole_batch(net, x).tobytes()
        rows = []  # batch rows of each call of the first conv and the first dense layer
        for layer in (net.layers[0], net.layers[6]):
            monkeypatch.setattr(
                layer, "forward", lambda a, f=layer.forward: rows.append(len(a)) or f(a)
            )
        # a conv output, 4 x 16 x 16, is each image's largest activation
        per_image = 4 * 16 * 16 * x.itemsize
        for budget, chunks in [
            (1, [1] * 11),
            (per_image, [1] * 11),
            (3 * per_image - 1, [2] * 5 + [1]),
            (4 * per_image, [4, 4, 3]),
            (nnet._CHUNK_BYTES, [11]),
        ]:
            monkeypatch.setattr(nnet, "_CHUNK_BYTES", budget)
            rows.clear()
            assert net.forward(x).tobytes() == want, budget
            assert rows[:-1] == chunks and rows[-1] == 11, budget

    def test_empty_batch_still_runs_the_layers(self):
        net = Network([Relu(), Dense(4, 3)])
        assert net.forward(np.zeros((0, 4))).shape == (0, 3)
        # demo 02's stack: Flatten has no image to infer its width from
        for dtype in (np.float32, np.float64):
            net = Network([
                Conv(1, 4), Relu(), Conv(4, 4), Relu(), MaxPool(), Flatten(), Dense(4 * 4 * 4, 3),
            ], dtype)
            probs = net.forward(np.zeros((0, 1, 8, 8), dtype=dtype))
            assert probs.shape == (0, 3) and probs.dtype == np.float64


# ---------------------------------------------------------------------------
# Float32.  A layer fed float32 computes in float32; fed the same values in
# float64 it is the reference.  A sum of L terms rounded in any order, with
# or without fused multiply-adds, is off by at most about L * u * (the sum of
# the terms' magnitudes), u = eps / 2 the unit roundoff; the bound below uses
# L * eps, which also covers the final rounding to float32.  The magnitudes
# come from the float64 layer run on absolute values.  Max pooling and ReLU
# only select and copy, so they match exactly.

F32_EPS = float(np.finfo(np.float32).eps)


def assert_float32_rounding_of(got, want, magnitude, length):
    assert got.dtype == np.float32 and got.shape == want.shape
    assert (np.abs(got - want) <= length * F32_EPS * magnitude).all()


def conv_pass(x, kernels, bias, g):
    """(out, dx, d_kernels, d_bias) of a Conv holding kernels and bias, in their dtype."""
    conv = Network([Conv(kernels.shape[1], kernels.shape[0])], kernels.dtype).layers[0]
    conv.kernels[...], conv.bias[...] = kernels, bias
    return conv.forward(x), conv.backward(g, x), conv.d_kernels, conv.d_bias


# The distinct convolutions of the benchmark's network (side 64, channels
# 8,8,16,16,16,16,32,32,32,32, batch 32) as (n, c, k, h, w), then odd sides.
FLOAT32_CONV_SHAPES = [
    (32, 1, 8, 64, 64), (32, 8, 8, 64, 64), (32, 8, 16, 32, 32), (32, 16, 16, 32, 32),
    (32, 16, 16, 16, 16), (32, 16, 32, 8, 8), (32, 32, 32, 8, 8), (32, 32, 32, 4, 4),
    (4, 2, 3, 5, 7), (2, 2, 2, 1, 3), (3, 3, 2, 9, 11),
]


def float32_conv_case(n, c, k, h, w):
    """Float32 x, kernels, bias and g of a conv of that shape."""
    rng = np.random.Generator(np.random.PCG64(n * 1000 + c * 100 + k * 10 + h))
    kernels = Network([Conv(c, k)], np.float32, rng).layers[0].kernels
    bias = rng.normal(size=k).astype(np.float32)
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    g = rng.normal(size=(n, k, h, w)).astype(np.float32)
    return x, kernels, bias, g


class TestFloat32Layers:
    @pytest.mark.parametrize("n,c,k,h,w", FLOAT32_CONV_SHAPES)
    def test_conv_is_float64_up_to_float32_rounding(self, n, c, k, h, w):
        case = float32_conv_case(n, c, k, h, w)
        got = conv_pass(*case)
        want = conv_pass(*(a.astype(np.float64) for a in case))
        magnitude = conv_pass(*(np.abs(a).astype(np.float64) for a in case))
        lengths = (c * 9 + 1, k * 9, n * h * w, n * h * w)
        for a, b, m, length in zip(got, want, magnitude, lengths):
            assert_float32_rounding_of(a, b, m, length)

    @pytest.mark.parametrize("n,c,k,h,w", FLOAT32_CONV_SHAPES)
    def test_conv_float32_independent_of_chunk_size(self, n, c, k, h, w, monkeypatch):
        case = float32_conv_case(n, c, k, h, w)
        results = []
        # one image per chunk, the default budget, the whole batch in one chunk
        for budget in (1, nnet._CHUNK_BYTES, 1 << 40):
            monkeypatch.setattr(nnet, "_CHUNK_BYTES", budget)
            results.append([a.tobytes() for a in conv_pass(*case)])
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n,units,width", [(32, 1024, 128), (32, 512, 1024), (7, 3, 25)])
    def test_dense_is_float64_up_to_float32_rounding(self, n, units, width):
        rng = np.random.Generator(np.random.PCG64(units + width))
        weights = Network([Dense(width, units)], np.float32, rng).layers[0].weights
        bias = rng.normal(size=units).astype(np.float32)
        x = rng.normal(size=(n, width)).astype(np.float32)
        g = rng.normal(size=(n, units)).astype(np.float32)

        def dense_pass(x, weights, bias, g):
            dense = Network([Dense(width, units)], weights.dtype).layers[0]
            dense.weights[...], dense.bias[...] = weights, bias
            return dense.forward(x), dense.backward(g, x), dense.d_weights, dense.d_bias

        case = (x, weights, bias, g)
        got = dense_pass(*case)
        want = dense_pass(*(a.astype(np.float64) for a in case))
        magnitude = dense_pass(*(np.abs(a).astype(np.float64) for a in case))
        for a, b, m, length in zip(got, want, magnitude, (width + 1, units, n, n)):
            assert_float32_rounding_of(a, b, m, length)

    @pytest.mark.parametrize("shape", LAYER_SHAPES)
    @pytest.mark.parametrize("integer_valued", [False, True])
    def test_relu_and_pool_match_float64_exactly(self, shape, integer_valued):
        rng = np.random.Generator(np.random.PCG64(sum(shape) * 5 + integer_valued))
        x = special_input(rng, shape, integer_valued).astype(np.float32)
        n, c, h, w = shape
        pooled = min(h, w) >= 2
        layers = [Relu(), MaxPool()] if pooled else [Relu()]
        g = special_input(rng, (n, c, h // 2, w // 2) if pooled else shape).astype(np.float32)

        def sweep(dtype):
            """Every output of the forward and then the backward pass."""
            inputs, values = [x.astype(dtype)], []
            for layer in layers:
                inputs.append(layer.forward(inputs[-1]))
                values.append(inputs[-1])
            a = g.astype(dtype)
            for layer in reversed(layers):
                a = backward_from_input(layer, a, inputs.pop(-2))
                # ReLU backward zeroes its gradient in place
                values.append(a.copy())
            return values

        got, want = sweep(np.float32), sweep(np.float64)
        assert all(a.dtype == np.float32 for a in got)
        assert [a.tobytes() for a in got] == [a.astype(np.float32).tobytes() for a in want]

    def test_softmax_is_float64_and_the_backward_sweep_float32(self):
        rng = np.random.Generator(np.random.PCG64(43))
        layers = [Conv(1, 2), Relu(), MaxPool(), Flatten(), Dense(8, 3)]
        net = Network(layers, np.float32, rng)
        x = rng.normal(size=(3, 1, 4, 4)).astype(np.float32)
        assert net.forward(x).dtype == np.float64
        net.loss_and_backward(x, np.array([0, 1, 2]))
        assert net.grads.dtype == np.float32
        assert [layer.d_bias.dtype for layer in (layers[0], layers[4])] == [np.float32] * 2
