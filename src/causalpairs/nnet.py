"""Minimal dense-tensor neural network core.

Layers compute in the dtype of the array they are given: every buffer is
allocated in the input's dtype, so a layer fed float32 runs in float32.

Conv and Dense own no parameters: each declares its parameters' names and
shapes (param_shapes), and the Network it is built into allocates them.  A
Network holds every parameter, in declaration order and raveled, in one
flat vector, params, in the dtype it is given, plus a grads vector of the
same layout; given a params vector instead, it takes that one uncopied.
Every Conv and Dense parameter and gradient attribute is a view of them:
backward writes the gradients in place, and sgd_step updates params with
one velocity vector.  Given a generator, the Network
draws each weight Glorot-uniform in declaration order: a float64 draw
within sqrt(6 / (fan_in + fan_out)), with fan_in = prod(shape[1:]) and
fan_out = shape[0] * prod(shape[2:]), cast into params.  Biases start at
zero.  A Network has no softmax layer: forward and loss_and_backward apply
softmax_batch to the last layer's output, in float64 whatever its dtype,
so probabilities are float64.

Layers operate on batches (NCHW for spatial data).  Convolutions are 3x3,
stride 1, zero same-padding; pooling is 2x2 stride 2 with floor semantics
and first-index tie-break in backward: a window's gradient goes to the
first of its elements, in row-major order, that equals the max.

Layers keep no state: forward(x) stores nothing, and backward(g, x) is given
the layer's input x.  Network.loss_and_backward keeps the step's activations
in a local list and drops each once its layer's backward has run.
Network.forward runs the layers before the first Dense over chunks of the
batch, each of as many images as keep its largest activation within
_FORWARD_CHUNK_BYTES (1 MiB, at least one image), one layer's activation at
a time, then the dense head over the whole batch.  Conv, ReLU and pooling
compute image by image (a convolution makes one GEMM per image), so the
chunks change no bit; a dense GEMM's bits depend on its row count, so the
head keeps the caller's batch.  ReLU works in place, so its input is its
output, and its backward zeroes g in place where x > 0 fails.  Max pooling
takes the max of the four strided window views; its backward
recomputes each window's winner from x.  The backward sweep stops at the
first layer's parameter gradients: no gradient is formed for the network
input.

A convolution walks its batch in chunks whose [n, C*9, H*W] patch matrix
fits _CHUNK_BYTES (1 MiB, counted at the input's itemsize; one image per
chunk when a single image's patches are larger).  Each chunk's patches are
unrolled into one reused buffer and multiplied in one GEMM per image.  No
patch matrix is cached: backward rebuilds each chunk's patches from the
input it is given, so memory stays at the activations plus a few chunk
buffers.  The kernel gradient is accumulated image by image in batch order,
which is the order a sum over the whole batch's per-image products adds in,
so results do not depend on the chunk size.  The input gradient is itself a same convolution, run through the
forward routine: that of the output gradient with the kernels flipped in
space and with their input and output channels swapped.
"""

import math

import numpy as np

from .errors import ConfigurationError, ShapeError, TrainingError
from .seeding import make_rng

EPS_LOG = 1e-12

# Byte budget of one chunk's patch matrix; see the module docstring.
_CHUNK_BYTES = 1 << 20
# Byte budget of the largest activation of one chunk of images in
# Network.forward; see the module docstring.
_FORWARD_CHUNK_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# Batched primitives (internal carriers for the layer classes).


def _shift(k: int, size: int):
    """(patch, image) slices along one axis for tap offset k - 1, clipped to the image."""
    return (
        slice(max(0, 1 - k), min(size, size + 1 - k)),
        slice(max(0, k - 1), min(size, size + k - 1)),
    )


def _im2col(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out[:n] with the [n, C*9, H*W] patch matrix of [n,C,H,W] x.

    Row order is (c, di, dj) with dj fastest, matching kernels reshaped as
    [K, C*9].  Each tap is copied straight from x; only the border strip the
    shifted copy leaves uncovered is zeroed (the same-padding).
    """
    n, c, h, w = x.shape
    cols = out[:n]
    taps = cols.reshape(n, c, 3, 3, h, w)
    for di in range(3):
        patch_rows, image_rows = _shift(di, h)
        for dj in range(3):
            patch_cols, image_cols = _shift(dj, w)
            tap = taps[:, :, di, dj]
            tap[:, :, patch_rows, patch_cols] = x[:, :, image_rows, image_cols]
            if di != 1:
                tap[:, :, 0 if di == 0 else h - 1, :] = 0.0
            if dj != 1:
                tap[:, :, :, 0 if dj == 0 else w - 1] = 0.0
    return cols


def _patch_chunks(x):
    """Yield (batch slice, [m, C*9, H*W] patch matrix) over x's batch, chunk by chunk.

    A chunk holds as many images as fit _CHUNK_BYTES (at least one).  Every
    chunk's patches go into one buffer, which the next chunk overwrites.
    """
    n, c, h, w = x.shape
    step = max(1, _CHUNK_BYTES // (c * 9 * h * w * x.itemsize))
    cols = np.empty((min(n, step), c * 9, h * w), dtype=x.dtype)
    for start in range(0, n, step):
        sl = slice(start, start + step)
        yield sl, _im2col(x[sl], cols)


def _conv2d_batch(x, kernels, bias):
    """3x3 same convolution of [N,C,H,W] x, one patch-matrix chunk at a time."""
    n, c, h, w = x.shape
    k = kernels.shape[0]
    wmat = kernels.reshape(k, c * 9)
    out = np.empty((n, k, h * w), dtype=x.dtype)
    for sl, cols in _patch_chunks(x):
        np.matmul(wmat, cols, out=out[sl])
    out += bias[:, None]
    return out.reshape(n, k, h, w)


def _pool_windows(x: np.ndarray):
    """The four [n, C, H//2, W//2] views of x's 2x2 windows, in row-major order.

    A trailing odd row or column belongs to no window (floor semantics).
    """
    ho, wo = x.shape[2] // 2, x.shape[3] // 2
    return [x[:, :, di : 2 * ho : 2, dj : 2 * wo : 2] for di in (0, 1) for dj in (0, 1)]


def _maxpool_batch(x):
    """Max of each 2x2 window of [N,C,H,W] x.

    The layer's inputs are ReLU output, never NaN or -0.0, so the max is the
    first maximal element bit for bit, whatever order np.maximum compares
    in; on other inputs it is equal in value.
    """
    a, b, c, d = _pool_windows(x)
    out = np.maximum(a, b)
    np.maximum(out, c, out=out)
    np.maximum(out, d, out=out)
    return out


def softmax_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of [N, K] logits, computed in float64."""
    logits = np.asarray(logits, dtype=np.float64)
    # a finite gap past the float64 range overflows to -inf, whose exp is the
    # correctly rounded 0
    with np.errstate(over="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Layers.

class Conv:
    """3x3 same-padding stride-1 convolution with bias."""

    kind = "conv"

    def __init__(self, in_channels: int, out_channels: int):
        self.in_channels = in_channels
        self.out_channels = out_channels
        # a Network binds each name, and d_<name>, to a view of its vectors
        self.param_shapes = {"kernels": (out_channels, in_channels, 3, 3), "bias": (out_channels,)}

    def forward(self, x):
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects {self.in_channels} channels, input is {x.shape}"
            )
        return _conv2d_batch(x, self.kernels, self.bias)

    def backward(self, g, x, input_grad=True):
        """Write d_kernels and d_bias in place; return dx, or None when not input_grad."""
        n, c, h, w = x.shape
        gmat = g.reshape(n, self.out_channels, h * w)
        parts = (
            part.reshape(self.kernels.shape)
            for sl, cols in _patch_chunks(x)
            for part in np.matmul(gmat[sl], cols.transpose(0, 2, 1))
        )
        # image by image in batch order, as a sum over the batch axis adds
        np.copyto(self.d_kernels, next(parts))
        for part in parts:
            self.d_kernels += part
        np.sum(g, axis=(0, 2, 3), out=self.d_bias)
        if not input_grad:
            return None
        # dx is g correlated with the kernels flipped in space and with their
        # in and out channels swapped
        flipped = np.ascontiguousarray(self.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        return _conv2d_batch(g, flipped, np.zeros(c, dtype=flipped.dtype))


class MaxPool:
    """2x2 stride-2 max pooling, floor semantics."""

    kind = "pool"

    def forward(self, x):
        if x.shape[2] < 2 or x.shape[3] < 2:
            raise ShapeError(f"maxpool needs H,W >= 2, input is {x.shape}")
        return _maxpool_batch(x)

    def backward(self, g, x):
        """Route each window's gradient to its winner, recomputed from x: the first
        element, in row-major order, equal to the max.  Other inputs get 0."""
        a, b, c, _ = _pool_windows(x)
        out = _maxpool_batch(x)
        # winner = (a != out) * (1 + (b != out) * (1 + (c != out)))
        arg = np.not_equal(c, out).view(np.uint8)
        arg += 1
        arg *= b != out
        arg += 1
        arg *= a != out
        dx = np.zeros(x.shape, dtype=g.dtype)
        for k, view in enumerate(_pool_windows(dx)):
            np.copyto(view, g, where=arg == k)
        return dx


class Relu:
    """max(x, 0), computed in place in x.

    NaN and -0.0 map to +0.0.  Network.forward never hands it the caller's
    input.
    """

    kind = "relu"

    def forward(self, x):
        # fmax maps NaN to 0 but may keep -0.0; adding +0.0 turns that into +0.0
        np.fmax(x, 0.0, out=x)
        x += 0.0
        return x

    def backward(self, g, x):
        # x > 0 holds at the same places in the input and the output, and g
        # is always a fresh array
        np.copyto(g, 0.0, where=~(x > 0))
        return g


class Flatten:
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def backward(self, g, x):
        return g.reshape(x.shape)


class Dense:
    kind = "dense"

    def __init__(self, in_features: int, units: int):
        self.in_features = in_features
        self.units = units
        self.param_shapes = {"weights": (units, in_features), "bias": (units,)}

    def forward(self, x):
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects {self.in_features} features, input is {x.shape}"
            )
        return x @ self.weights.T + self.bias

    def backward(self, g, x, input_grad=True):
        """Write d_weights and d_bias in place; return dx, or None when not input_grad."""
        np.matmul(g.T, x, out=self.d_weights)
        np.sum(g, axis=0, out=self.d_bias)
        return g @ self.weights if input_grad else None


def n_params(layers) -> int:
    """Number of parameters layers declare; allocates none of them."""
    return sum(
        math.prod(s) for layer in layers for s in getattr(layer, "param_shapes", {}).values()
    )


class Network:
    """Ordered layer stack under a row-wise softmax, trained with cross-entropy.

    Allocates its layers' parameters in the flat params and grads vectors,
    in dtype, and with rng draws the weights (see the module docstring).
    Given params, a vector of n_params(layers) elements, it takes that
    vector as its own params, uncopied, and grads in its dtype.
    Network([]) is the bare softmax cross-entropy of its input.
    """

    def __init__(self, layers, dtype=np.float64, rng=None, params=None):
        self.layers = list(layers)
        n = n_params(self.layers)
        self.params = np.zeros(n, dtype=dtype) if params is None else params
        if self.params.shape != (n,):
            raise ShapeError(f"params of shape {self.params.shape}, the layers need ({n},)")
        # (name, end offset) of every parameter, in params order
        self.layout = []
        spans = []
        stop = 0
        for i, layer in enumerate(self.layers):
            for name, shape in getattr(layer, "param_shapes", {}).items():
                start, stop = stop, stop + math.prod(shape)
                self.layout.append((f"layer{i}.{layer.kind}.{name}", stop))
                spans.append((layer, name, slice(start, stop), shape))
                param = self.params[start:stop].reshape(shape)
                if rng is not None and len(shape) > 1:
                    fan_in, fan_out = math.prod(shape[1:]), shape[0] * math.prod(shape[2:])
                    limit = np.sqrt(6.0 / (fan_in + fan_out))
                    param[...] = rng.uniform(-limit, limit, size=shape)
                setattr(layer, name, param)
        # np.zeros after the draws: building peaks at params plus one draw,
        # and no page of grads is written before backward writes it
        self.grads = np.zeros(self.params.size, dtype=self.params.dtype)
        for layer, name, span, shape in spans:
            setattr(layer, f"d_{name}", self.grads[span].reshape(shape))

    def _owned(self, x: np.ndarray) -> np.ndarray:
        # ReLU works in place, so the caller's array goes only to a layer
        # that returns a new one
        if self.layers and isinstance(self.layers[0], (Conv, MaxPool, Dense)):
            return x
        return x.copy()

    def _front(self, x: np.ndarray):
        """(layers before the first Dense, images per chunk of them for batch x).

        A conv sets an activation's channels, a pooling halves its sides.
        """
        dense = [i for i, layer in enumerate(self.layers) if isinstance(layer, Dense)]
        head = dense[0] if dense else len(self.layers)
        shape = list(x.shape[1:])  # one image's activation
        largest = math.prod(shape)
        for layer in self.layers[:head]:
            if isinstance(layer, Conv):
                shape[0] = layer.out_channels
            elif isinstance(layer, MaxPool):
                shape[1:] = [s // 2 for s in shape[1:]]
            largest = max(largest, math.prod(shape))
        return self.layers[:head], max(1, _FORWARD_CHUNK_BYTES // max(1, largest * x.itemsize))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities of batch x, in chunks up to the first Dense; x is not modified."""
        front, step = self._front(x)
        outs = []
        # at least one chunk, so that an empty batch goes through the layers too
        for start in range(0, max(len(x), 1), step):
            a = self._owned(x[start : start + step])
            for layer in front:
                a = layer.forward(a)
            outs.append(a)
        a = np.concatenate(outs)
        for layer in self.layers[len(front) :]:
            a = layer.forward(a)
        return softmax_batch(a)

    def loss_and_backward(self, x: np.ndarray, classes: np.ndarray):
        """(mean cross-entropy, [N, K] probabilities) of the batch; fills every layer's gradients.

        The softmax/cross-entropy pair is differentiated jointly as
        (p - onehot)/N for stability.  That gradient is formed from the
        float64 probabilities, then cast to x's dtype for the backward sweep.
        """
        inputs = [self._owned(x)]
        for layer in self.layers:
            inputs.append(layer.forward(inputs[-1]))
        probs = softmax_batch(inputs.pop())
        n = x.shape[0]
        classes = np.asarray(classes)
        if ((classes < 0) | (classes >= probs.shape[1])).any():
            raise IndexError(f"classes {classes} outside [0, {probs.shape[1]})")
        loss = float(-np.log(probs[np.arange(n), classes] + EPS_LOG).mean())
        g = probs.copy()
        g[np.arange(n), classes] -= 1.0
        g /= n
        g = g.astype(x.dtype, copy=False)
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g, inputs.pop())
        # the gradient with respect to the input itself is not needed
        if self.layers and isinstance(self.layers[0], (Conv, Dense)):
            self.layers[0].backward(g, inputs.pop(), input_grad=False)
        return loss, probs


def gradient_check(
    network: Network,
    x: np.ndarray,
    true_class: int,
    epsilon: float = 1e-5,
    max_params: int = 256,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The analytic gradients are those of Network.loss_and_backward on x as a
    batch of one; the differences are of -log(p[true_class] + 1e-12).
    Samples up to max_params parameters (at least 200 when available,
    seeded); relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not (1e-7 <= epsilon <= 1e-4):
        raise ConfigurationError(f"epsilon {epsilon} outside [1e-7, 1e-4]")
    x = np.asarray(x, dtype=np.float64)[None]
    network.loss_and_backward(x, np.array([true_class]))
    params, grads = network.params, network.grads
    rng = make_rng(seed)
    n_check = min(params.size, max(max_params, 200))
    chosen = rng.choice(params.size, size=n_check, replace=False) if params.size > n_check else np.arange(params.size)

    def loss():
        # forward alone leaves the analytic gradients in grads untouched
        return float(-np.log(network.forward(x)[0, true_class] + EPS_LOG))

    worst = 0.0
    for i in chosen:
        orig = params[i]
        params[i] = orig + epsilon
        up = loss()
        params[i] = orig - epsilon
        down = loss()
        params[i] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = grads[i]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def sgd_step(network: Network, velocity: np.ndarray, learning_rate: float, momentum: float):
    """In-place momentum SGD update of network.params; velocity has its layout.

    velocity <- momentum * velocity - lr * network.grads;  params += velocity.
    """
    if learning_rate <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {learning_rate}")
    if not 0 <= momentum < 1:
        raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
    finite = np.isfinite(network.grads)
    if not finite.all():
        first = finite.argmin()
        name = next(name for name, stop in network.layout if first < stop)
        raise TrainingError(f"non-finite gradient in {name}")
    velocity *= momentum
    velocity -= learning_rate * network.grads
    network.params += velocity
