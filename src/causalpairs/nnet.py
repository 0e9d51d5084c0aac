"""Minimal dense-tensor neural network core.

Layers compute in the dtype of the array they are given: every buffer is
allocated in the input's dtype, so a layer fed float32 runs in float32.
Layers built here hold float64 parameters; a caller that wants another
dtype converts them (cnn does).  Softmax computes in float64 whatever its
input, so probabilities are float64.

Layers operate on batches (NCHW for spatial data).  Convolutions are 3x3,
stride 1, zero same-padding; pooling is 2x2 stride 2 with floor semantics
and first-index tie-break in backward: a window's gradient goes to the
first of its elements, in row-major order, that equals the max.

Layers keep no state: forward(x) stores nothing, and backward(g, x) is given
the layer's input x.  Network.loss_and_backward keeps the step's activations
in a local list and drops each once its layer's backward has run;
Network.forward holds one activation at a time.  ReLU works in place, so its
input is its output, and its backward zeroes g in place where x > 0 fails.
Max pooling takes the max of the four strided window views; its backward
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

import numpy as np

from .errors import ConfigurationError, ShapeError, TrainingError

EPS_LOG = 1e-12

# Byte budget of one chunk's patch matrix; see the module docstring.
_CHUNK_BYTES = 1 << 20

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

_GLOROT_SCALE = 6.0


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    limit = np.sqrt(_GLOROT_SCALE / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """A layer without parameters; Conv and Dense override both methods."""

    def parameters(self):
        return []

    def gradients(self):
        return []


class Conv(Layer):
    """3x3 same-padding stride-1 convolution with bias."""

    kind = "conv"

    def __init__(self, in_channels: int, out_channels: int, rng=None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = in_channels * 9
        fan_out = out_channels * 9
        if rng is None:
            self.kernels = np.zeros((out_channels, in_channels, 3, 3))
        else:
            self.kernels = glorot_uniform(
                rng, (out_channels, in_channels, 3, 3), fan_in, fan_out
            )
        self.bias = np.zeros(out_channels)
        self.d_kernels = np.zeros_like(self.kernels)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x):
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects {self.in_channels} channels, input is {x.shape}"
            )
        return _conv2d_batch(x, self.kernels, self.bias)

    def backward(self, g, x, input_grad=True):
        """Fill d_kernels and d_bias; return dx, or None when not input_grad."""
        n, c, h, w = x.shape
        gmat = g.reshape(n, self.out_channels, h * w)
        parts = (
            part
            for sl, cols in _patch_chunks(x)
            for part in np.matmul(gmat[sl], cols.transpose(0, 2, 1))
        )
        # image by image in batch order, as a sum over the batch axis adds
        d_kernels = next(parts).copy()
        for part in parts:
            d_kernels += part
        self.d_kernels = d_kernels.reshape(self.kernels.shape)
        self.d_bias = g.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        # dx is g correlated with the kernels flipped in space and with their
        # in and out channels swapped
        flipped = np.ascontiguousarray(self.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        return _conv2d_batch(g, flipped, np.zeros(c, dtype=flipped.dtype))

    def parameters(self):
        return [("kernels", self.kernels), ("bias", self.bias)]

    def gradients(self):
        return [("kernels", self.d_kernels), ("bias", self.d_bias)]


class MaxPool(Layer):
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


class Relu(Layer):
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


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def backward(self, g, x):
        return g.reshape(x.shape)


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features: int, units: int, rng=None):
        self.in_features = in_features
        self.units = units
        if rng is None:
            self.weights = np.zeros((units, in_features))
        else:
            self.weights = glorot_uniform(rng, (units, in_features), in_features, units)
        self.bias = np.zeros(units)
        self.d_weights = np.zeros_like(self.weights)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x):
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects {self.in_features} features, input is {x.shape}"
            )
        return x @ self.weights.T + self.bias

    def backward(self, g, x, input_grad=True):
        """Fill d_weights and d_bias; return dx, or None when not input_grad."""
        self.d_weights = g.T @ x
        self.d_bias = g.sum(axis=0)
        return g @ self.weights if input_grad else None

    def parameters(self):
        return [("weights", self.weights), ("bias", self.bias)]

    def gradients(self):
        return [("weights", self.d_weights), ("bias", self.d_bias)]


class Softmax(Layer):
    """Row-wise softmax; Network.loss_and_backward differentiates it with the loss."""

    kind = "softmax"

    def forward(self, x):
        return softmax_batch(x)


LAYER_TYPES = {cls.kind: cls for cls in (Conv, MaxPool, Relu, Flatten, Dense, Softmax)}


class Network:
    """Ordered layer stack ending in Softmax, trained with cross-entropy."""

    def __init__(self, layers):
        self.layers = list(layers)

    def _owned(self, x: np.ndarray) -> np.ndarray:
        # ReLU works in place, so the caller's array goes only to a layer
        # that returns a new one
        return x if isinstance(self.layers[0], (Conv, MaxPool, Dense)) else x.copy()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Output of the stack for batch x; x itself is never modified."""
        x = self._owned(x)
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def loss_and_backward(self, x: np.ndarray, classes: np.ndarray):
        """(mean cross-entropy, [N, K] probabilities) of the batch; fills every layer's gradients.

        The softmax/cross-entropy pair is differentiated jointly as
        (p - onehot)/N for stability; the final layer must be Softmax.  That
        gradient is formed from the float64 probabilities, then cast to x's
        dtype for the rest of the backward sweep.
        """
        if not isinstance(self.layers[-1], Softmax):
            raise ConfigurationError("network must end in a softmax layer")
        inputs = [self._owned(x)]
        for layer in self.layers[:-1]:
            inputs.append(layer.forward(inputs[-1]))
        probs = self.layers[-1].forward(inputs.pop())
        n = x.shape[0]
        classes = np.asarray(classes)
        if ((classes < 0) | (classes >= probs.shape[1])).any():
            raise IndexError(f"classes {classes} outside [0, {probs.shape[1]})")
        loss = float(-np.log(probs[np.arange(n), classes] + EPS_LOG).mean())
        g = probs.copy()
        g[np.arange(n), classes] -= 1.0
        g /= n
        g = g.astype(x.dtype, copy=False)
        for layer in reversed(self.layers[1:-1]):
            g = layer.backward(g, inputs.pop())
        # the gradient with respect to the input itself is not needed
        first = self.layers[0]
        if first.parameters():
            first.backward(g, inputs.pop(), input_grad=False)
        return loss, probs

    def _named(self, method):
        """(layer{i}.{kind}.{name}, array) over every layer's method() pairs."""
        return [
            (f"layer{i}.{layer.kind}.{name}", arr)
            for i, layer in enumerate(self.layers)
            for name, arr in getattr(layer, method)()
        ]

    def parameters(self):
        """(name, array) pairs in declaration order; arrays are live views."""
        return self._named("parameters")

    def gradients(self):
        return self._named("gradients")

    def flat_parameters(self) -> np.ndarray:
        """Copy of every parameter, raveled and concatenated in declaration order."""
        return np.concatenate([arr.ravel() for _, arr in self.parameters()])

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Copy a flat_parameters() vector back into the live parameter arrays."""
        start = 0
        for _, arr in self.parameters():
            arr[...] = flat[start : start + arr.size].reshape(arr.shape)
            start += arr.size


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
    grads = dict(network.gradients())
    flat = [(name, arr, idx) for name, arr in network.parameters() for idx in range(arr.size)]
    rng = np.random.Generator(np.random.PCG64(seed))
    n_check = min(len(flat), max(max_params, 200))
    chosen = rng.choice(len(flat), size=n_check, replace=False) if len(flat) > n_check else np.arange(len(flat))

    def loss():
        # forward alone leaves the analytic gradients in grads untouched
        return float(-np.log(network.forward(x)[0, true_class] + EPS_LOG))

    worst = 0.0
    for fi in chosen:
        name, arr, idx = flat[fi]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + epsilon
        up = loss()
        arr.flat[idx] = orig - epsilon
        down = loss()
        arr.flat[idx] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = grads[name].flat[idx]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def sgd_step(parameters, gradients, velocities, learning_rate: float, momentum: float):
    """In-place momentum SGD update over aligned (name, array) lists.

    velocity <- momentum * velocity - lr * gradient;  parameter += velocity.
    """
    if learning_rate <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {learning_rate}")
    if not 0 <= momentum < 1:
        raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
    for (name, param), (_, grad), vel in zip(parameters, gradients, velocities):
        if not np.isfinite(grad).all():
            raise TrainingError(f"non-finite gradient in {name}")
        vel *= momentum
        vel -= learning_rate * grad
        param += vel
