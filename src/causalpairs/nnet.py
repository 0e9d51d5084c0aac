"""Minimal dense-tensor neural network core.

All computation is float64 on contiguous numpy arrays.  Layers operate on
batches (NCHW for spatial data); the module-level ops mirror the
single-instance contracts used throughout the package.  Convolutions are
3x3, stride 1, zero same-padding; pooling is 2x2 stride 2 with floor
semantics and first-index tie-break in backward.

A convolution walks its batch in chunks whose [n, C*9, H*W] patch matrix
fits _CHUNK_BYTES (1 MiB; one image per chunk when a single image's patches
are larger).  Each chunk's patches are unrolled into one reused buffer and
multiplied in one GEMM per image.  No patch matrix is cached: the layer
keeps a reference to its input and backward rebuilds each chunk's patches
from it, so memory stays at the activations plus a few chunk buffers.  The
kernel gradient is accumulated image by image in batch order, which is the
order a sum over the whole batch's per-image products adds in, so results do
not depend on the chunk size.

Parameter serialization is a versioned flat binary: magic, format version,
layer records with shapes, then every parameter as little-endian float64 in
declaration order.  Loading checks every length against the data and raises
InputError on a malformed blob.
"""

import io
import struct

import numpy as np

from .errors import ConfigurationError, InputError, ShapeError, TrainingError

EPS_LOG = 1e-12

# Byte budget of one chunk's patch matrix; see the module docstring.
_CHUNK_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# Batched primitives (internal carriers for the layer classes).


def _chunk_size(c: int, h: int, w: int) -> int:
    """Images per chunk so that one [n, C*9, H*W] patch matrix fits the budget."""
    return max(1, _CHUNK_BYTES // (c * 9 * h * w * 8))


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


def _col2im(dcols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patch gradients into zeroed [n,C,H,W] out.

    Taps are added in (di, dj) order, so every pixel sums its contributions
    in the same order as a scatter into a padded buffer would.
    """
    n, c, h, w = out.shape
    out[...] = 0.0
    taps = dcols.reshape(n, c, 3, 3, h, w)
    for di in range(3):
        patch_rows, image_rows = _shift(di, h)
        for dj in range(3):
            patch_cols, image_cols = _shift(dj, w)
            out[:, :, image_rows, image_cols] += taps[:, :, di, dj, patch_rows, patch_cols]
    return out


def _conv2d_batch(x, kernels, bias):
    """3x3 same convolution of [N,C,H,W] x, one patch-matrix chunk at a time."""
    n, c, h, w = x.shape
    k = kernels.shape[0]
    wmat = kernels.reshape(k, c * 9)
    step = _chunk_size(c, h, w)
    cols = np.empty((min(n, step), c * 9, h * w))
    out = np.empty((n, k, h * w))
    for start in range(0, n, step):
        sl = slice(start, start + step)
        np.matmul(wmat, _im2col(x[sl], cols), out=out[sl])
    out += bias[:, None]
    return out.reshape(n, k, h, w)


def _maxpool_batch(x):
    n, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    windows = (
        x[:, :, : 2 * ho, : 2 * wo]
        .reshape(n, c, ho, 2, wo, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, 4)
    )
    # argmax scans windows row-major, giving the stated first-index tie-break
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, arg


def _maxpool_backward_batch(g, arg, in_shape):
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


def softmax_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of [N, K] logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Single-instance operations.


def conv2d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """3x3 same convolution of one [C,H,W] input with [K,C,3,3] kernels."""
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 3 or kernels.ndim != 4 or kernels.shape[1:] != (x.shape[0], 3, 3):
        raise ShapeError(
            f"conv2d: input {x.shape} does not conform to kernels {kernels.shape}"
        )
    if bias.shape != (kernels.shape[0],):
        raise ShapeError(f"conv2d: bias {bias.shape} vs kernels {kernels.shape}")
    return _conv2d_batch(x[None], kernels, bias)[0]


def maxpool_forward(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling of one [C,H,W] input (floor semantics)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] < 2 or x.shape[2] < 2:
        raise ShapeError(f"maxpool: input {x.shape} must be [C,H>=2,W>=2]")
    out, _ = _maxpool_batch(x[None])
    return out[0]


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map weights @ x + bias for one input vector."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 1 or weights.ndim != 2 or weights.shape[1] != x.shape[0]:
        raise ShapeError(f"dense: weights {weights.shape} vs input {x.shape}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"dense: bias {bias.shape} vs weights {weights.shape}")
    return weights @ x + bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a logit vector (max-subtraction)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.shape[0] < 2:
        raise ShapeError(f"softmax: need a vector of length >= 2, got {logits.shape}")
    return softmax_batch(logits[None])[0]


def cross_entropy(probabilities: np.ndarray, true_class: int) -> float:
    """-log(p[true_class] + 1e-12)."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if not 0 <= true_class < probabilities.shape[0]:
        raise IndexError(f"class {true_class} out of range for {probabilities.shape}")
    return float(-np.log(probabilities[true_class] + EPS_LOG))


# ---------------------------------------------------------------------------
# Layers.

_GLOROT_SCALE = 6.0


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    limit = np.sqrt(_GLOROT_SCALE / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv:
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
        self._input = None

    def forward(self, x):
        if x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects {self.in_channels} channels, input is {x.shape}"
            )
        self._input = x
        return _conv2d_batch(x, self.kernels, self.bias)

    def backward(self, g):
        x = self._input
        n, c, h, w = x.shape
        k = self.out_channels
        gmat = g.reshape(n, k, h * w)
        wmat = self.kernels.reshape(k, c * 9)
        step = _chunk_size(c, h, w)
        cols = np.empty((min(n, step), c * 9, h * w))
        dcols = np.empty_like(cols)
        part = np.empty((len(cols), k, c * 9))
        d_kernels = np.empty((k, c * 9))
        dx = np.empty(x.shape)
        for start in range(0, n, step):
            sl = slice(start, start + step)
            m = min(step, n - start)
            np.matmul(gmat[sl], _im2col(x[sl], cols).transpose(0, 2, 1), out=part[:m])
            # image by image in batch order, as a sum over the batch axis adds
            for j in range(m):
                if start + j == 0:
                    d_kernels[...] = part[0]
                else:
                    d_kernels += part[j]
            np.matmul(wmat.T, gmat[sl], out=dcols[:m])
            _col2im(dcols[:m], dx[sl])
        self.d_kernels = d_kernels.reshape(self.kernels.shape)
        self.d_bias = g.sum(axis=(0, 2, 3))
        return dx

    def parameters(self):
        return [("kernels", self.kernels), ("bias", self.bias)]

    def gradients(self):
        return [("kernels", self.d_kernels), ("bias", self.d_bias)]


class MaxPool:
    """2x2 stride-2 max pooling, floor semantics."""

    kind = "pool"

    def __init__(self):
        self._arg = None
        self._in_shape = None

    def forward(self, x):
        if x.shape[2] < 2 or x.shape[3] < 2:
            raise ShapeError(f"maxpool needs H,W >= 2, input is {x.shape}")
        out, arg = _maxpool_batch(x)
        self._arg = arg
        self._in_shape = x.shape
        return out

    def backward(self, g):
        return _maxpool_backward_batch(g, self._arg, self._in_shape)

    def parameters(self):
        return []

    def gradients(self):
        return []


class Relu:
    kind = "relu"

    def __init__(self):
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, g):
        return np.where(self._mask, g, 0.0)

    def parameters(self):
        return []

    def gradients(self):
        return []


class Flatten:
    kind = "flatten"

    def __init__(self):
        self._in_shape = None

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, g):
        return g.reshape(self._in_shape)

    def parameters(self):
        return []

    def gradients(self):
        return []


class Dense:
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
        self._input = None

    def forward(self, x):
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expects {self.in_features} features, input is {x.shape}"
            )
        self._input = x
        return x @ self.weights.T + self.bias

    def backward(self, g):
        self.d_weights = g.T @ self._input
        self.d_bias = g.sum(axis=0)
        return g @ self.weights

    def parameters(self):
        return [("weights", self.weights), ("bias", self.bias)]

    def gradients(self):
        return [("weights", self.d_weights), ("bias", self.d_bias)]


class Softmax:
    kind = "softmax"

    def __init__(self):
        self._probs = None

    def forward(self, x):
        self._probs = softmax_batch(x)
        return self._probs

    def backward(self, g):
        p = self._probs
        return p * (g - (g * p).sum(axis=-1, keepdims=True))

    def parameters(self):
        return []

    def gradients(self):
        return []


class Network:
    """Ordered layer stack ending in Softmax, trained with cross-entropy."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def loss_and_backward(self, x: np.ndarray, classes: np.ndarray) -> float:
        """Mean cross-entropy over the batch; fills every layer's gradients.

        The softmax/cross-entropy pair is differentiated jointly as
        (p - onehot)/N for stability; the final layer must be Softmax.
        """
        if not isinstance(self.layers[-1], Softmax):
            raise ConfigurationError("network must end in a softmax layer")
        probs = self.forward(x)
        n = x.shape[0]
        classes = np.asarray(classes)
        loss = float(-np.log(probs[np.arange(n), classes] + EPS_LOG).mean())
        g = probs.copy()
        g[np.arange(n), classes] -= 1.0
        g /= n
        for layer in reversed(self.layers[:-1]):
            g = layer.backward(g)
        return loss

    def parameters(self):
        """(name, array) pairs in declaration order; arrays are live views."""
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.parameters():
                out.append((f"layer{i}.{layer.kind}.{name}", arr))
        return out

    def gradients(self):
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.gradients():
                out.append((f"layer{i}.{layer.kind}.{name}", arr))
        return out


def backward(network: Network, x: np.ndarray, true_class: int):
    """Gradients of the single-example loss for every parameter.

    Returns (loss, {name: gradient array}).
    """
    loss = network.loss_and_backward(
        np.asarray(x, dtype=np.float64)[None], np.array([true_class])
    )
    grads = {name: arr.copy() for name, arr in network.gradients()}
    return loss, grads


def _forward_loss(network: Network, x: np.ndarray, true_class: int) -> float:
    probs = network.forward(x[None])[0]
    return cross_entropy(probs, true_class)


def gradient_check(
    network: Network,
    x: np.ndarray,
    true_class: int,
    epsilon: float = 1e-5,
    max_params: int = 256,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples up to max_params parameters (at least 200 when available,
    seeded); relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not (1e-7 <= epsilon <= 1e-4):
        raise ConfigurationError(f"epsilon {epsilon} outside [1e-7, 1e-4]")
    x = np.asarray(x, dtype=np.float64)
    _, grads = backward(network, x, true_class)
    params = network.parameters()
    flat = []
    for name, arr in params:
        for idx in range(arr.size):
            flat.append((name, arr, idx))
    rng = np.random.Generator(np.random.PCG64(seed))
    n_check = min(len(flat), max(max_params, 200))
    chosen = rng.choice(len(flat), size=n_check, replace=False) if len(flat) > n_check else np.arange(len(flat))
    worst = 0.0
    for fi in chosen:
        name, arr, idx = flat[fi]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + epsilon
        up = _forward_loss(network, x, true_class)
        arr.flat[idx] = orig - epsilon
        down = _forward_loss(network, x, true_class)
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
    return parameters, velocities


# ---------------------------------------------------------------------------
# Serialization.

MAGIC = b"CPNN"
FORMAT_VERSION = 1
# Layer classes in the order of their one-byte record codes.
_LAYER_ORDER = (Conv, MaxPool, Relu, Flatten, Dense, Softmax)
LAYER_TYPES = {cls.kind: cls for cls in _LAYER_ORDER}
_LAYER_CODES = {cls.kind: code for code, cls in enumerate(_LAYER_ORDER)}


def layer_dims(layer) -> tuple:
    """Sizes a layer record stores: (in, out) for conv and dense, else ()."""
    if layer.kind == "conv":
        return (layer.in_channels, layer.out_channels)
    if layer.kind == "dense":
        return (layer.in_features, layer.units)
    return ()


def save_network(network: Network, buf) -> None:
    """Versioned flat binary: magic, version, layer records, float64 params."""
    buf.write(MAGIC)
    buf.write(struct.pack("<II", FORMAT_VERSION, len(network.layers)))
    for layer in network.layers:
        buf.write(struct.pack("<B", _LAYER_CODES[layer.kind]))
        dims = layer_dims(layer)
        if dims:
            buf.write(struct.pack("<II", *dims))
    for _, arr in network.parameters():
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_network(buf) -> Network:
    return network_from_bytes(buf.read())


def network_to_bytes(network: Network) -> bytes:
    buf = io.BytesIO()
    save_network(network, buf)
    return buf.getvalue()


def network_from_bytes(data: bytes) -> Network:
    """Parse a CPNN v1 blob; malformed or inconsistent content raises InputError."""
    if data[:4] != MAGIC:
        raise InputError(f"bad magic {data[:4]!r}; not a serialized network")
    pos = 4

    def read(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if size > len(data) - pos:
            raise InputError("truncated network")
        pos += size
        return struct.unpack_from(fmt, data, pos - size)

    version, n_layers = read("<II")
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported network format version {version}")
    records = []
    n_params = 0
    for _ in range(n_layers):
        (code,) = read("<B")
        if code >= len(_LAYER_ORDER):
            raise InputError(f"unknown layer code {code}")
        layer_type = _LAYER_ORDER[code]
        dims = read("<II") if layer_type in (Conv, Dense) else ()
        if dims:
            n_in, n_out = dims
            if n_in == 0 or n_out == 0:
                raise InputError(f"{layer_type.kind} layer with sizes {dims}")
            n_params += n_out * (n_in * (9 if layer_type is Conv else 1) + 1)
        records.append((layer_type, dims))
    # sizes are checked against the data before any layer is allocated
    if 8 * n_params != len(data) - pos:
        raise InputError(
            "truncated network" if 8 * n_params > len(data) - pos
            else "trailing bytes after network parameters"
        )
    values = np.frombuffer(data, dtype="<f8", offset=pos)
    if not np.isfinite(values).all():
        raise InputError("non-finite network parameter")
    net = Network([layer_type(*dims) for layer_type, dims in records])
    for _, arr in net.parameters():
        arr[...] = values[: arr.size].reshape(arr.shape)
        values = values[arr.size :]
    return net
