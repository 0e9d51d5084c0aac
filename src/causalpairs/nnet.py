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
one velocity vector.  Given a generator, the Network draws each weight
Glorot-uniform in declaration order: a float64 draw within
sqrt(6 / (fan_in + fan_out)), with fan_in = prod(shape[1:]) and
fan_out = shape[0] * prod(shape[2:]), cast into params.  Each weight is
drawn in blocks of whole rows, each within _CHUNK_BYTES of float64 (one
row when a row is larger), which hold the values of one whole draw, so
building holds one block beside params.  Biases start at zero.  A Network
has no softmax layer: forward and loss_and_backward apply softmax_batch to
the last layer's output, in float64 whatever its dtype, so probabilities
are float64.

Layers operate on batches (NCHW for spatial data).  Convolutions are 3x3,
stride 1, zero same-padding; pooling is 2x2 stride 2 with floor semantics
and first-index tie-break in backward: a window's gradient goes to the
first of its elements, in row-major order, that equals the max.

One chunk rule bounds the work on a batch: it is walked in chunks of as
many whole images as keep the chunk's bytes within _CHUNK_BYTES (1 MiB, at
the array's itemsize; one image per chunk when a single image is larger),
and an empty batch is one empty chunk.  What the bytes count is what the
chunk holds: a convolution's [C*9, H*W] patch matrix per image, a backward
mask's or a pool record's slice of the layer input, or in Network.forward
and Network.loss_and_backward the largest activation.

Layers keep no state: forward(x) stores nothing.  backward(g, x) is given
the layer's input x, except pooling's: MaxPool.record builds, from the
pool's input and output, a uint8 per window naming its winner, and
backward(g, record) is given that.  Network.forward runs the layers
before the first Dense chunk by chunk, one layer's activation at a time,
then the dense head over the whole batch.  Conv, ReLU and pooling compute
image by image (a convolution makes one GEMM per image), so the chunks
change no bit; a dense GEMM's bits depend on its row count, so the head
keeps the caller's batch.  Network.loss_and_backward runs forward the
same way, keeping, in a local list per chunk and one for the head, what
each layer's backward reads; its walk back runs the head's backwards,
then each chunk's in batch order, and drops what a layer kept once its
backward has run.  A ReLU feeding a pool keeps nothing and runs no
backward: the pool's record also marks each window whose max is not above
0 as getting nothing, which is that ReLU's backward, so the pair's input
is dropped as soon as it is pooled.  A conv->ReLU output that feeds a
conv, where the first conv's input is kept, is not kept either: the walk
back recomputes it from that input, bit for bit, running the pair forward
again, once for both the second conv's backward and the ReLU's.  In the
CNN's conv-ReLU-conv-ReLU-pool stages a step so keeps one activation per
stage, its input, beside the pool's record.  ReLU works in place, so its
input is its output, and its backward zeroes g in place where x > 0
fails.  Max pooling takes the max of the four strided window views; its
record compares three of them with the max, so backward finds no max
again.  Both backwards select with bit masks rather than masked copies:
g viewed as a signed integer of its width, ANDed with an integer mask
that is all ones where g is kept and 0 elsewhere, which gives +0.0,
whatever g holds, where it is not kept.  The masks are built chunk by
chunk, so no mask spans the batch.  The walk back stops at the first
layer's parameter gradients: no gradient is formed for the network input.

A convolution unrolls each chunk's patches into one reused buffer and
multiplies them in one GEMM per image.  The chunk's images are copied into
a second reused buffer, a ninth of the first, that frames each channel's
H*W pixels with W+1 zeros on either side; one strided copy from it fills
all nine taps, the frame giving the top and bottom padding, and zeroing the
two columns a side tap wraps into gives the rest, so the patches keep the
padded input's bytes, NaN, +-inf and -0.0 included.  No patch matrix is
cached: backward rebuilds each chunk's patches from the input it is given,
so memory stays at the activations plus a few chunk buffers.  Each image's
kernel gradient is formed as the [C*9, K] product patches . g^T, which
OpenBLAS 0.3.31 runs faster than the [K, C*9] product g . patches^T and,
adding in the same order, gives its transpose bit for bit.  That was
checked at 1 and 2 threads, in float32 at the benchmark's, the --quick and
the paper's layer shapes and in float64 at the first two;
tests/test_nnet.py pins it in both dtypes.  The products, and each image's
bias gradient (its sum over the pixels), are added image by image in batch
order, starting from -0.0, the additive identity, so that the first image's
are copied bit for bit.  That is the order a sum over the whole batch's
per-image products adds in, and for the bias that of np.sum over the batch
and pixel axes when there is more than one channel, so results do not
depend on the chunk size.  In a training step the sums run on across the
chunks: each conv sums its kernel gradient's transpose in its own
d_kernels memory and puts it in place after the last chunk.  The input
gradient is itself a same convolution, run through the forward routine:
that of the output gradient with the kernels flipped in space and with
their input and output channels swapped.
"""

import math

import numpy as np

from .errors import ConfigurationError, ShapeError, TrainingError
from .probs import log_loss
from .seeding import make_rng

# Byte budget of one chunk of images; see the module docstring.
_CHUNK_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# Batched primitives (internal carriers for the layer classes).


def _im2col(x: np.ndarray, out: np.ndarray, framed: np.ndarray) -> np.ndarray:
    """Fill out[:n] with the [n, C*9, H*W] patch matrix of [n,C,H,W] x.

    Row order is (c, di, dj) with dj fastest, matching kernels reshaped as
    [K, C*9].  framed is an [m >= n, C, H*W + 2*(W+1)] buffer, zero outside
    the interior x is copied into; tap (di, dj) of pixel p is framed[p + di*W + dj].
    """
    n, c, h, w = x.shape
    framed[:n, :, w + 1 : w + 1 + h * w] = x.reshape(n, c, h * w)
    # read-only, as the taps overlap (setting flags.writeable retains memory per call)
    size = framed.itemsize
    taps = np.ndarray((n, c, 3, 3, h * w), framed.dtype, memoryview(framed).toreadonly(),
                      strides=(*framed.strides[:2], w * size, size, size))
    np.copyto(out[:n].reshape(taps.shape), taps)
    grid = out[:n].reshape(n, c, 3, 3, h, w)
    grid[:, :, :, 0, :, 0] = 0.0  # dj = 0 at column 0 read the row above's last pixel
    grid[:, :, :, 2, :, w - 1] = 0.0  # dj = 2 at column W-1 the row below's first
    return out[:n]


def _chunks(n: int, image_bytes: int):
    """(batch slices, images in the largest) of n images of image_bytes each,
    by the chunk rule of the module docstring."""
    step = max(1, _CHUNK_BYTES // max(1, image_bytes))
    return [slice(start, start + step) for start in range(0, max(n, 1), step)], min(n, step)


def _patch_chunks(x):
    """Yield (batch slice, [m, C*9, H*W] patch matrix) over x's batch, chunk by chunk.

    Every chunk's patches go into one buffer, which the next chunk overwrites.
    """
    n, c, h, w = x.shape
    slices, m = _chunks(n, c * 9 * h * w * x.itemsize)
    cols = np.empty((m, c * 9, h * w), dtype=x.dtype)
    framed = np.zeros((m, c, h * w + 2 * (w + 1)), dtype=x.dtype)
    for sl in slices:
        yield sl, _im2col(x[sl], cols, framed)


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


def _mask_chunks(x, g):
    """Yield (batch slice, g[sl] viewed as a signed integer of its width, an
    integer mask and a bool buffer of that shape), chunk by chunk.

    A chunk's bytes are its slice of x; the next chunk reuses the buffers.
    """
    bits = g.view(f"i{g.itemsize}")
    slices, most = _chunks(len(x), math.prod(x.shape[1:]) * x.itemsize)
    shape = (most, *g.shape[1:])
    mask = np.empty(shape, dtype=bits.dtype)
    held = np.empty(shape, dtype=bool)
    for sl in slices:
        m = len(bits[sl])
        yield sl, bits[sl], mask[:m], held[:m]


def _keep(bits, held, mask, out):
    """Write bits AND mask to out, mask set to all ones where bool held holds
    and to 0 elsewhere: the bits where held holds, +0.0 elsewhere."""
    np.negative(held.view(np.int8), out=mask)
    np.bitwise_and(bits, mask, out=out)


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

    def backward(self, g, x, input_grad=True, total=None):
        """Write d_kernels and d_bias in place; return dx, or None when not input_grad.

        Given total, a [C*9, K] array, adds the kernel gradient's transpose
        to total and the bias gradient to d_bias instead, and leaves
        d_kernels as it is: Network.loss_and_backward sums a batch's
        gradients over its chunks so.
        """
        n, c, h, w = x.shape
        k = self.out_channels
        gmat = g.reshape(n, k, h * w)
        fresh = total is None
        if fresh:
            # -0.0 is the additive identity: adding the first image's parts
            # copies them, -0.0 included
            total = np.full((c * 9, k), -0.0, dtype=x.dtype)
            self.d_bias.fill(-0.0)
        # image by image in batch order, as a sum over the batch axis adds;
        # each image's [C*9, K] product patches . g^T is the transpose of
        # g . patches^T, bit for bit (see the module docstring)
        for sl, cols in _patch_chunks(x):
            for part, g_image in zip(np.matmul(cols, gmat[sl].transpose(0, 2, 1)), gmat[sl]):
                total += part
                self.d_bias += g_image.sum(axis=1)
        del cols  # the last chunk's patches, freed before dx's are built
        if fresh:
            np.copyto(self.d_kernels.reshape(k, c * 9), total.T)
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

    def record(self, x, out, after_relu=False):
        """(winners, x.shape): what backward reads of the pooling of x into out.

        winners holds a uint8 per window: the index, in row-major order, of
        the first element equal to the max, or 3, the last, when none is.
        after_relu, for x a ReLU's output, adds 4 where the max is not above
        0, where the ReLU's backward would zero the winner's gradient; the
        record then does that backward too.  Built chunk by chunk, as
        _mask_chunks walks x.
        """
        winners = np.empty(out.shape, dtype=np.uint8)
        slices, most = _chunks(len(x), math.prod(x.shape[1:]) * x.itemsize)
        unequal = np.empty((most, *out.shape[1:]), dtype=bool)
        for sl in slices:
            a, b, c, _ = _pool_windows(x[sl])
            top, won = out[sl], winners[sl]
            ne = unequal[: len(top)]
            ne8 = ne.view(np.uint8)
            # (1 - e0) * (1 + (1 - e1) * (1 + (1 - e2))), e_k: window k equals the max
            np.not_equal(c, top, out=ne)
            np.add(ne8, 1, out=won)
            np.not_equal(b, top, out=ne)
            won *= ne8
            won += 1
            np.not_equal(a, top, out=ne)
            won *= ne8
            if after_relu:
                # 4 where the window gets nothing (ne is rewritten before it is read again)
                np.less_equal(top, 0, out=ne)
                np.left_shift(ne8, 2, out=ne8)
                won |= ne8
        return winners, x.shape

    def backward(self, g, record):
        """Route each window's gradient to the element its record names (see
        record); every other input gets +0.0."""
        winners, shape = record
        dx = np.zeros(shape, dtype=g.dtype)
        dx_bits = dx.view(f"i{dx.itemsize}")
        for sl, bits, mask, won in _mask_chunks(dx, g):
            for k, view in enumerate(_pool_windows(dx_bits[sl])):
                np.equal(winners[sl], k, out=won)
                _keep(bits, won, mask, view)
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
        for sl, bits, mask, positive in _mask_chunks(x, g):
            np.greater(x[sl], 0, out=positive)
            _keep(bits, positive, mask, bits)
        return g


class Flatten:
    kind = "flatten"

    def forward(self, x):
        # not -1: an empty batch leaves the width undetermined
        return x.reshape(len(x), math.prod(x.shape[1:]))

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
                    # blocks of whole rows, each at most _CHUNK_BYTES of float64:
                    # uniform consumes the stream in order, so the values are
                    # those of one whole draw
                    rows = max(1, _CHUNK_BYTES // (8 * max(fan_in, 1)))
                    for start_row in range(0, shape[0], rows):
                        block = param[start_row : start_row + rows]
                        block[...] = rng.uniform(-limit, limit, size=block.shape)
                setattr(layer, name, param)
        # np.zeros after the draws: building peaks at params plus one block,
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
        """(layers before the first Dense, bytes of one image's largest activation in them).

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
        return self.layers[:head], largest * x.itemsize

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities of batch x, in chunks up to the first Dense; x is not modified."""
        front, image_bytes = self._front(x)
        outs = []
        for sl in _chunks(len(x), image_bytes)[0]:
            a = self._owned(x[sl])
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
        float64 probabilities, then cast to x's dtype for the walk back.

        As in forward, the layers before the first Dense run a chunk of
        images at a time and the dense head over the whole batch; each
        chunk keeps what its layers' backwards read, except each
        conv->ReLU output that feeds a conv after a conv whose input is
        kept, which the walk back recomputes from that input.  The walk
        back runs the head, then each chunk in batch order, and sums each
        conv's gradients over the chunks image by image, so they are those
        of one whole-batch backward bit for bit.
        """
        front, image_bytes = self._front(x)
        slices = _chunks(len(x), image_bytes)[0]
        walks, outs = [], []
        for sl in slices:
            walks.append([])
            outs.append(_forward_keeping(front, self._owned(x[sl]), walks[-1]))
        head = []
        a = _forward_keeping(self.layers[len(front) :], np.concatenate(outs), head)
        del outs
        probs = softmax_batch(a)
        n = x.shape[0]
        classes = np.asarray(classes)
        # log_loss would wrap a negative index round to the last class
        if ((classes < 0) | (classes >= probs.shape[1])).any():
            raise IndexError(f"classes {classes} outside [0, {probs.shape[1]})")
        loss = log_loss(probs, classes)
        g = probs.copy()
        g[np.arange(n), classes] -= 1.0
        g /= n
        g = self._walk_back(head, g.astype(x.dtype, copy=False), bool(front), {})
        # each conv sums its kernel gradient's [C*9, K] transpose in its own
        # d_kernels memory, from -0.0, the additive identity, and its bias
        # gradient in d_bias; the transposes are put in place at the end
        totals = {
            layer: layer.d_kernels.reshape(-1, layer.out_channels)
            for layer in front if isinstance(layer, Conv)
        }
        for layer, total in totals.items():
            total.fill(-0.0)
            layer.d_bias.fill(-0.0)
        for sl, steps in zip(slices, walks):
            if steps:  # none without a front, where g is None
                self._walk_back(steps, g[sl], False, totals)
        for layer, total in totals.items():
            # numpy copies total first, as the two overlap
            np.copyto(layer.d_kernels.reshape(layer.out_channels, -1), total.T)
        return loss, probs

    def _walk_back(self, steps, g, input_grad, totals):
        """From g, the gradient of the last step's output, run each step's
        backward, last first, dropping what it kept once it has run; return
        the gradient of the first step's input when input_grad.

        A conv in totals sums its gradients there (see Conv.backward).  A
        conv that kept None rebuilds its input, the output of the conv->ReLU
        before it, from that conv's kept input, and hands it to the ReLU's
        step too, so the pair runs forward once more.
        """
        while steps:
            layer, kept = steps.pop()
            if kept is None:
                (relu, _), (conv, x) = steps[-1], steps[-2]
                kept = relu.forward(conv.forward(x))
                steps[-1] = (relu, kept)
            needed = bool(steps) or input_grad
            if isinstance(layer, Conv):
                g = layer.backward(g, kept, needed, totals.get(layer))
            elif isinstance(layer, Dense):
                g = layer.backward(g, kept, needed)
            elif needed:
                g = layer.backward(g, kept)
        return g


def _forward_keeping(layers, a, steps):
    """Output of layers run on a; appends to steps (layer, what its backward reads).

    That is the layer's input, or a pool's record, which also does the
    backward of a ReLU feeding it: that ReLU has no step, and the pair's
    input is dropped once pooled.  A conv->ReLU output that feeds a conv,
    where the first conv kept its input, is kept by neither the ReLU nor
    the second conv: both keep None, and _walk_back rebuilds it.
    """
    for layer in layers:
        out = layer.forward(a)
        if isinstance(layer, MaxPool):
            after_relu = bool(steps) and isinstance(steps[-1][0], Relu)
            if after_relu:
                steps.pop()
            steps.append((layer, layer.record(a, out, after_relu)))
        elif (isinstance(layer, Conv) and len(steps) > 1 and isinstance(steps[-1][0], Relu)
              and isinstance(steps[-2][0], Conv) and steps[-2][1] is not None):
            steps[-1] = (steps[-1][0], None)
            steps.append((layer, None))
        else:
            steps.append((layer, a))
        a = out
    return a


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
    batch of one; the differences are of its loss, probs.log_loss.
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
        return log_loss(network.forward(x), [true_class])

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
    lr * grads is formed in network.grads itself, which holds it afterwards;
    the next backward overwrites every gradient.
    """
    if learning_rate <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {learning_rate}")
    if not 0 <= momentum < 1:
        raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
    grads = network.grads
    # min and max are non-finite when any element is, without a bool per parameter
    if grads.size and not np.isfinite([grads.min(), grads.max()]).all():
        first = np.isfinite(grads).argmin()
        name = next(name for name, stop in network.layout if first < stop)
        raise TrainingError(f"non-finite gradient in {name}")
    velocity *= momentum
    np.multiply(grads, learning_rate, out=grads)
    velocity -= grads
    network.params += velocity
