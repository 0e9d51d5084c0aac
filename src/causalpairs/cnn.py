"""Five-stage CNN over scatter images: build, train, predict, persist.

Each stage is conv-relu-conv-relu-pool (3x3 same convolutions, 2x2 pool),
five stages in a row, then dense 1024 -> relu -> dense 512 -> relu ->
dense 25 -> dense 3, under nnet.Network's softmax.  Image intensities are
fed as darkness/255.

train_cnn and predict_batch take the images as the uint8 [N, side, side]
stack that raster.rasterize_all returns, uncopied, and make network input
of one batch at a time: a training mini-batch, a validation batch of the
training batch size or a scoring batch of 64, whose rows the dense layers
see together.

The layers are float32 end to end: parameters, inputs, activations and
gradients (DTYPE, fixed here and nowhere else).  _layers declares the
stack once; build_network and the model-file loader each give it to
nnet.Network with DTYPE, the first with its seeded generator, which draws
the weights straight into the float32 params vector.  The softmax
computes in float64, so class probabilities are float64.  Training
updates the network's flat params vector with one velocity vector, and
keeps the epoch of lowest validation log-loss as one copy of it; model
files store that vector as it is, and a loaded model's params are the
array read from its file.
"""

import hashlib
import math
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import modelfile, nnet
from .errors import (
    ConfigurationError,
    InputError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .probs import LABEL_TO_CLASS, check_probs, label_classes, log_loss
from .seeding import derive_seed, make_rng

DEFAULT_CHANNEL_PLAN = ((32, 32), (64, 64), (128, 128), (256, 256), (256, 256))
DENSE_UNITS = (1024, 512, 25)
OUTPUT_UNITS = 3
N_STAGES = 5
DTYPE = np.float32


@dataclass(frozen=True)
class CnnArchitecture:
    stages: tuple
    dense_units: tuple = DENSE_UNITS
    output_units: int = OUTPUT_UNITS
    input_side: int = 200

    def __post_init__(self):
        if len(self.stages) != N_STAGES or any(len(s) != 2 for s in self.stages):
            raise ConfigurationError(f"exactly {N_STAGES} stages of two channel counts required")
        if type(self.output_units) is not int or self.output_units != 3:
            raise ConfigurationError("output layer must have 3 units")
        sizes = [self.input_side, *self.dense_units, *(c for s in self.stages for c in s)]
        # five poolings must leave a side of at least 1
        if not all(type(v) is int and v > 0 for v in sizes) or self.input_side < 32:
            raise ConfigurationError(f"sizes {sizes} must be positive ints, input side >= 32")

    def flatten_length(self) -> int:
        # five floor-halving poolings leave a side of input_side // 32
        return (self.input_side // 32) ** 2 * self.stages[-1][1]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        # both checks written so that NaN fails too
        if not 0 < self.learning_rate < math.inf:
            raise ConfigurationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if not 0 <= self.momentum < 1:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("batch_size and epochs must be >= 1")


def _layers(arch: CnnArchitecture) -> list:
    """The layers of arch, in stack order; a Network allocates their parameters."""
    layers = []
    in_ch = 1
    for a, b in arch.stages:
        layers += [nnet.Conv(in_ch, a), nnet.Relu(), nnet.Conv(a, b), nnet.Relu(), nnet.MaxPool()]
        in_ch = b
    layers.append(nnet.Flatten())
    n_in = arch.flatten_length()
    for i, units in enumerate(arch.dense_units):
        layers.append(nnet.Dense(n_in, units))
        if i < 2:
            layers.append(nnet.Relu())
        n_in = units
    layers.append(nnet.Dense(n_in, arch.output_units))
    return layers


def build_network(arch: CnnArchitecture, seed: int) -> nnet.Network:
    """The layer stack of arch in DTYPE, with seeded Glorot-uniform weights."""
    return nnet.Network(_layers(arch), DTYPE, make_rng(derive_seed(seed, "init")))


@dataclass
class CnnModel:
    network: nnet.Network
    arch: CnnArchitecture
    train_config: dict = field(default_factory=dict)
    data_checksum: str = ""


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: float
    val_log_loss: float


def _classes(pixels, labels, side) -> np.ndarray:
    """Class indices of labels, one per image of an [N, side, side] stack."""
    if pixels.shape != (len(labels), side, side):
        raise ShapeError(f"{len(labels)} labels for images {pixels.shape} at model side {side}")
    return label_classes(labels)


def _inputs(pixels) -> np.ndarray:
    """DTYPE [N, 1, side, side] input of a uint8 [N, side, side] batch: darkness / 255."""
    x = pixels[:, None].astype(DTYPE)
    x /= 255
    return x


def _predict_classes(network, pixels, batch_size=64):
    """[N, 3] probabilities of a pixel stack, batch_size images per forward pass."""
    outs = []
    # at least one batch, so that an empty stack goes through the network too
    for start in range(0, max(len(pixels), 1), batch_size):
        outs.append(network.forward(_inputs(pixels[start : start + batch_size])))
    return np.concatenate(outs, axis=0)


def train_cnn(pixels, labels, arch: CnnArchitecture, cfg: TrainConfig,
              val_pixels=(), val_labels=()):
    """Mini-batch SGD with momentum on a uint8 [N, side, side] image stack and its labels.

    Keeps the parameters from the epoch with the lowest validation log-loss
    (earlier epoch wins ties); with no validation images the final epoch is
    kept.  A non-finite training or validation loss raises TrainingError.
    Returns (CnnModel, [EpochMetrics]).
    """
    if not len(pixels):
        raise ValidationError("training set is empty")
    side = arch.input_side
    cls = _classes(pixels, labels, side)
    validate = len(val_pixels) > 0
    if validate:
        val_cls = _classes(val_pixels, val_labels, side)
    network = build_network(arch, cfg.seed)
    velocity = np.zeros_like(network.params)
    n = len(pixels)
    history = []
    best_loss = np.inf
    best_params = None
    for epoch in range(cfg.epochs):
        order = np.arange(n)
        rng = make_rng(derive_seed(cfg.seed, "epoch", epoch))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, cb = _inputs(pixels[idx]), cls[idx]
            loss, probs = network.loss_and_backward(xb, cb)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            epoch_correct += int((probs.argmax(axis=1) == cb).sum())
            epoch_loss += loss * len(idx)
            nnet.sgd_step(network, velocity, cfg.learning_rate, cfg.momentum)
        if validate:
            val_probs = _predict_classes(network, val_pixels, cfg.batch_size)
            val_acc = float((val_probs.argmax(axis=1) == val_cls).mean())
            val_loss = log_loss(val_probs, val_cls)
            if not np.isfinite(val_loss):
                raise TrainingError(f"non-finite validation log-loss at epoch {epoch}")
        else:
            val_acc = val_loss = float("nan")
        history.append(
            EpochMetrics(epoch, epoch_loss / n, epoch_correct / n, val_acc, val_loss)
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = network.params.copy()
    if best_params is not None:
        network.params[...] = best_params
    model = CnnModel(
        network=network,
        arch=arch,
        train_config=asdict(cfg),
        data_checksum=_dataset_checksum(pixels, labels),
    )
    return model, history


def _dataset_checksum(pixels, labels) -> str:
    """SHA-256 over each image's label, side and pixel bytes, in order."""
    h = hashlib.sha256()
    for img, label in zip(pixels, labels):
        h.update(struct.pack("<iI", label, len(img)))
        h.update(img.tobytes())
    return h.hexdigest()


def predict_batch(model: CnnModel, pixels) -> np.ndarray:
    """[N, 3] class probabilities (columns p_1, p_0, p_-1) of a uint8 [N, side, side] stack."""
    side = model.arch.input_side
    if pixels.shape[1:] != (side, side):
        raise ShapeError(f"images {pixels.shape} do not match model side {side}")
    return check_probs(_predict_classes(model.network, pixels))


# ---------------------------------------------------------------------------
# Model file: a modelfile container of kind "cnn" holding the network's flat
# float32 params vector as its one "params" array.


def save_model(model: CnnModel, path) -> None:
    meta = {
        "arch": asdict(model.arch),
        "label_to_class": {str(k): v for k, v in LABEL_TO_CLASS.items()},
        "train_config": model.train_config,
        "data_checksum": model.data_checksum,
    }
    modelfile.write(path, "cnn", meta, {"params": model.network.params})


def load_model(path) -> CnnModel:
    """Read a CNN model file; malformed or inconsistent content raises InputError."""
    _, meta, arrays = modelfile.read(path, "cnn")
    return model_from_file(path, meta, arrays)


def model_from_file(path, meta: dict, arrays: dict) -> CnnModel:
    """The CnnModel a model file's meta and arrays describe (see load_model)."""
    try:
        a = meta["arch"]
        arch = CnnArchitecture(**dict(
            a, stages=tuple(tuple(s) for s in a["stages"]), dense_units=tuple(a["dense_units"])
        ))
        label_to_class = {int(k): v for k, v in meta["label_to_class"].items()}
        train_config, data_checksum = meta["train_config"], meta["data_checksum"]
        params = arrays["params"]
    except (ValueError, KeyError, TypeError, AttributeError, ConfigurationError) as exc:
        raise InputError(f"{path}: bad CNN model metadata: {exc}") from exc
    layers = _layers(arch)
    # counted from the declared shapes, before any parameter is allocated
    n_params = nnet.n_params(layers)
    if params.shape != (n_params,):
        raise InputError(f"{path}: {params.shape} CNN parameters, the arch needs {n_params}")
    if params.dtype != DTYPE:
        raise InputError(
            f"{path}: {params.dtype} CNN parameters, this version stores float32;"
            " retrain the model with this version"
        )
    if label_to_class != LABEL_TO_CLASS:
        raise InputError(f"{path}: CNN model label mapping {label_to_class} is not the fixed one")
    # the file's own array becomes params: a loaded model holds one copy
    return CnnModel(nnet.Network(layers, DTYPE, params=params), arch, train_config, data_checksum)
