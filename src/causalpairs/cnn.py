"""Five-stage CNN over scatter images: build, train, predict, persist.

Each stage is conv-relu-conv-relu-pool (3x3 same convolutions, 2x2 pool),
five stages in a row, then dense 1024 -> relu -> dense 512 -> relu ->
dense 25 -> dense 3 -> softmax.  Image intensities are fed as darkness/255.

The network is float32 end to end: parameters, inputs, activations and
gradients (DTYPE, fixed here and nowhere else).  Its softmax computes in
float64, so class probabilities are float64.  Model files store the
parameters as float32.
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
from .probs import LABEL_TO_CLASS, check_probs
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

    def spatial_sides(self):
        """Side length after each pooling stage."""
        sides = []
        side = self.input_side
        for _ in range(N_STAGES):
            side //= 2
            sides.append(side)
        return sides

    def flatten_length(self) -> int:
        final_side = self.spatial_sides()[-1]
        return final_side * final_side * self.stages[-1][1]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 < self.learning_rate < math.inf:
            raise ConfigurationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("batch_size and epochs must be >= 1")


def build_paper_arch(input_side: int, channel_plan=DEFAULT_CHANNEL_PLAN) -> CnnArchitecture:
    """Architecture for a given input side and (in, out) channel pair per stage."""
    return CnnArchitecture(
        stages=tuple((int(a), int(b)) for a, b in channel_plan), input_side=input_side
    )


def _layer_plan(arch: CnnArchitecture) -> list:
    """(kind, *sizes) record of every layer, in stack order."""
    plan = []
    in_ch = 1
    for a, b in arch.stages:
        plan += [("conv", in_ch, a), ("relu",), ("conv", a, b), ("relu",), ("pool",)]
        in_ch = b
    plan.append(("flatten",))
    n_in = arch.flatten_length()
    for i, units in enumerate(arch.dense_units):
        plan.append(("dense", n_in, units))
        if i < 2:
            plan.append(("relu",))
        n_in = units
    plan += [("dense", n_in, arch.output_units), ("softmax",)]
    return plan


def _network(arch: CnnArchitecture, rng=None) -> nnet.Network:
    """The layer stack of arch in DTYPE: Glorot-uniform draws from rng, zeros without one."""
    layers = []
    for kind, *dims in _layer_plan(arch):
        layer_type = nnet.LAYER_TYPES[kind]
        layer = layer_type(*dims, rng) if dims else layer_type()
        for name, arr in layer.parameters():
            setattr(layer, name, arr.astype(DTYPE))
        layers.append(layer)
    return nnet.Network(layers)


def build_network(arch: CnnArchitecture, seed: int) -> nnet.Network:
    """Instantiate the layer stack with seeded Glorot-uniform weights."""
    return _network(arch, make_rng(derive_seed(seed, "init")))


@dataclass
class CnnModel:
    network: nnet.Network
    arch: CnnArchitecture
    label_to_class: dict = field(default_factory=lambda: dict(LABEL_TO_CLASS))
    train_config: dict = field(default_factory=dict)
    data_checksum: str = ""


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: float


def _input_stack(images, side) -> np.ndarray:
    """[N, 1, side, side] DTYPE network input: each image's darkness / 255."""
    xs = np.empty((len(images), 1, side, side), dtype=DTYPE)
    for i, img in enumerate(images):
        if img.m != side:
            raise ShapeError(f"image side {img.m} does not match model side {side}")
        xs[i, 0] = img.pixels.astype(DTYPE) / 255
    return xs


def _stack_images(pairs, side):
    """(network input, class indices) of (ScatterImage, label) pairs."""
    cls = np.empty(len(pairs), dtype=np.int64)
    for i, (_, label) in enumerate(pairs):
        if label not in LABEL_TO_CLASS:
            raise ValidationError(f"label {label} not in {{1,0,-1}}")
        cls[i] = LABEL_TO_CLASS[label]
    return _input_stack([img for img, _ in pairs], side), cls


def _predict_classes(network, xs, batch_size=64):
    outs = []
    for start in range(0, len(xs), batch_size):
        outs.append(network.forward(xs[start : start + batch_size]))
    return np.concatenate(outs, axis=0) if outs else np.empty((0, 3))


def train_cnn(train, val, arch: CnnArchitecture, cfg: TrainConfig):
    """Mini-batch SGD with momentum on (ScatterImage, label) pairs.

    Keeps the parameters from the epoch with the best validation accuracy
    (earlier epoch wins ties); with no validation data the final epoch is
    kept.  Returns (CnnModel, [EpochMetrics]).
    """
    if not train:
        raise ValidationError("training set is empty")
    side = arch.input_side
    xs, cls = _stack_images(train, side)
    if val:
        val_xs, val_cls = _stack_images(val, side)
    network = build_network(arch, cfg.seed)
    params = network.parameters()
    velocities = [np.zeros_like(arr) for _, arr in params]
    n = len(xs)
    history = []
    best_val = -1.0
    best_params = None
    for epoch in range(cfg.epochs):
        order = np.arange(n)
        rng = make_rng(derive_seed(cfg.seed, "epoch", epoch))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, cb = xs[idx], cls[idx]
            loss, probs = network.loss_and_backward(xb, cb)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            epoch_correct += int((probs.argmax(axis=1) == cb).sum())
            epoch_loss += loss * len(idx)
            nnet.sgd_step(params, network.gradients(), velocities,
                          cfg.learning_rate, cfg.momentum)
        if val:
            val_probs = _predict_classes(network, val_xs)
            val_acc = float((val_probs.argmax(axis=1) == val_cls).mean())
        else:
            val_acc = float("nan")
        history.append(
            EpochMetrics(epoch, epoch_loss / n, epoch_correct / n, val_acc)
        )
        if val and val_acc > best_val:
            best_val = val_acc
            best_params = network.flat_parameters()
    if best_params is not None:
        network.set_flat_parameters(best_params)
    model = CnnModel(
        network=network,
        arch=arch,
        train_config=asdict(cfg),
        data_checksum=_dataset_checksum(train),
    )
    return model, history


def _dataset_checksum(pairs) -> str:
    h = hashlib.sha256()
    for img, label in pairs:
        h.update(struct.pack("<iI", label, img.m))
        h.update(img.pixels.tobytes())
    return h.hexdigest()


def predict_batch(model: CnnModel, images) -> np.ndarray:
    """[N, 3] class probabilities (columns p_1, p_0, p_-1); pure in (model, images)."""
    xs = _input_stack(images, model.arch.input_side)
    return check_probs(_predict_classes(model.network, xs))


# ---------------------------------------------------------------------------
# Model file: a modelfile container of kind "cnn" holding every parameter as
# one flat float32 "params" array.


def save_model(model: CnnModel, path) -> None:
    meta = {
        "arch": asdict(model.arch),
        "label_to_class": {str(k): v for k, v in model.label_to_class.items()},
        "train_config": model.train_config,
        "data_checksum": model.data_checksum,
    }
    modelfile.write(path, "cnn", meta, {"params": model.network.flat_parameters()})


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
    plan = _layer_plan(arch)
    # counted from the conv and dense records, before any layer is allocated
    n_params = sum(
        n_out * (n_in * (9 if kind == "conv" else 1) + 1)
        for kind, n_in, n_out in (r for r in plan if len(r) == 3)
    )
    if params.shape != (n_params,):
        raise InputError(f"{path}: {params.shape} CNN parameters, the arch needs {n_params}")
    if params.dtype != DTYPE:
        raise InputError(
            f"{path}: {params.dtype} CNN parameters, this version stores float32;"
            " retrain the model with this version"
        )
    if label_to_class != LABEL_TO_CLASS:
        raise InputError(f"{path}: CNN model label mapping {label_to_class} is not the fixed one")
    network = _network(arch)
    network.set_flat_parameters(params)
    return CnnModel(network, arch, label_to_class, train_config, data_checksum)
