"""Five-stage CNN over scatter images: build, train, predict, persist.

Each stage is conv-relu-conv-relu-pool (3x3 same convolutions, 2x2 pool),
five stages in a row, then dense 1024 -> relu -> dense 512 -> relu ->
dense 25 -> dense 3 -> softmax.  Image intensities are fed as darkness/255.
"""

import hashlib
import io
import json
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import nnet
from .errors import (
    ConfigurationError,
    InputError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .probs import CLASS_TO_LABEL, LABEL_TO_CLASS, ProbTriple
from .raster import ScatterImage
from .seeding import derive_seed, make_rng

DEFAULT_CHANNEL_PLAN = ((32, 32), (64, 64), (128, 128), (256, 256), (256, 256))
DENSE_UNITS = (1024, 512, 25)
OUTPUT_UNITS = 3
N_STAGES = 5


@dataclass(frozen=True)
class CnnArchitecture:
    stages: tuple
    dense_units: tuple = DENSE_UNITS
    output_units: int = OUTPUT_UNITS
    input_side: int = 200

    def __post_init__(self):
        if len(self.stages) != N_STAGES:
            raise ConfigurationError(f"exactly {N_STAGES} stages required")
        if self.output_units != 3:
            raise ConfigurationError("output layer must have 3 units")

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
    deterministic: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("batch_size and epochs must be >= 1")


def build_paper_arch(input_side: int, channel_plan=DEFAULT_CHANNEL_PLAN) -> CnnArchitecture:
    """Architecture for a given input side; five poolings must leave side >= 1."""
    if input_side < 32:
        raise ConfigurationError(f"input_side must be >= 32, got {input_side}")
    plan = tuple((int(a), int(b)) for a, b in channel_plan)
    if len(plan) != N_STAGES or any(a < 1 or b < 1 for a, b in plan):
        raise ConfigurationError(f"channel plan needs {N_STAGES} pairs of positive ints")
    return CnnArchitecture(stages=plan, input_side=input_side)


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


def build_network(arch: CnnArchitecture, seed: int) -> nnet.Network:
    """Instantiate the layer stack with seeded Glorot-uniform weights."""
    rng = make_rng(derive_seed(seed, "init"))
    layers = []
    for kind, *dims in _layer_plan(arch):
        layer_type = nnet.LAYER_TYPES[kind]
        layers.append(layer_type(*dims, rng) if dims else layer_type())
    return nnet.Network(layers)


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


def _to_input(image: ScatterImage, side: int) -> np.ndarray:
    if image.m != side:
        raise ShapeError(f"image side {image.m} does not match model side {side}")
    return image.pixels.astype(np.float64) / 255.0


def _stack_images(pairs, side):
    xs = np.empty((len(pairs), 1, side, side), dtype=np.float64)
    cls = np.empty(len(pairs), dtype=np.int64)
    for i, (img, label) in enumerate(pairs):
        xs[i, 0] = _to_input(img, side)
        if label not in LABEL_TO_CLASS:
            raise ValidationError(f"label {label} not in {{1,0,-1}}")
        cls[i] = LABEL_TO_CLASS[label]
    return xs, cls


def _accuracy_from_probs(probs, cls):
    return float((probs.argmax(axis=1) == cls).mean()) if len(cls) else 0.0


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
    best_blob = None
    for epoch in range(cfg.epochs):
        order = np.arange(n)
        rng = make_rng(derive_seed(cfg.seed, "epoch", epoch))
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, cb = xs[idx], cls[idx]
            loss = network.loss_and_backward(xb, cb)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            probs = network.layers[-1]._probs
            epoch_correct += int((probs.argmax(axis=1) == cb).sum())
            epoch_loss += loss * len(idx)
            nnet.sgd_step(params, network.gradients(), velocities,
                          cfg.learning_rate, cfg.momentum)
        if val:
            val_probs = _predict_classes(network, val_xs)
            val_acc = _accuracy_from_probs(val_probs, val_cls)
        else:
            val_acc = float("nan")
        history.append(
            EpochMetrics(epoch, epoch_loss / n, epoch_correct / n, val_acc)
        )
        if val and val_acc > best_val:
            best_val = val_acc
            best_blob = nnet.network_to_bytes(network)
    if best_blob is not None:
        network = nnet.network_from_bytes(best_blob)
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


def predict_batch(model: CnnModel, images) -> list[ProbTriple]:
    side = model.arch.input_side
    xs = np.empty((len(images), 1, side, side), dtype=np.float64)
    for i, img in enumerate(images):
        xs[i, 0] = _to_input(img, side)
    probs = _predict_classes(model.network, xs)
    return [ProbTriple.from_array(row) for row in probs]


def predict_cnn(model: CnnModel, image: ScatterImage) -> ProbTriple:
    """Class probabilities for one image; pure function of (model, image)."""
    return predict_batch(model, [image])[0]


# ---------------------------------------------------------------------------
# Model file: serialized network + length-prefixed JSON metadata block.

MODEL_MAGIC = b"CPBM"
MODEL_VERSION = 1
# magic, version, metadata length, network length
_HEADER = struct.Struct("<4sIQQ")


def save_model(model: CnnModel, path) -> None:
    meta = {
        "arch": {
            "stages": [list(s) for s in model.arch.stages],
            "dense_units": list(model.arch.dense_units),
            "output_units": model.arch.output_units,
            "input_side": model.arch.input_side,
        },
        "label_to_class": {str(k): v for k, v in model.label_to_class.items()},
        "train_config": model.train_config,
        "data_checksum": model.data_checksum,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    net_bytes = nnet.network_to_bytes(model.network)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, len(meta_bytes), len(net_bytes)))
        f.write(meta_bytes)
        f.write(net_bytes)


def load_model(path) -> CnnModel:
    """Read a CPBM v1 file; malformed or inconsistent content raises InputError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MODEL_MAGIC:
        raise InputError(f"{path}: not a CNN model file")
    if len(data) < _HEADER.size:
        raise InputError(f"{path}: truncated CNN model file")
    _, version, meta_len, net_len = _HEADER.unpack_from(data)
    if version != MODEL_VERSION:
        raise InputError(f"{path}: unsupported model version {version}")
    meta_end = _HEADER.size + meta_len
    if meta_end + net_len != len(data):
        raise InputError(
            f"{path}: truncated CNN model file" if meta_end + net_len > len(data)
            else f"{path}: trailing bytes after CNN model network"
        )
    try:
        network = nnet.network_from_bytes(data[meta_end:])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    try:
        meta = json.loads(data[_HEADER.size : meta_end].decode("utf-8"))
        a = meta["arch"]
        arch = CnnArchitecture(
            stages=tuple(tuple(s) for s in a["stages"]),
            dense_units=tuple(a["dense_units"]),
            output_units=a["output_units"],
            input_side=a["input_side"],
        )
        sizes = [
            arch.input_side, arch.output_units, *arch.dense_units,
            *(c for s in arch.stages for c in s),
        ]
        if not all(type(v) is int and v > 0 for v in sizes):
            raise ValueError(f"architecture sizes {sizes} are not positive integers")
        consistent = _layer_plan(arch) == [
            (layer.kind, *nnet.layer_dims(layer)) for layer in network.layers
        ]
        model = CnnModel(
            network=network,
            arch=arch,
            label_to_class={int(k): v for k, v in meta["label_to_class"].items()},
            train_config=meta["train_config"],
            data_checksum=meta["data_checksum"],
        )
    except (ValueError, KeyError, TypeError, AttributeError, ConfigurationError) as exc:
        raise InputError(f"{path}: bad CNN model metadata: {exc}") from exc
    if not consistent or model.label_to_class != LABEL_TO_CLASS:
        raise InputError(
            f"{path}: CNN model metadata does not match its layers or the label mapping"
        )
    return model
