"""Pair corpus: parsing, splitting, and symmetry augmentation.

File formats (one row per instance, no headers):

* pairs file:  ``id,v1 v2 ... vn,w1 w2 ... wn`` -- the two observation
  vectors, space-separated within their comma-separated fields;
* info file:   ``id,kindA,kindB`` with kind tokens ``num``/``cat``/``bin``;
* target file: ``id,label`` with label in {1, 0, -1}.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigurationError,
    ConsistencyError,
    ParseError,
    ValidationError,
)
from .seeding import fisher_yates, make_rng

SWAP_SUFFIX = "~swap"


class AttributeKind(Enum):
    NUMERICAL = "num"
    CATEGORICAL = "cat"
    BINARY = "bin"


_KIND_TOKENS = {k.value: k for k in AttributeKind}


@dataclass(frozen=True)
class PairInstance:
    """One labeled pair: two aligned observation vectors and their kinds.

    label 1 means the first attribute causes the second, -1 the reverse,
    0 neither.  Vectors are float64 and frozen after construction; a
    categorical or binary vector holds non-negative integer codes below 2**53.
    """

    id: str
    x: np.ndarray
    y: np.ndarray
    x_kind: AttributeKind
    y_kind: AttributeKind
    label: int

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise ValidationError(f"instance {self.id}: observations must be vectors")
        if len(x) != len(y):
            raise ValidationError(
                f"instance {self.id}: length mismatch {len(x)} vs {len(y)}"
            )
        if len(x) == 0:
            raise ValidationError(f"instance {self.id}: empty observation vector")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError(f"instance {self.id}: non-finite observation")
        if self.label not in (1, 0, -1):
            raise ValidationError(f"instance {self.id}: label {self.label} not in {{1,0,-1}}")
        for name, vec, kind in (("x", x, self.x_kind), ("y", y, self.y_kind)):
            if kind is AttributeKind.NUMERICAL:
                continue
            # codes must survive the int64 cast of discretize
            if not np.array_equal(vec, np.round(vec)) or vec.min() < 0 or vec.max() >= 2.0**53:
                raise ValidationError(
                    f"instance {self.id}: {kind.value} attribute {name} must hold"
                    " non-negative integer codes below 2**53"
                )
            if kind is AttributeKind.BINARY and not np.isin(vec, (0.0, 1.0)).all():
                raise ValidationError(
                    f"instance {self.id}: binary attribute {name} has values outside {{0,1}}"
                )
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_obs(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.70
    val_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not (self.train_frac > 0 and self.val_frac > 0):
            raise ConfigurationError("split fractions must be positive")
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigurationError("train_frac + val_frac must be < 1")


def _encode_categories(values: np.ndarray) -> np.ndarray:
    """Map raw categorical values to 0,1,2,... in order of first appearance."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    codes = np.empty(len(first))
    codes[np.argsort(first)] = np.arange(len(first))
    return codes[inverse]


def _split_csv_row(row: str, n_fields: int, path: str, lineno: int) -> list[str]:
    fields = [f.strip() for f in row.split(",")]
    if len(fields) != n_fields:
        raise ParseError(
            f"expected {n_fields} comma-separated fields, got {len(fields)}",
            line=lineno,
            path=path,
        )
    return fields


def _parse_vector(text: str, path: str, lineno: int) -> np.ndarray:
    try:
        # numpy converts each token with float(): the same values and errors
        vec = np.array(text.split(), dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"bad observation value: {exc}", line=lineno, path=path)
    return vec


def _rows(source):
    """A file's rows, from its text (as str.splitlines splits it) or as given."""
    return source.splitlines() if isinstance(source, str) else source


def parse_pairs(pairs, info, target) -> list[PairInstance]:
    """Parse the three corpus files into PairInstances (pairs-file order).

    Each file is given as its text or as an iterable over its rows; the
    pairs rows are consumed one at a time, after the info and target rows.
    Categorical attributes are re-encoded to first-appearance integer codes;
    binary attributes must already be {0,1}-valued.
    """
    kinds = {}
    for lineno, row in enumerate(_rows(info), start=1):
        if not row.strip():
            continue
        pid, ka, kb = _split_csv_row(row, 3, "info", lineno)
        if ka not in _KIND_TOKENS or kb not in _KIND_TOKENS:
            raise ParseError(f"unknown kind token in {(ka, kb)}", line=lineno, path="info")
        if pid in kinds:
            raise ParseError(f"duplicate id {pid!r}", line=lineno, path="info")
        kinds[pid] = (_KIND_TOKENS[ka], _KIND_TOKENS[kb])

    labels = {}
    for lineno, row in enumerate(_rows(target), start=1):
        if not row.strip():
            continue
        pid, lab = _split_csv_row(row, 2, "target", lineno)
        if lab not in ("1", "0", "-1"):
            raise ParseError(f"label {lab!r} not in {{1,0,-1}}", line=lineno, path="target")
        if pid in labels:
            raise ParseError(f"duplicate id {pid!r}", line=lineno, path="target")
        labels[pid] = int(lab)

    instances = []
    seen = set()
    for lineno, row in enumerate(_rows(pairs), start=1):
        if not row.strip():
            continue
        pid, xs, ys = _split_csv_row(row, 3, "pairs", lineno)
        if pid in seen:
            raise ParseError(f"duplicate id {pid!r}", line=lineno, path="pairs")
        seen.add(pid)
        if pid not in kinds:
            raise ConsistencyError(f"id {pid!r} present in pairs but missing from info")
        if pid not in labels:
            raise ConsistencyError(f"id {pid!r} present in pairs but missing from target")
        x = _parse_vector(xs, "pairs", lineno)
        y = _parse_vector(ys, "pairs", lineno)
        if len(x) == 0 or len(y) == 0:
            raise ValidationError(f"instance {pid}: empty observation vector")
        # before encoding: np.unique would merge NaNs into one category
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError(f"instance {pid}: non-finite observation")
        x_kind, y_kind = kinds[pid]
        if x_kind is AttributeKind.CATEGORICAL:
            x = _encode_categories(x)
        if y_kind is AttributeKind.CATEGORICAL:
            y = _encode_categories(y)
        instances.append(PairInstance(pid, x, y, x_kind, y_kind, labels[pid]))

    for pid in kinds:
        if pid not in seen:
            raise ConsistencyError(f"id {pid!r} present in info but missing from pairs")
    for pid in labels:
        if pid not in seen:
            raise ConsistencyError(f"id {pid!r} present in target but missing from pairs")
    return instances


def _format_value(v: float) -> str:
    return repr(float(v))


def format_pairs(instances) -> tuple[str, str, str]:
    """Render instances back into (pairs, info, target) file texts.

    Values are written with shortest round-trip float formatting, so
    parse(format(x)) reproduces x exactly.
    """
    pairs_rows, info_rows, target_rows = [], [], []
    for inst in instances:
        xs = " ".join(_format_value(v) for v in inst.x)
        ys = " ".join(_format_value(v) for v in inst.y)
        pairs_rows.append(f"{inst.id},{xs},{ys}")
        info_rows.append(f"{inst.id},{inst.x_kind.value},{inst.y_kind.value}")
        target_rows.append(f"{inst.id},{inst.label}")
    return (
        "\n".join(pairs_rows) + "\n",
        "\n".join(info_rows) + "\n",
        "\n".join(target_rows) + "\n",
    )


def _file_rows(f):
    """Rows of the UTF-8 file f, open in binary mode, as str.splitlines() splits its text.

    Read line by line: b"\n" is always a row break and never part of another
    character.  A bad byte raises ParseError naming the file and its row.
    """
    n_rows = 0
    for raw in f:
        try:
            rows = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            # rows of this line that end before the bad byte, plus its own
            line = n_rows + len((raw[: exc.start].decode("utf-8") + ".").splitlines())
            raise ParseError(
                f"not UTF-8 text ({exc.reason})", line=line, path=str(f.name)
            ) from exc
        n_rows += len(rows)
        yield from rows


def read_pairs_files(pairs_path, info_path, target_path) -> list[PairInstance]:
    """parse_pairs over the three files, each streamed row by row."""
    # pairs rows run to tens of KB.  On glibc, freeing a 1 MiB buffer also
    # raises malloc's mmap threshold to 1 MiB, so later temporaries below it,
    # such as boosting's split-search arrays, reuse heap pages, not fresh maps.
    with (
        open(pairs_path, "rb", buffering=1 << 20) as pairs,
        open(info_path, "rb") as info,
        open(target_path, "rb") as target,
    ):
        return parse_pairs(_file_rows(pairs), _file_rows(info), _file_rows(target))


def write_pairs_files(instances, pairs_path, info_path, target_path) -> None:
    pairs_text, info_text, target_text = format_pairs(instances)
    for path, text in ((pairs_path, pairs_text), (info_path, info_text), (target_path, target_text)):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def split(instances, spec: SplitSpec):
    """Deterministic 3-way partition: (train, validation, test).

    Shuffles with a Fisher-Yates permutation driven by PCG64(spec.seed),
    then cuts floor(train_frac*n) / floor(val_frac*n) / remainder.
    """
    if not instances:
        raise ValidationError("cannot split an empty instance list")
    n = len(instances)
    perm = fisher_yates(n, make_rng(spec.seed))
    shuffled = [instances[i] for i in perm]
    n_train = int(np.floor(spec.train_frac * n))
    n_val = int(np.floor(spec.val_frac * n))
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


def augment_swap(instance: PairInstance) -> PairInstance:
    """Exchange the two attributes and negate the label."""
    return PairInstance(
        id=instance.id + SWAP_SUFFIX,
        x=instance.y,
        y=instance.x,
        x_kind=instance.y_kind,
        y_kind=instance.x_kind,
        label=-instance.label,
    )


def augment_all(instances) -> list[PairInstance]:
    """Each instance followed by its swapped twin; doubles the list."""
    out = []
    for inst in instances:
        out.append(inst)
        out.append(augment_swap(inst))
    return out
