"""Scatter-plot rasterization of a pair instance onto an m x m grid.

Two encoding regimes:

* occupancy mode (either attribute numerical): a cell is 255 iff at least
  one observation lands in it, else 0;
* frequency mode (both attributes categorical/binary): cell intensity is
  the min-max normalized occurrence count over occupied cells, mapped to
  0..255; never-occupied cells stay 0.  When the category grids are
  smaller than m, the k x k cell block is enlarged to the full canvas by
  nearest-neighbor replication.

In-memory orientation: ``pixels[row, col] == pixels[y_bin, x_bin]`` with
bin 0 first, and intensity IS darkness (255 darkest).  The PGM writer flips
rows (top row = highest y bin) and inverts bytes so plots render
dark-on-white.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import AttributeKind, PairInstance
from .errors import ConfigurationError, ParseError, ValidationError

DEFAULT_SIDE = 200


@dataclass(frozen=True)
class ScatterImage:
    """m x m grid of uint8 intensities, pixels[y_bin, x_bin], 255 = darkest.

    pixels is kept as a read-only contiguous uint8 copy; m is its side.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.array(self.pixels, dtype=np.uint8, order="C")
        if px.ndim != 2 or px.shape[0] != px.shape[1]:
            raise ValidationError(f"pixel grid {px.shape} is not square")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def m(self) -> int:
        return self.pixels.shape[0]


def discretize(values: np.ndarray, m: int, kind: AttributeKind) -> np.ndarray:
    """Map values to bin indices in [0, m-1].

    Numerical: equal-width bins over [vmin, vmax], for any finite values;
    a constant vector maps to bin 0.  Categorical/binary: category k goes to bin k, modulo m when
    there are more than m categories.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValidationError("cannot discretize an empty vector")
    if m < 2:
        raise ConfigurationError(f"bin count m must be >= 2, got {m}")
    if kind is AttributeKind.NUMERICAL:
        # Python floats: a span beyond float64 becomes inf without a warning
        vmin = float(values.min())
        vmax = float(values.max())
        if vmax == vmin:
            return np.zeros(values.shape, dtype=np.int64)
        span = vmax - vmin
        if span == np.inf:
            # halve the operands; a finite span keeps its bits below
            values, vmin, span = values / 2, vmin / 2, vmax / 2 - vmin / 2
        bins = np.floor((values - vmin) / span * m).astype(np.int64)
        return np.minimum(bins, m - 1)
    cats = values.astype(np.int64)
    if cats.max() + 1 <= m:
        return cats
    return cats % m


def _frequency_grid(xb, yb, kx, ky) -> np.ndarray:
    counts = np.zeros((ky, kx), dtype=np.int64)
    np.add.at(counts, (yb, xb), 1)
    occupied = counts > 0
    fmin = counts[occupied].min()
    fmax = counts[occupied].max()
    grid = np.zeros((ky, kx), dtype=np.uint8)
    if fmax == fmin:
        grid[occupied] = 255
    else:
        scaled = 255.0 * (counts[occupied] - fmin) / (fmax - fmin)
        grid[occupied] = np.floor(scaled + 0.5).astype(np.uint8)
    return grid


def rasterize(instance: PairInstance, m: int) -> ScatterImage:
    """Render a pair instance as an m x m ScatterImage under the two regimes."""
    xb = discretize(instance.x, m, instance.x_kind)
    yb = discretize(instance.y, m, instance.y_kind)
    frequency_mode = (
        instance.x_kind is not AttributeKind.NUMERICAL
        and instance.y_kind is not AttributeKind.NUMERICAL
    )
    if frequency_mode:
        kx = int(xb.max()) + 1
        ky = int(yb.max()) + 1
        grid = _frequency_grid(xb, yb, kx, ky)
        # Nearest-neighbor enlargement of the k x k block to the full canvas.
        rows = (np.arange(m) * ky) // m
        cols = (np.arange(m) * kx) // m
        pixels = grid[np.ix_(rows, cols)]
    else:
        pixels = np.zeros((m, m), dtype=np.uint8)
        pixels[yb, xb] = 255
    return ScatterImage(pixels)


def write_image(image: ScatterImage, path) -> None:
    """Write a binary PGM: ``P5\\n<m> <m>\\n255\\n`` + m*m payload bytes.

    Payload is row-major, top row first (top = highest y bin) and inverted
    (byte = 255 - pixel) so images view dark-on-white.
    """
    header = f"P5\n{image.m} {image.m}\n255\n".encode("ascii")
    payload = (255 - image.pixels[::-1, :]).tobytes()
    try:
        with open(path, "wb") as f:
            f.write(header)
            f.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write image {path}: {exc}") from exc


def read_image(path) -> ScatterImage:
    """Read a PGM written by write_image; exact inverse round-trip."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise OSError(f"cannot read image {path}: {exc}") from exc
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ParseError("not a binary PGM produced by this package", path=str(path))
    dims = parts[1].split()
    if len(dims) != 2 or dims[0] != dims[1] or parts[2] != b"255":
        raise ParseError("unsupported PGM header", path=str(path))
    m = int(dims[0]) if dims[0].isdigit() else 0
    if m < 1:
        raise ParseError(f"PGM side {dims[0]!r} is not a positive integer", path=str(path))
    payload = parts[3]
    if len(payload) != m * m:
        raise ParseError(
            f"payload length {len(payload)} does not match {m}x{m}", path=str(path)
        )
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(m, m)
    return ScatterImage((255 - raw)[::-1, :])
