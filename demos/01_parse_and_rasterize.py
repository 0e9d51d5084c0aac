"""Walk through the corpus format and both scatter encodings.

Run:  python demos/01_parse_and_rasterize.py
Writes a handful of PGM scatter plots into demos/out/.
"""

from pathlib import Path

import numpy as np

from causalpairs.dataset import augment_swap, parse_pairs
from causalpairs.raster import rasterize, write_image

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# A corpus is three aligned files: observations, attribute kinds, labels.
pairs_text = (
    "alt-temp, 0.1 0.4 0.9 1.3 2.2 2.9 3.4 4.1, 9.8 9.1 8.4 7.7 6.1 5.2 4.4 3.0\n"
    "coin-die, 0 1 0 1 1 0 1 0, 3 1 4 1 5 2 6 2\n"
)
info_text = "alt-temp,num,num\ncoin-die,bin,cat\n"
target_text = "alt-temp,1\ncoin-die,0\n"

instances = parse_pairs(pairs_text, info_text, target_text)
for inst in instances:
    print(f"{inst.id}: kinds=({inst.x_kind.value},{inst.y_kind.value}) "
          f"label={inst.label} n={inst.n_obs}")

# An image is a read-only [m, m] uint8 array of darkness, row = y bin.
# Continuous pairs use occupancy encoding: a cell is dark iff hit.
numeric = instances[0]
img = rasterize(numeric, 64)
print(f"\nimage: {img.dtype} {img.shape}, writeable={img.flags.writeable}")
print(f"{numeric.id}: {np.count_nonzero(img)} occupied cells of {64 * 64}")
write_image(img, out / "numeric_pair.pgm")

# Categorical/binary pairs use frequency encoding: darkness follows the
# occurrence count, min-max normalized over occupied cells.
cat = instances[1]
img_cat = rasterize(cat, 64)
print(f"{cat.id}: intensity levels {sorted(set(img_cat.ravel().tolist()))}")
write_image(img_cat, out / "categorical_pair.pgm")

# Swapping the attributes transposes the image exactly -- the symmetry
# behind the label-negating augmentation.
swapped = rasterize(augment_swap(numeric), 64)
assert np.array_equal(swapped, img.T)
print("\nswap(instance) rasterizes to the exact transpose: verified")
print(f"wrote {out / 'numeric_pair.pgm'} and {out / 'categorical_pair.pgm'}")
