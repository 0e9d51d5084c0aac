"""Pairwise causal direction inference.

Given joint observations of two attributes, decide whether the first
causes the second (label 1), the second causes the first (-1), or neither
(0).  Two classifiers are provided -- a CNN over scatter-plot images and a
gradient boosted tree over statistical features -- together with their
weighted probability ensemble, evaluation metrics, synthetic data
generation, and a reproducible CLI.
"""

__version__ = "0.1.0"

from .dataset import (
    AttributeKind,
    PairInstance,
    SplitSpec,
    augment_all,
    augment_swap,
    parse_pairs,
    split,
)
from .ensemble import (
    accuracy,
    auc_bidirectional,
    ensemble,
    predict_labels,
    tune_weight,
)
from .raster import RasterConfig, ScatterImage, discretize, rasterize, read_image, write_image
from .synth import GenSpec, Mechanism, generate, generate_benchmark

__all__ = [
    "AttributeKind",
    "PairInstance",
    "SplitSpec",
    "augment_all",
    "augment_swap",
    "parse_pairs",
    "split",
    "RasterConfig",
    "ScatterImage",
    "discretize",
    "rasterize",
    "read_image",
    "write_image",
    "accuracy",
    "auc_bidirectional",
    "ensemble",
    "predict_labels",
    "tune_weight",
    "GenSpec",
    "Mechanism",
    "generate",
    "generate_benchmark",
    "__version__",
]
