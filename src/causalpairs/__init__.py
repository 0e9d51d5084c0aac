"""Pairwise causal direction inference.

Given joint observations of two attributes, decide whether the first
causes the second (label 1), the second causes the first (-1), or neither
(0).  Two classifiers are provided -- a CNN over scatter-plot images and a
gradient boosted tree over statistical features -- together with their
weighted probability ensemble, evaluation metrics, synthetic data
generation, and a reproducible CLI.
"""

__version__ = "0.1.0"
