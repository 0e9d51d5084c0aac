"""Extract the 43 statistical features and fit the boosted-tree classifier.

Run:  python demos/03_features_and_boosting.py
"""

import numpy as np

from causalpairs.boosting import GbcConfig, gbc_fit, gbc_predict_batch
from causalpairs.ensemble import accuracy, auc_bidirectional, predict_labels
from causalpairs.features import FEATURE_NAMES, extract_features, feature_matrix
from causalpairs.synth import generate_benchmark

insts = generate_benchmark(300, n_obs_range=(300, 300), seed=31)
# the generator emits each mechanism as one block, so shuffle before the cut
order = np.random.default_rng(31).permutation(len(insts))
train, test = [insts[i] for i in order[:240]], [insts[i] for i in order[240:]]

vec = extract_features(train[0])
print(f"{len(FEATURE_NAMES)} features per pair; a few of them:")
for name in ("pearson", "condstd_mean_xy", "condstd_mean_yx", "resvar_xy", "resvar_yx"):
    print(f"  {name:18s} = {vec[FEATURE_NAMES.index(name)]:+.4f}")

# directional features come in xy/yx twins: the asymmetry between the two
# fits is what carries the causal signal for additive-noise data
cfg = GbcConfig(n_estimators=120, max_depth=4, min_samples_split=4)
model = gbc_fit(feature_matrix(train), [i.label for i in train], cfg)
print(f"\nboosting: {cfg.n_estimators} rounds x 3 class trees, "
      f"logloss {model.train_logloss[0]:.3f} -> {model.train_logloss[-1]:.3f}")

# one row per pair, columns p_1, p_0, p_-1
probs = gbc_predict_batch(model, feature_matrix(test))
truths = [i.label for i in test]
preds = predict_labels(probs)
print(f"held out: accuracy={accuracy(preds, truths):.3f} "
      f"auc={auc_bidirectional(probs, truths):.3f}")
