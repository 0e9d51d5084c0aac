"""The weighted ensemble and the two-direction ranking metric.

Run:  python demos/04_ensemble_and_auc.py
"""

import numpy as np

from causalpairs.ensemble import (
    WEIGHT_GRID,
    accuracy,
    auc_bidirectional_parts,
    ensemble,
    predict_labels,
    tune_weight,
)

rng = np.random.default_rng(3)

# two imperfect, complementary classifiers over 200 instances
truths = [int(l) for l in rng.choice([1, 0, -1], size=200, p=[0.3, 0.4, 0.3])]
def noisy_model(sharpness):
    """[200, 3] probabilities, one row per instance: columns p_1, p_0, p_-1."""
    out = np.empty((len(truths), 3))
    for i, t in enumerate(truths):
        target = {1: [3, 0, -3], 0: [0, 1.5, 0], -1: [-3, 0, 3]}[t]
        logits = np.array(target) * sharpness + rng.normal(scale=2.0, size=3)
        e = np.exp(logits - logits.max())
        out[i] = e / e.sum()
    return out

pc = noisy_model(0.7)   # "cnn"
pg = noisy_model(0.9)   # "gbc"

print("weight grid:", WEIGHT_GRID)
for name, probs in (("model A", pc), ("model B", pg)):
    auc, fwd, bwd = auc_bidirectional_parts(probs, truths)
    print(f"{name}: auc={auc:.3f} (forward {fwd:.3f} / backward {bwd:.3f})")

w = tune_weight(pc, pg, truths)
mixed = ensemble(pc, pg, w)
auc, _, _ = auc_bidirectional_parts(mixed, truths)
acc = accuracy(predict_labels(mixed), truths)
print(f"tuned w={w}: ensemble auc={auc:.3f} accuracy={acc:.3f}")
print("the tuned mix has a tuning-set log-loss no higher than either model alone")
