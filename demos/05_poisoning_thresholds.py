"""Poisoning-robust calibration thresholds and their witnesses.

If an adversary controlled up to k calibration points, the conformal
threshold itself is suspect.  The defense lowers the threshold to its
worst case over every way of altering at most k points; the search over
ranks is exact and returns a witness (which points move, and where)
that replays to the same threshold.

Run with: python demos/05_poisoning_thresholds.py
"""

import numpy as np

from robustcp.attacks import poison_labels_attack
from robustcp.poisoning import (
    feature_poison_threshold,
    label_poison_threshold,
    replay_feature_witness,
    replay_label_witness,
    worst_case_label_quantile,
)
from robustcp.scores import conformal_quantile, evaluate_sets
from robustcp.smoothing import substream
from robustcp.tasks import make_gaussian_mixture, oracle_for

ALPHA = 0.1
task = make_gaussian_mixture(n_classes=3, dim=4, separation=2.0, noise=1.0, seed=7)
score = oracle_for(task, "tps")
x_cal, y_cal = task.sample(100, substream(2, "cal"))
x_test, y_test = task.sample(400, substream(2, "test"))
cal_matrix = score(x_cal, substream(2, "score-cal"))
test_matrix = score(x_test, substream(2, "score-test"))
observed = cal_matrix[np.arange(len(y_cal)), y_cal]

# Feature poisoning: each score could have been anywhere above a
# certified lower bound (here a synthetic one for illustration).
lower = np.clip(observed - 0.08, 0.0, None)
print("feature poisoning, threshold vs budget")
for k in (0, 1, 2, 4):
    res = feature_poison_threshold(observed, lower, k, ALPHA)
    replayed = replay_feature_witness(observed, res.witness, ALPHA)
    assert replayed == res.threshold
    print(f"  k={k}: threshold {res.threshold:.4f} at rank {res.rank}, "
          f"witness moves points {list(res.witness.indices)}")

# Label poisoning: a flipped label swaps which row entry counts, so the
# worst case drops a point's score to its row minimum.
print("\nlabel poisoning, defense vs attack at the same budget")
for k in (0, 1, 2):
    defend = label_poison_threshold(cal_matrix, y_cal, k, ALPHA)
    attack = worst_case_label_quantile(cal_matrix, y_cal, k, ALPHA)
    assert replay_label_witness(cal_matrix, y_cal, defend.witness, ALPHA) == defend.threshold
    print(f"  k={k}: conservative threshold {defend.threshold:.4f}   "
          f"attacker can push the naive quantile up to {attack.threshold:.4f}")

# Simulate the actual attack: the attacker flips k labels, the defender
# calibrates on the poisoned labels it received.
print("\ncoverage on clean test data after an actual k-flip attack")
for k in (0, 1, 2, 4):
    poisoned, _ = poison_labels_attack(cal_matrix, y_cal, k, ALPHA)
    poisoned_scores = cal_matrix[np.arange(len(y_cal)), poisoned]
    naive = conformal_quantile(poisoned_scores, ALPHA)
    robust = label_poison_threshold(cal_matrix, poisoned, k, ALPHA).threshold
    cov = lambda thr: evaluate_sets(test_matrix >= thr, y_test).empirical_coverage
    print(f"  k={k}: naive coverage {cov(naive):.3f}   robust coverage {cov(robust):.3f}")
