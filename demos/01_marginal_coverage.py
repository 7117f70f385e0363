"""Split conformal from scratch: thresholds, sets, and the coverage law.

Calibrates on fresh draws from a three-class gaussian mixture, builds
prediction sets at a few miscoverage levels, then repeats the split
many times to compare the spread of empirical coverage against the
closed-form Beta law it follows.

Run with: python demos/01_marginal_coverage.py
"""

import numpy as np

from robustcp.scores import conformal_quantile, coverage_distribution, evaluate_sets
from robustcp.smoothing import substream, subseed
from robustcp.tasks import make_gaussian_mixture, oracle_for

task = make_gaussian_mixture(n_classes=3, dim=4, separation=2.0, noise=1.0, seed=7)
score = oracle_for(task, "tps")  # (points, rng) -> (n, classes) class probabilities
N_CAL, N_TEST, ALPHA = 100, 500, 0.1

# One split end to end.  The conformal threshold is the k-th smallest
# calibration score with k = floor(alpha * (n + 1)); every class whose
# score clears it joins the set, so the sets of all test points are one
# boolean (points, classes) mask.
rng_seed = 0
x_cal, y_cal = task.sample(N_CAL, substream(rng_seed, "cal"))
x_test, y_test = task.sample(N_TEST, substream(rng_seed, "test"))
cal_matrix = score(x_cal, substream(rng_seed, "score-cal"))
test_matrix = score(x_test, substream(rng_seed, "score-test"))
cal_scores = cal_matrix[np.arange(N_CAL), y_cal]

print("one split, three miscoverage levels")
for alpha in (0.05, 0.1, 0.25):
    q = conformal_quantile(cal_scores, alpha)
    report = evaluate_sets(test_matrix >= q, y_test)
    print(
        f"  alpha={alpha:<5} threshold {q:.4f}  coverage {report.empirical_coverage:.3f}"
        f"  avg size {report.average_set_size:.2f}"
        f"  singleton hits {report.singleton_hit_ratio:.3f}"
    )

# Coverage conditional on the calibration draw is Beta distributed:
# Beta(n + 1 - l, l) with l = floor((n + 1) * alpha).  Re-running the
# split shows the spread the law predicts; it does not shrink with more
# test points, only with more calibration points.
law = coverage_distribution(N_CAL, ALPHA)
print(f"\ncoverage law at n={N_CAL}, alpha={ALPHA}: "
      f"Beta({law.shape_a:.0f}, {law.shape_b:.0f}), mean {law.mean:.5f}")

coverages = []
for trial in range(300):
    seed = subseed(1, "trial", trial)
    xc, yc = task.sample(N_CAL, substream(seed, "cal"))
    xt, yt = task.sample(N_TEST, substream(seed, "test"))
    cm = score(xc, substream(seed, "score-cal"))
    tm = score(xt, substream(seed, "score-test"))
    q = conformal_quantile(cm[np.arange(N_CAL), yc], ALPHA)
    coverages.append(evaluate_sets(tm >= q, yt).empirical_coverage)
coverages = np.array(coverages)

print(f"300 fresh splits: mean coverage {coverages.mean():.5f} "
      f"(law says {law.mean:.5f}), std {coverages.std():.4f}")
for q in (0.1, 0.5, 0.9):
    print(f"  empirical {q:.0%} quantile {np.quantile(coverages, q):.4f}   "
          f"law cdf there {law.cdf(float(np.quantile(coverages, q))):.3f}")
