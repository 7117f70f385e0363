"""Evasion end to end: smoothed calibration, attack, certified sets.

One split of the gaussian-mixture task.  Calibration smooths the
true-label score at every calibration point; at test time each point is
first attacked inside the L2 ball, then scored three ways: plain smooth
means (what an undefended pipeline would use), and prediction sets built
from certified upper bounds via the mean-only route and the binned-CDF
route.  The calibration also yields beta, a floor on the coverage
of the undefended sets under ANY attack in the ball.

Run with: python demos/04_evasion_pipeline.py
"""

import numpy as np
from dataclasses import replace

from robustcp.attacks import evade_l2
from robustcp.bounds import L2Ball, bound_batch
from robustcp.evasion import (
    EvasionConfig,
    calibrate_smooth,
    class_distributions,
    predict,
    vanilla_worst_case_coverage,
)
from robustcp.scores import evaluate_sets
from robustcp.smoothing import BinGrid, GaussianNoise, substream
from robustcp.tasks import make_gaussian_mixture, oracle_for

ALPHA, SIGMA, RADIUS, SEED = 0.1, 0.5, 0.25, 5

task = make_gaussian_mixture(n_classes=3, dim=4, separation=2.0, noise=1.0, seed=7)
oracle = oracle_for(task)
x_cal, y_cal = task.sample(120, substream(SEED, "cal"))
x_test, y_test = task.sample(30, substream(SEED, "test"))

scheme = GaussianNoise(sigma=SIGMA)
config = EvasionConfig(
    scheme=scheme, model=L2Ball(radius=RADIUS), mode="test-time",
    bound_kind="cdf", n_samples=2000, grid=BinGrid.uniform(51),
)
calibration = calibrate_smooth(oracle, x_cal, y_cal, ALPHA, config, seed=SEED)
threshold = calibration.thresholds["vanilla"]
print(f"smoothed calibration on {len(y_cal)} points: threshold {threshold:.4f}")

# Certified floor on undefended coverage: if every calibration score can
# drop to its certified lower bound, how far can the quantile fall?
for kind in ("mean", "cdf"):
    lower = bound_batch(calibration.distributions, config.model, scheme, "lower", kind)
    beta = vanilla_worst_case_coverage(threshold, lower)
    print(f"  worst-case coverage floor at r={RADIUS} ({kind} route): beta = {beta:.4f}")

# Attack each test point, then build all three kinds of set on the SAME
# Monte-Carlo draws so differences come from the bounds alone.
attacked = [
    evade_l2(
        oracle, x_test[i], int(y_test[i]), RADIUS, scheme,
        substream(SEED, "attack", i), n_samples=128,
    )
    for i in range(len(y_test))
]
per_point = class_distributions(oracle, attacked, config, SEED)  # (points, classes)
by_cdf = predict(per_point, calibration, config)
by_mean = predict(per_point, calibration, replace(config, bound_kind="mean"))
vanilla_sets, mean_sets, cdf_sets = by_cdf["vanilla"], by_mean["robust"], by_cdf["robust"]

print(f"\nafter attacking all {len(y_test)} test points at r = {RADIUS} (= 0.5 sigma):")
for name, sets in (("undefended", vanilla_sets), ("mean-bound", mean_sets), ("cdf-bound", cdf_sets)):
    report = evaluate_sets(sets, y_test)
    print(f"  {name:<11} coverage {report.empirical_coverage:.3f}   "
          f"avg size {report.average_set_size:.2f}")

# The three sets nest by construction: certified routes only add classes.
# Each is a boolean (points, classes) mask, so nesting is a comparison.
assert np.all(vanilla_sets <= cdf_sets) and np.all(cdf_sets <= mean_sets)
print("\nset nesting holds pointwise: undefended <= cdf-bound <= mean-bound")
