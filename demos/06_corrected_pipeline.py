"""Finite-sample corrections: certified even with Monte-Carlo estimates.

Smooth scores are estimated from m noise draws, so every mean, variance
and CDF carries estimation error.  The corrected pipeline widens each
quantity by a concentration radius, tracks the total failure
probability in a ledger capped at eta, and only then applies the
certified bounds.  The price is mild: corrected thresholds sit slightly
below uncorrected ones, never above.

Run with: python demos/06_corrected_pipeline.py
"""

import numpy as np

from robustcp.bounds import L2Ball, bound_for_clean
from robustcp.correction import (
    BudgetLedger,
    bernstein_radius,
    corrected_bound,
    dkw_radius,
    hoeffding_radius,
)
from robustcp.evasion import EvasionConfig, calibrate_smooth
from robustcp.smoothing import (
    BinGrid, GaussianNoise, score_samples, substream, summarize_samples,
)
from robustcp.tasks import make_gaussian_mixture, oracle_for

ETA = 0.01

# The three concentration radii behind the corrections.
print("concentration radii at failure probability eta = 0.01")
print(f"{'draws m':>9} {'hoeffding':>10} {'bernstein(var=0.01)':>20} {'dkw':>8}")
for m in (1_000, 10_000, 100_000):
    print(f"{m:>9} {hoeffding_radius(m, ETA):>10.5f} "
          f"{bernstein_radius(m, 0.01, ETA):>20.5f} {dkw_radius(m, ETA):>8.5f}")
print("(low-variance scores earn a much smaller radius via Bernstein)")

# A corrected bound spends part of the eta budget and is never tighter
# than the uncorrected bound it wraps.
scheme = GaussianNoise(sigma=0.25)
model = L2Ball(radius=0.125)
grid = BinGrid.uniform(51)


def score_fn(points, rng):
    return 1.0 / (1.0 + np.exp(-2.0 * points[:, :1]))  # one class column


dist = summarize_samples(
    score_samples(score_fn, np.zeros(2), scheme, 10_000, substream(9, "mc"))[:, 0], grid
)
plain = bound_for_clean(dist, model, scheme, "lower", "cdf")
corrected = corrected_bound(dist, model, scheme, "lower", "cdf", ETA)
print(f"\nlower bound at r=0.125: uncorrected {plain:.4f}, corrected {corrected:.4f}")

# Full corrected calibration.  Calibrating spends nothing: the ledger
# belongs to the corrected predict, one entry per stage, and the sum
# must stay within eta or the run aborts.
task = make_gaussian_mixture(n_classes=3, dim=4, separation=2.0, noise=1.0, seed=7)
oracle = oracle_for(task)
x_cal, y_cal = task.sample(100, substream(9, "cal"))
config = EvasionConfig(
    scheme=scheme, model=model, mode="calibration-time", bound_kind="cdf",
    n_samples=10_000, grid=grid, eta=ETA,
)
calibration = calibrate_smooth(oracle, x_cal, y_cal, 0.1, config, seed=9)
thr_corrected = calibration.thresholds["corrected"]
thr_plain = calibration.thresholds["calibration-time"]
print(f"\ncorrected calibration on 100 points:")
print(f"  uncorrected threshold {thr_plain:.4f}")
print(f"  corrected threshold   {thr_corrected:.4f}  (lower, as it must be)")
assert thr_corrected <= thr_plain

# The stages every corrected predict spends on this calibration: a DKW
# band per calibration point at eta / (2 n), then a Bernstein radius per
# class at eta / (2 classes).  Each union bound is one entry.
n_cal, n_classes = len(calibration), task.n_classes
ledger = BudgetLedger(eta=ETA)
ledger.spend("calibration cdf bands", ETA / (2 * n_cal), n_cal)
ledger.spend("class mean radii", ETA / (2 * n_classes), n_classes)
print("  corrected predict's ledger, one entry per stage:")
for label, amount, count in ledger.entries:
    print(f"    {label:<22} {count:>4} x {amount:.3g} = {amount * count:.5f}")
print(f"    spent {ledger.spent:.5f} of eta = {ETA:.5f}")

# Overspending the budget is a hard error, not a warning.
probe = BudgetLedger(eta=ETA)
probe.spend("first half", 0.006)
try:
    probe.spend("second half", 0.006)
except ValueError as exc:
    print(f"\noverspending the ledger raises: {exc}")
