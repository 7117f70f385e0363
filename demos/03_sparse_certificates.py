"""Certificates for binary inputs under bit-flip smoothing.

For binary features smoothed with independent bit flips, the noise
outcomes around a clean point and around any perturbed point with a
added and d deleted one-bits split into a + d + 1 regions of constant
likelihood ratio.  Worst-case means over the perturbation ball reduce
to a tiny transfer problem over those regions, solved exactly by a
greedy fill; this script shows the table, the greedy solution against
a generic LP, and the resulting certified bounds.

Run with: python demos/03_sparse_certificates.py
"""

import numpy as np
from scipy.optimize import linprog

from robustcp.bounds import (
    BinaryBall,
    bound_for_clean,
    build_region_table,
    sparse_transfer,
)
from robustcp.smoothing import (
    BinGrid, SparseFlipNoise, score_samples, substream, summarize_samples,
)

ADDITIONS, DELETIONS = 2, 1
P0, P1 = 0.2, 0.2

table = build_region_table(ADDITIONS, DELETIONS, P0, P1)
print(f"region table for ball ({ADDITIONS} added, {DELETIONS} deleted), "
      f"flip rates p0={P0}, p1={P1}:")
print(f"  clean mass {np.round(table.clean_mass, 4)}")
print(f"  adv mass   {np.round(table.adv_mass, 4)}")
print(f"  ratio      {np.round(table.ratio, 4)}")

# The greedy solver fills regions in likelihood-ratio order.  A generic
# LP over the same constraints must land on the same optimum.
def lp_extreme(p, maximize):
    sign = -1.0 if maximize else 1.0
    res = linprog(sign * table.adv_mass, A_eq=table.clean_mass[None, :], b_eq=[p],
                  bounds=[(0.0, 1.0)] * table.clean_mass.size, method="highs")
    return float(sign * res.fun)

print("\nworst-case mean transfer, greedy vs LP")
for p in (0.1, 0.5, 0.9):
    up, lo = (sparse_transfer(p, table, increase) for increase in (True, False))
    print(f"  p={p}: upper {up:.6f} (LP {lp_extreme(p, True):.6f})   "
          f"lower {lo:.6f} (LP {lp_extreme(p, False):.6f})")

# End to end on an actual smoothed score over 32 binary features.
scheme = SparseFlipNoise(p0=P0, p1=P1)
grid = BinGrid.uniform(51)
weights = substream(3, "weights").normal(size=32) / 4.0


def score_fn(points, rng):
    return 1.0 / (1.0 + np.exp(-(points @ weights[:, None])))  # one class column


x = (substream(3, "point").uniform(size=32) < 0.4).astype(np.int8)
dist = summarize_samples(
    score_samples(score_fn, x, scheme, 20_000, substream(3, "mc"))[:, 0], grid
)
print(f"\nsmoothed score at a binary point: mean {dist.mean:.4f}")

print("certified envelope as the flip ball grows (mean route vs cdf route)")
for a, d in ((0, 0), (1, 0), (1, 1), (2, 2)):
    ball = BinaryBall(additions=a, deletions=d)
    m_lo = bound_for_clean(dist, ball, scheme, "lower", "mean")
    m_up = bound_for_clean(dist, ball, scheme, "upper", "mean")
    c_lo = bound_for_clean(dist, ball, scheme, "lower", "cdf")
    c_up = bound_for_clean(dist, ball, scheme, "upper", "cdf")
    print(f"  ball ({a},{d}): mean route [{m_lo:.4f}, {m_up:.4f}]   "
          f"cdf route [{c_lo:.4f}, {c_up:.4f}]")
