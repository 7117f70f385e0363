"""Certified score bounds under Gaussian smoothing, mean route vs CDF route.

A score smoothed with N(0, sigma^2 I) noise cannot change arbitrarily
fast: its mean at any point within L2 distance r of the measured one is
pinned between Phi(Phi^{-1}(p) - r/sigma) and Phi(Phi^{-1}(p) + r/sigma).
Keeping the whole binned CDF instead of just the mean gives a second
certificate that widens more slowly as the radius grows; past a modest
radius it is strictly inside the mean-only envelope.

Run with: python demos/02_gaussian_certificates.py
"""

import numpy as np

from robustcp.bounds import L2Ball, bound_for_clean, gaussian_transfer
from robustcp.smoothing import (
    BinGrid, GaussianNoise, score_samples, substream, summarize_samples,
)

SIGMA = 0.25
scheme = GaussianNoise(sigma=SIGMA)
grid = BinGrid.uniform(51)


def score_fn(points, rng):
    """A [0, 1] score with structure, steeper near the origin, as one class column."""
    margin = points[:, 0] - 0.3 * np.sin(4.0 * points[:, 1])
    return 1.0 / (1.0 + np.exp(-3.0 * margin[:, None]))


x = np.array([0.2, -0.1])
dist = summarize_samples(
    score_samples(score_fn, x, scheme, 20_000, substream(0, "demo"))[:, 0], grid
)
print(f"smooth score at x: mean {dist.mean:.4f}, variance {dist.variance:.5f}, "
      f"{dist.n_samples} draws")

def envelope(r, kind):
    """Certified (lower, upper) bounds of the smooth mean within radius r."""
    return tuple(bound_for_clean(dist, L2Ball(r), scheme, d, kind) for d in ("lower", "upper"))


# The mean route only sees dist.mean; the CDF route sees the whole
# binned distribution.  At r = 0 the binning costs the CDF route up to
# one bin of slack, but its envelope grows more slowly with r.
print("\ncertified envelope of the smooth mean within radius r")
print(f"{'r/sigma':>8} {'mean lower':>11} {'cdf lower':>10} {'cdf upper':>10} {'mean upper':>11}")
for factor in (0.0, 0.25, 0.5, 1.0, 2.0):
    r = factor * SIGMA
    m_lo, m_up = envelope(r, "mean")
    c_lo, c_up = envelope(r, "cdf")
    print(f"{factor:>8.2f} {m_lo:>11.4f} {c_lo:>10.4f} {c_up:>10.4f} {m_up:>11.4f}")

# The provable comparison: pushing the CDF route's own r = 0 value
# through the mean bound can only be looser than the CDF route itself.
base_lo, base_up = envelope(0.0, "cdf")
for factor in (0.25, 0.5, 1.0, 2.0):
    r = factor * SIGMA
    c_lo, c_up = envelope(r, "cdf")
    assert c_up <= gaussian_transfer(base_up, r, SIGMA, increase=True) + 1e-12
    assert c_lo >= gaussian_transfer(base_lo, r, SIGMA, increase=False) - 1e-12
print("growth check passed: the cdf envelope widens no faster than the mean envelope")

# Spot-check the certificate empirically: evaluate the smooth mean at
# the worst corner of the ball in a few random directions; every
# re-measured mean must stay inside the certified envelope.
r = 0.5 * SIGMA
lo, up = envelope(r, "cdf")
worst_lo, worst_up = 1.0, 0.0
rng = substream(0, "probe")
for k in range(40):
    direction = rng.normal(size=2)
    x_shift = x + r * direction / np.linalg.norm(direction)
    d = summarize_samples(
        score_samples(score_fn, x_shift, scheme, 20_000, substream(0, "probe", k))[:, 0], grid
    )
    worst_lo = min(worst_lo, d.mean)
    worst_up = max(worst_up, d.mean)
print(f"\nat r = 0.5 sigma: certified [{lo:.4f}, {up:.4f}], "
      f"probed means span [{worst_lo:.4f}, {worst_up:.4f}]")
print("(probes stay inside the certificate up to Monte-Carlo error)")
