"""Invariants of the certified bounds over whole score batches.

Random summaries of any batch shape (a single summary is a 0-d batch)
under both noise families, both bound kinds, both directions, and both
the forward ball and its reversal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcp.bounds import BinaryBall, L2Ball, bound_batch, bound_for_clean
from robustcp.correction import corrected_bound
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
    SparseFlipNoise,
    substream,
    summarize_samples,
)

# The slack the bound tests allow for rounding in the closed forms.
SLACK = 1e-12


def _random_batch(rng, shape, n_samples, n_edges):
    """Summaries of Beta draws, each entry with its own shape parameters."""
    a = rng.uniform(0.2, 5.0, shape + (1,))
    b = rng.uniform(0.2, 5.0, shape + (1,))
    return summarize_samples(rng.beta(a, b, shape + (n_samples,)), BinGrid.uniform(n_edges))


def _threat(rng, family, reverse):
    if family == "gaussian":
        scheme = GaussianNoise(sigma=float(rng.uniform(0.05, 1.0)))
        model = L2Ball(radius=float(rng.uniform(0.0, 1.0)))
    else:
        scheme = SparseFlipNoise(p0=float(rng.uniform(0.0, 0.3)), p1=float(rng.uniform(0.0, 0.3)))
        model = BinaryBall(additions=int(rng.integers(0, 4)), deletions=int(rng.integers(0, 4)))
    return scheme, model.reversed() if reverse else model


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(), (1,), (4,), (3, 2)]),
    n_samples=st.integers(2, 60),
    n_edges=st.integers(3, 21),
    family=st.sampled_from(["gaussian", "sparse"]),
    kind=st.sampled_from(["mean", "cdf"]),
    reverse=st.booleans(),
)
def test_bound_batch_invariants(seed, shape, n_samples, n_edges, family, kind, reverse):
    rng = substream(seed, "bound-batch")
    batch = _random_batch(rng, shape, n_samples, n_edges)
    scheme, model = _threat(rng, family, reverse)
    bounds = {}
    for direction in ("upper", "lower"):
        got = bound_batch(batch, model, scheme, direction, kind)
        # (a) one dispatcher call per entry, bit for bit, in the batch's shape.
        assert np.shape(got) == shape
        want = [
            bound_for_clean(batch[i], model, scheme, direction, kind) for i in np.ndindex(shape)
        ]
        np.testing.assert_array_equal(np.ravel(got), want)
        bounds[direction] = got
    if shape == ():
        assert type(bounds["upper"]) is np.float64
    # (b) the ball's extremes bracket the measured mean.
    assert np.all(bounds["lower"] <= batch.mean + SLACK)
    assert np.all(batch.mean <= bounds["upper"] + SLACK)
    # (c) widening for Monte-Carlo error only ever loosens a bound.
    eta = float(rng.uniform(0.001, 0.5))
    upper = corrected_bound(batch, model, scheme, "upper", kind, eta)
    lower = corrected_bound(batch, model, scheme, "lower", kind, eta)
    assert np.all(upper >= bounds["upper"] - SLACK) and np.all(lower <= bounds["lower"] + SLACK)
    # (d) a larger Gaussian ball reaches at least as far in both directions.
    if family == "gaussian":
        wider = L2Ball(radius=model.radius + float(rng.uniform(0.0, 1.0)))
        assert np.all(bound_batch(batch, wider, scheme, "upper", kind) >= bounds["upper"] - SLACK)
        assert np.all(bound_batch(batch, wider, scheme, "lower", kind) <= bounds["lower"] + SLACK)
