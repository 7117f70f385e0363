"""Invariants of the certified bounds over whole score batches.

Random summaries of any batch shape (a single summary is a 0-d batch)
under both noise families, both bound kinds, both directions, and both
the forward ball and its reversal.  Sampled entries of whole batches
are also re-derived by the benchmark's independent references
(``bench/oracles.py``: mpmath for the Gaussian closed form, an LP over
every noise outcome for bit flips).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcp.bounds import BinaryBall, L2Ball, bound_batch, bound_for_clean
from robustcp.correction import bernstein_radius, corrected_bound, dkw_radius
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


def _bench_oracles():
    """``bench/oracles.py``, loaded by path: it imports nothing from ``robustcp``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ragged_grid(rng, n_edges):
    """Edges of unequal widths, so that a bound taking the other
    direction's widths is wrong."""
    inner = np.sort(rng.uniform(0.02, 0.98, n_edges - 2))
    return BinGrid(np.concatenate(([0.0], inner, [1.0])))


# Every route of ``bound_batch`` for both families: the forward balls,
# a zero radius, and a reversed bit-flip ball with p0 != p1.
ROUTES = {
    "L2Ball(0.125)": (L2Ball(0.125), GaussianNoise(0.25)),
    "L2Ball(0)": (L2Ball(0.0), GaussianNoise(0.25)),
    "BinaryBall(1, 1)": (BinaryBall(1, 1), SparseFlipNoise(0.1, 0.1)),
    "BinaryBall(2, 1).reversed()": (BinaryBall(2, 1).reversed(), SparseFlipNoise(0.05, 0.4)),
}
CORRECTED = ("L2Ball(0.125)", "BinaryBall(2, 1).reversed()")
ETA = 0.01


def _widened(batch, index, direction, kind):
    """The statistic ``corrected_bound`` bounds at one entry, from the
    public radii: the Bernstein mean interval or the DKW CDF band."""
    upper = direction == "upper"
    if kind == "mean":
        eps = bernstein_radius(batch.n_samples, batch.variance[index], ETA)
        return min(batch.mean[index] + eps, 1.0) if upper else max(batch.mean[index] - eps, 0.0)
    eps = dkw_radius(batch.n_samples, ETA)
    if upper:
        return np.maximum.accumulate(np.maximum(batch.cdf[index] - eps, 0.0))
    return np.minimum.accumulate(np.minimum(batch.cdf[index] + eps, 1.0)[::-1])[::-1]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_bound_batch_entries_match_independent_references(route):
    oracles = _bench_oracles()
    model, scheme = ROUTES[route]
    rng = substream(16, "bound-references", route)
    batches = [
        summarize_samples(rng.beta(0.7, 1.3, (30, 4, 40)), _ragged_grid(rng, 51)),
        summarize_samples(rng.beta(2.0, 0.8, (50, 25)), _ragged_grid(rng, 21)),
    ]
    samples = []
    for batch in batches:
        # The first, the last and one random entry of each batch.
        picks = {0, int(rng.integers(1, batch.mean.size - 1)), batch.mean.size - 1}
        for direction in ("upper", "lower"):
            for kind in ("mean", "cdf"):
                bounds = {"plain": bound_batch(batch, model, scheme, direction, kind)}
                if route in CORRECTED:
                    bounds["corrected"] = corrected_bound(
                        batch, model, scheme, direction, kind, ETA
                    )
                for name, got in bounds.items():
                    assert np.shape(got) == batch.shape
                    for flat in sorted(picks):
                        index = np.unravel_index(flat, batch.shape)
                        if name == "plain":
                            mean, cdf = batch.mean[index], batch.cdf[index]
                        else:
                            statistic = _widened(batch, index, direction, kind)
                            mean, cdf = (statistic, None) if kind == "mean" else (None, statistic)
                        samples.append({
                            "op": len(samples), "mean": mean, "cdf": cdf,
                            "edges": batch.grid.edges, "model": model, "scheme": scheme,
                            "direction": direction, "kind": kind,
                            "value": float(got[index]),
                        })
    # Six entries per direction, kind and bound: three from each batch.
    assert len(samples) == 24 * (2 if route in CORRECTED else 1)
    assert oracles.check_bound_samples(samples) == {}


@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_sparse_cdf_bound_peak_memory(direction):
    """The bit-flip CDF route keeps few batch-sized arrays alive at once:
    its peak allocation stays under 3.5 times the batch's CDF."""
    import tracemalloc

    rng = substream(3, "sparse-peak")
    batch = summarize_samples(rng.uniform(0, 1, (1000, 10, 20)), BinGrid.uniform(51))
    model, scheme = BinaryBall(additions=2, deletions=1), SparseFlipNoise(p0=0.1, p1=0.2)
    # Build and cache the region table and greedy plan outside the trace.
    bound_batch(batch[:1], model, scheme, direction, "cdf")
    tracemalloc.start()
    try:
        bound_batch(batch, model, scheme, direction, "cdf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * batch.cdf.nbytes, (peak, batch.cdf.nbytes)
