"""Noise sampling, seeded substreams, and binned score distributions."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcp import smoothing
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
    ScoreBatch,
    SparseFlipNoise,
    estimate_distribution,
    sample_gaussian,
    sample_noise,
    sample_sparse,
    subseed,
    substream,
    summarize_samples,
)


class TestSubstreams:
    def test_same_path_same_stream(self):
        a = substream(7, "cal", 3).standard_normal(5)
        b = substream(7, "cal", 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_diverge(self):
        a = substream(7, "cal", 3).standard_normal(5)
        b = substream(7, "cal", 4).standard_normal(5)
        c = substream(8, "cal", 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_path_order_matters(self):
        a = substream(7, "a", 1).standard_normal(3)
        b = substream(7, 1, "a").standard_normal(3)
        assert not np.array_equal(a, b)

    def test_subseed_deterministic_int(self):
        s1 = subseed(7, "trial", 12)
        s2 = subseed(7, "trial", 12)
        assert s1 == s2
        assert isinstance(s1, int)
        assert 0 <= s1 < 2**63
        assert subseed(7, "trial", 13) != s1

    @pytest.mark.parametrize(
        "a, b",
        [
            # A string that is a suffix of another one.
            ((0, "cal-poison-attack"), (0, "poison-attack")),
            # A string against the integer that spells its bytes.
            ((0, "a"), (0, 97)),
            # A trailing zero against its absence.
            ((3, "attack", 0), (3, "attack")),
            # An integer of 2**32 or more against its 32-bit words.
            ((0, 2**32), (0, 0, 1)),
        ],
    )
    def test_distinct_addresses_never_collide(self, a, b):
        assert subseed(*a) != subseed(*b)
        assert not np.array_equal(substream(*a).random(4), substream(*b).random(4))

    def test_float_components_rejected(self):
        with pytest.raises(TypeError):
            substream(0, "attack", 1.5)


# Every stream address the package derives, as (first path component,
# templates over an index); seeds include 63-bit trial seeds.
_SRC_ADDRESSES = {
    "task": lambda i: [("task", "gaussian-means"), ("task", "binary-theta")],
    "cal-data": lambda i: [("cal-data",)],
    "test-data": lambda i: [("test-data",)],
    "plain": lambda i: [("plain", "cal"), ("plain", "test")],
    "oracle-check": lambda i: [("oracle-check",)],
    "trial": lambda i: [("trial", i)],
    "cal": lambda i: [("cal", i)],
    "test": lambda i: [("test", i)],
    "poison-attack": lambda i: [("poison-attack", i)],
    "defender": lambda i: [("defender", i)],
    "attack": lambda i: [("attack", i)] + [("attack", f"r={r:g}", i) for r in (0.125, 0.5, 4)],
}


def test_stream_addresses_used_in_src_are_distinct():
    src = Path(__file__).resolve().parents[1] / "src" / "robustcp"
    used = set()
    for path in src.glob("*.py"):
        used.update(re.findall(r'sub(?:stream|seed)\([^,()]+,\s*"([^"]+)"', path.read_text()))
    assert used and used <= set(_SRC_ADDRESSES), f"untabled keys {used - set(_SRC_ADDRESSES)}"
    seen = {}
    for seed in (0, 11, 2**32, subseed(11, "trial", 0), 2**63 - 1):
        for templates in _SRC_ADDRESSES.values():
            for i in range(40):
                for path in templates(i):
                    seen.setdefault(subseed(seed, *path), set()).add((seed, path))
    clashes = [addresses for addresses in seen.values() if len(addresses) > 1]
    assert not clashes


def test_sample_gaussian_shape_and_centre():
    x = np.array([1.0, -2.0, 0.5])
    rng = substream(0, "gauss")
    samples = sample_gaussian(x, 0.5, 40_000, rng)
    assert samples.shape == (40_000, 3)
    np.testing.assert_allclose(samples.mean(axis=0), x, atol=0.02)
    np.testing.assert_allclose(samples.std(axis=0), 0.5, atol=0.02)


def test_sample_sparse_flip_rates():
    x = np.array([0, 0, 1, 1, 0, 1], dtype=np.int8)
    rng = substream(0, "sparse")
    samples = sample_sparse(x, 0.2, 0.4, 50_000, rng)
    assert samples.shape == (50_000, 6)
    assert set(np.unique(samples)) <= {0, 1}
    on_rate = samples[:, x == 0].mean()
    off_rate = 1.0 - samples[:, x == 1].mean()
    assert on_rate == pytest.approx(0.2, abs=0.01)
    assert off_rate == pytest.approx(0.4, abs=0.01)


def test_stacked_sparse_samples_keep_each_rows_flip_rates():
    """One block of uniforms serves a stack of inputs, yet zero bits flip
    at p0 and one bits at p1 in every row, within 5 sigma."""
    rng = substream(0, "sparse-stack")
    stack = (rng.random((3, 40)) < 0.5).astype(np.int8)
    p0, p1, n = 0.05, 0.4, 20_000
    samples = sample_sparse(stack, p0, p1, n, rng).reshape(3, n, 40)
    for x, rows in zip(stack, samples):
        flipped = rows != x[None, :]
        for bits, p in ((x == 0, p0), (x == 1, p1)):
            count = n * int(bits.sum())
            sigma = np.sqrt(p * (1 - p) / count)
            assert abs(flipped[:, bits].mean() - p) <= 5 * sigma


def test_stacked_inputs_share_one_noise_block():
    """Common random numbers: identical rows of a stack get identical
    noisy copies, and the first row matches an unstacked draw."""
    x = np.array([0.5, -1.0, 2.0])
    stack = np.stack([x, x + 1.0, x])
    out = sample_noise(stack, GaussianNoise(0.3), 50, substream(4, "crn")).reshape(3, 50, 3)
    np.testing.assert_array_equal(out[0], out[2])
    np.testing.assert_allclose(out[1] - out[0], 1.0)
    np.testing.assert_array_equal(out[0], sample_gaussian(x, 0.3, 50, substream(4, "crn")))
    bits = np.array([0, 1, 1, 0], dtype=np.int8)
    flips = sample_noise(
        np.stack([bits, bits]), SparseFlipNoise(0.2, 0.3), 50, substream(5, "crn")
    ).reshape(2, 50, 4)
    np.testing.assert_array_equal(flips[0], flips[1])


def test_sample_sparse_zero_rates_copy_input():
    x = np.array([0, 1, 1, 0])
    samples = sample_sparse(x, 0.0, 0.0, 10, substream(1, "s"))
    np.testing.assert_array_equal(samples, np.tile(x, (10, 1)))


def test_scheme_validation():
    with pytest.raises(ValueError):
        GaussianNoise(sigma=0.0)
    with pytest.raises(ValueError):
        SparseFlipNoise(p0=1.0, p1=0.2)
    with pytest.raises(ValueError):
        SparseFlipNoise(p0=0.2, p1=-0.1)


def test_uniform_grid():
    g = BinGrid.uniform(51)
    assert g.edges.shape == (51,)
    assert g.edges[0] == 0.0 and g.edges[-1] == 1.0
    np.testing.assert_allclose(np.diff(g.edges), 0.02)
    np.testing.assert_array_equal(g.inner_edges, g.edges[1:-1])
    with pytest.raises(ValueError):
        BinGrid(edges=np.array([0.0, 0.5, 0.4, 1.0]))


def test_summarize_samples_moments_and_cdf():
    g = BinGrid.uniform(51)
    samples = np.array([0.1, 0.3, 0.3, 0.8])
    d = summarize_samples(samples, g)
    assert d.shape == () and d.n_samples == 4
    assert d.mean == pytest.approx(np.mean(samples))
    # Sample variance with the n-1 denominator.
    assert d.variance == pytest.approx(np.var(samples, ddof=1))
    # cdf[i] is the fraction of samples <= the i-th inner edge.
    edge_03 = np.argmin(np.abs(g.inner_edges - 0.3))
    assert d.cdf[edge_03] == pytest.approx(0.75)
    assert d.cdf[0] == pytest.approx(np.mean(samples <= g.inner_edges[0]))
    assert np.all(np.diff(d.cdf) >= 0)


def test_summarize_samples_validation():
    g = BinGrid.uniform(51)
    with pytest.raises(ValueError):
        summarize_samples(np.array([0.5]), g)
    with pytest.raises(ValueError):
        summarize_samples(np.array([0.5, 1.2]), g)


def test_score_distribution_variance_cap():
    """A single summary is a 0-d batch, validated like any other."""
    g = BinGrid.uniform(51)
    with pytest.raises(ValueError):
        ScoreBatch(n_samples=10, mean=0.5, variance=0.9, grid=g, cdf=np.linspace(0, 1, 49))
    ok = ScoreBatch(n_samples=10, mean=0.5, variance=0.2, grid=g, cdf=np.linspace(0, 1, 49))
    assert ok.shape == () and ok.cdf.shape == (49,)


def test_estimate_distribution_matches_manual_pipeline():
    """The estimator is exactly sample -> score -> bin under a shared
    stream, with one noise batch and one oracle call for every class."""
    x = np.array([0.2, 0.8])
    scheme = GaussianNoise(sigma=0.3)
    grid = BinGrid.uniform(51)
    calls = []

    def score_fn(points, rng):
        calls.append(points.shape)
        return np.clip(points, 0.0, 1.0)

    dists = estimate_distribution(score_fn, x, scheme, 500, grid, substream(3, "est"))
    assert calls == [(500, 2)]
    manual = np.clip(sample_gaussian(x, 0.3, 500, substream(3, "est")), 0.0, 1.0)
    assert len(dists) == 2
    for c, d in enumerate(dists):
        expect = summarize_samples(manual[:, c], grid)
        assert d.n_samples == expect.n_samples
        assert d.mean == expect.mean
        assert d.variance == expect.variance
        np.testing.assert_array_equal(d.cdf, expect.cdf)


def test_estimate_distribution_rejects_bad_oracle():
    x = np.zeros(2)
    grid = BinGrid.uniform(51)
    for bad in (np.zeros(3), np.zeros(5), np.zeros((4, 2))):
        with pytest.raises(ValueError):
            estimate_distribution(
                lambda pts, rng: bad, x, GaussianNoise(0.1), 5, grid, substream(0)
            )


# ------------------------------------------------------------ batch summary --

_CHUNK = smoothing._SUMMARY_CHUNK_ROWS


def _reference_row(row, edges):
    """Per-row summary: clip, sort, count <= each edge, mean and var(ddof=1)."""
    row = np.clip(np.asarray(row, dtype=float), 0.0, 1.0)
    cdf = np.searchsorted(np.sort(row), edges, side="right") / row.size
    return row.mean(), row.var(ddof=1), cdf


def _score_rows(rng, n_rows, n_samples, edges):
    """Scores mixing grid edges, exact 0 and 1, values within 1e-9 outside
    [0, 1], and plain uniforms; few distinct values, so ties abound."""
    pool = np.concatenate([
        edges, [0.0, 1.0, -1e-9, -4e-10, 1.0 + 1e-9, 1.0 + 3e-10], rng.uniform(0, 1, 5)
    ])
    return pool[rng.integers(0, pool.size, (n_rows, n_samples))]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 3 * _CHUNK // 2),
    n_classes=st.integers(1, 3),
    n_samples=st.integers(2, 40),
    n_edges=st.integers(3, 12),
    layout=st.sampled_from(["contiguous", "transposed", "strided"]),
)
def test_batch_summary_matches_each_row_bit_for_bit(
    seed, n_points, n_classes, n_samples, n_edges, layout
):
    rng = substream(seed, "summary")
    grid = BinGrid.uniform(n_edges)
    rows = _score_rows(rng, n_points * n_classes, n_samples, grid.inner_edges)
    tensor = rows.reshape(n_points, n_classes, n_samples)
    if layout == "transposed":
        # Samples outermost in memory, viewed back as (points, classes, samples).
        tensor = np.ascontiguousarray(tensor.transpose(2, 0, 1)).transpose(1, 2, 0)
    elif layout == "strided":
        wide = np.zeros((n_points, 2 * n_classes, 3 * n_samples))
        wide[:, ::2, ::3] = tensor
        tensor = wide[:, ::2, ::3]
    batch = summarize_samples(tensor, grid)
    assert batch.shape == (n_points, n_classes) and batch.n_samples == n_samples
    assert batch.cdf.shape == (n_points, n_classes, grid.inner_edges.size)
    for p in range(n_points):
        for c in range(n_classes):
            mean, variance, cdf = _reference_row(tensor[p, c], grid.inner_edges)
            row = batch[p, c]
            assert isinstance(row, ScoreBatch) and row.shape == ()
            assert (row.mean, row.variance) == (mean, variance)
            np.testing.assert_array_equal(row.cdf, cdf)
            np.testing.assert_array_equal(batch[p][c].cdf, cdf)


@pytest.mark.parametrize("bad", [-2e-9, 1.0 + 2e-9, -0.5, 1.5])
def test_batch_summary_rejects_scores_outside_the_tolerance(bad):
    grid = BinGrid.uniform(11)
    rows = np.full((_CHUNK + 7, 4), 0.5)
    rows[-1, 2] = bad  # in the last, partial chunk
    with pytest.raises(ValueError, match="outside"):
        summarize_samples(rows, grid)
    with pytest.raises(ValueError, match="outside"):
        summarize_samples(rows[-1], grid)


def test_summarize_samples_one_row_is_a_0d_batch():
    """A 1-d row summarizes to a 0-d batch with numpy-scalar moments, the
    same entry it is inside a larger batch."""
    rng = substream(4, "one-row")
    grid = BinGrid.uniform(51)
    samples = _score_rows(rng, 1, 30, grid.inner_edges)
    row = summarize_samples(samples[0], grid)
    entry = summarize_samples(samples, grid)[0]
    assert row.shape == () and entry.shape == ()
    for d in (row, entry):
        assert type(d.mean) is np.float64 and type(d.variance) is np.float64
    assert (row.mean, row.variance, row.n_samples) == (
        entry.mean, entry.variance, entry.n_samples
    )
    np.testing.assert_array_equal(row.cdf, entry.cdf)
    with pytest.raises(TypeError):
        len(row)


def test_score_batch_indexing_and_stacking():
    grid = BinGrid.uniform(11)
    rng = substream(6, "batch")
    batch = summarize_samples(rng.uniform(0, 1, (4, 3, 25)), grid)
    assert len(batch) == 4 and batch.shape == (4, 3)
    point = batch[1]
    assert isinstance(point, ScoreBatch) and point.shape == (3,)
    a, b, c = point  # unpacking yields the class rows
    assert isinstance(a, ScoreBatch) and a.shape == () and b.mean == batch.mean[1, 1]
    assert [d.mean for d in batch.rows()] == batch.mean.ravel().tolist()
    assert all(type(d.mean) is np.float64 and d.shape == () for d in batch.rows())
    again = ScoreBatch.stack(list(batch))
    for name in ("mean", "variance", "cdf"):
        np.testing.assert_array_equal(getattr(again, name), getattr(batch, name))
    rows = ScoreBatch.stack(list(point))
    np.testing.assert_array_equal(rows.cdf, point.cdf)
    other = summarize_samples(rng.uniform(0, 1, (3, 26)), grid)
    with pytest.raises(ValueError):
        ScoreBatch.stack([point, other])
    with pytest.raises(ValueError):
        ScoreBatch.stack([])


def test_score_batch_validates_every_entry():
    grid = BinGrid.uniform(5)
    ok = {
        "n_samples": 10, "grid": grid, "mean": np.full((2, 3), 0.5),
        "variance": np.full((2, 3), 0.1), "cdf": np.tile([0.2, 0.5, 0.9], (2, 3, 1)),
    }
    ScoreBatch(**ok)
    mean = ok["mean"].copy()
    mean[1, 2] = 1.2
    variance = ok["variance"].copy()
    variance[0, 1] = 0.9
    falling = ok["cdf"].copy()
    falling[1, 0] = [0.5, 0.4, 0.9]
    for bad in (
        {"n_samples": 1},
        {"mean": mean},
        {"variance": variance},
        {"variance": ok["variance"][:1]},
        {"cdf": falling},
        {"cdf": ok["cdf"][..., :2]},
        {"cdf": ok["cdf"] + 0.2},
    ):
        with pytest.raises(ValueError):
            ScoreBatch(**{**ok, **bad})
