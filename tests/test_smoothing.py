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
    sample_gaussian,
    sample_noise,
    sample_sparse,
    score_samples,
    subseed,
    substream,
    summarize_blocks,
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
        text = path.read_text()
        used.update(re.findall(r'sub(?:stream|seed)\([^,()]+,\s*"([^"]+)"', text))
        # The Monte-Carlo blocks take their stream key as an argument.
        used.update(re.findall(r'_sampled_blocks\((?:[^,()"]+,\s*){4}"([^"]+)"', text))
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


# Rates at the ends of [0, 1], at and below one step of the 53-bit grid
# of doubles ``random()`` makes, and in between.
_RATES = (0.0, 2.0**-60, 2.0**-53, 0.1, 0.5, 1.0 - 2.0**-53, 1.0)


def _state(rng):
    return repr(rng.bit_generator.state)


@pytest.mark.parametrize("p1", _RATES)
@pytest.mark.parametrize("p0", _RATES)
def test_sample_sparse_matches_the_float_reference(p0, p1):
    """Flip masks from raw words give the bits of ``x ^ (random() < p)``,
    for one input and for a stack, and leave the generator where
    ``random()`` leaves it."""
    data = substream(3, "sparse-reference")
    stack = (data.random((4, 37)) < 0.5).astype(np.int8)
    for x in (stack[0], stack):
        got_rng, want_rng = (substream(3, "flips", f"{p0!r}:{p1!r}") for _ in range(2))
        got = sample_sparse(x, p0, p1, 300, got_rng)
        rows = x.reshape(-1, 1, 37)
        want = rows ^ (want_rng.random((300, 37)) < np.where(rows == 1, p1, p0))
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want.reshape(-1, 37))
        assert _state(got_rng) == _state(want_rng)
        np.testing.assert_array_equal(got_rng.random(5), want_rng.random(5))


@pytest.mark.parametrize("p", _RATES)
def test_word_bound_agrees_with_the_double_at_its_edges(p):
    """``_below`` against the double numpy makes of each word, on the
    words next to the rate's bound and at both ends of the range."""
    k = min(int(np.ceil(p * 2.0**53)), 2**53)
    words = np.array(
        [w for base in (k - 1, k) for w in (base << 11, (base << 11) + 2047)
         if 0 <= w < 2**64] + [0, 2**64 - 1],
        dtype=np.uint64,
    )
    doubles = (words >> np.uint64(11)).astype(float) * 2.0**-53
    np.testing.assert_array_equal(smoothing._below(words, p), doubles < p)


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64]
)
def test_sample_sparse_takes_every_one_word_generator(bit_generator):
    x = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    got_rng, want_rng = (np.random.Generator(bit_generator(8)) for _ in range(2))
    got = sample_sparse(x, 0.3, 0.6, 200, got_rng)
    want = x ^ (want_rng.random((200, 5)) < np.where(x == 1, 0.6, 0.3))
    np.testing.assert_array_equal(got, want)
    assert _state(got_rng) == _state(want_rng)


def test_sample_sparse_refuses_what_the_word_rule_does_not_fit():
    x = np.array([0, 1, 1, 0])
    # MT19937 builds a double from two 32-bit words.
    with pytest.raises(TypeError, match="MT19937"):
        sample_sparse(x, 0.1, 0.1, 10, np.random.Generator(np.random.MT19937(0)))
    for p0, p1 in ((np.nan, 0.1), (0.1, np.nan), (-0.1, 0.1), (0.1, 1.5), (1.5, 0.1)):
        with pytest.raises(ValueError, match="must lie in"):
            sample_sparse(x, p0, p1, 10, substream(1, "s"))


def test_sample_sparse_rate_one_flips_every_bit():
    x = np.array([0, 1, 1, 0])
    samples = sample_sparse(x, 1.0, 1.0, 10, substream(1, "s"))
    np.testing.assert_array_equal(samples, np.tile(1 - x, (10, 1)))


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


def test_score_samples_rejects_bad_oracle():
    x = np.zeros(2)
    for bad in (np.zeros(3), np.zeros(5), np.zeros((4, 2))):
        with pytest.raises(ValueError):
            score_samples(lambda pts, rng: bad, x, GaussianNoise(0.1), 5, substream(0))


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


_RAGGED_GRID = BinGrid(np.array([0.0, 0.1, 0.3, 0.3, 0.3, 0.55, 0.7, 0.7, 1.0]))


def _edge_case_rows(rng, n_rows, n_samples, edges):
    """Scores on every interior edge and one ulp either side of it, 0.0,
    -0.0 and 1.0, values within 1e-9 outside [0, 1], and plain uniforms."""
    pool = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [0.0, -0.0, 1.0, -1e-9, -4e-10, np.nextafter(0.0, -1.0), 1.0 + 1e-9,
         np.nextafter(1.0, 2.0)],
        rng.uniform(0, 1, 8),
    ])
    return pool[rng.integers(0, pool.size, (n_rows, n_samples))]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("grid", [BinGrid.uniform(11), _RAGGED_GRID], ids=["uniform", "ragged"])
@pytest.mark.parametrize("n_samples", [2, 7, 60])
def test_summary_is_bit_exact_against_a_per_row_reference(n_samples, grid, layout):
    """600 rows (two whole chunks and a partial one) give the bits of each
    row summarized alone (mean, var(ddof=1), searchsorted counts over
    the sorted row), and NaN or out-of-range scores are still refused."""
    rng = substream(n_samples, "bit-exact", grid.edges.size, layout)
    edges = grid.inner_edges
    rows = _edge_case_rows(rng, 600, n_samples, edges)
    assert 600 % _CHUNK and 600 > 2 * _CHUNK
    if layout == "F":
        rows = np.asfortranarray(rows)
        assert not rows.flags.c_contiguous
    batch = summarize_samples(rows, grid)
    for i, row in enumerate(rows):
        mean, variance, cdf = _reference_row(row, edges)
        assert _bits(batch.mean[i]) == _bits(mean)
        assert _bits(batch.variance[i]) == _bits(variance)
        assert np.array_equal(_bits(batch.cdf[i]), _bits(cdf))
    # Every edge, ulp neighbour and signed zero occurred.
    assert np.isin(np.concatenate([edges, np.nextafter(edges, 2.0)]), rows).all()
    assert np.signbit(rows[rows == 0.0]).any() and (~np.signbit(rows[rows == 0.0])).any()

    # A NaN passes the range check and is refused by its NaN mean.
    for bad, message in ((-2e-9, "outside"), (1.0 + 2e-9, "outside"), (np.nan, "mean")):
        broken = rows.copy(order="K")
        broken[-1, -1] = bad  # in the last, partial chunk
        with pytest.raises(ValueError, match=message):
            summarize_samples(broken, grid)


def _float32_edge_rows(rng, n_rows, n_samples, edges):
    """float32 scores on every interior edge (the float32 nearest it, and the
    float32s either side of the edge) and one float32 ulp either side of
    each of those, 0.0, -0.0 and 1.0, float32s just inside and outside
    the 1e-9 tolerance, and plain uniforms."""
    f32 = np.float32
    near = edges.astype(f32)
    below = np.where(near > edges, np.nextafter(near, f32(-1)), near)
    above = np.where(near < edges, np.nextafter(near, f32(2)), near)
    on = np.concatenate([near, below, above])
    pool = np.concatenate([
        on, np.nextafter(on, f32(-1)), np.nextafter(on, f32(2)),
        np.array([0.0, -0.0, 1.0, -4e-10, np.nextafter(f32(0), f32(-1))], dtype=f32),
        rng.uniform(0, 1, 8).astype(f32),
    ])
    assert pool.dtype == f32
    return pool[rng.integers(0, pool.size, (n_rows, n_samples))]


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize(
    "grid", [BinGrid.uniform(11), BinGrid.uniform(5), _RAGGED_GRID],
    ids=["uniform", "dyadic", "ragged"],
)
@pytest.mark.parametrize("n_samples", [2, 7, 60])
def test_float32_summary_is_bit_exact_against_the_widened_scores(n_samples, grid, layout):
    """float32 rows (a packed tensor's dtype) summarize to the bits of the
    same rows widened to float64, and of each widened row summarized alone;
    the 1e-9 tolerance decides on the float64 value of a float32 score."""
    rng = substream(n_samples, "float32-bit-exact", grid.edges.size, layout)
    edges = grid.inner_edges
    rows = _float32_edge_rows(rng, 600, n_samples, edges)
    if layout == "F":
        rows = np.asfortranarray(rows)
        assert not rows.flags.c_contiguous
    narrow, wide = summarize_samples(rows, grid), summarize_samples(rows.astype(float), grid)
    for name in ("mean", "variance", "cdf"):
        assert np.array_equal(_bits(getattr(narrow, name)), _bits(getattr(wide, name))), name
    for i, row in enumerate(rows):
        mean, variance, cdf = _reference_row(row.astype(float), edges)
        assert _bits(narrow.mean[i]) == _bits(mean)
        assert _bits(narrow.variance[i]) == _bits(variance)
        assert np.array_equal(_bits(narrow.cdf[i]), _bits(cdf))
    # Every float32 beside every edge, and both signed zeros, occurred.
    f32_edges = edges.astype(np.float32)
    assert np.isin(np.nextafter(f32_edges, np.float32(2)), rows).all()
    assert np.isin(np.nextafter(f32_edges, np.float32(-1)), rows).all()
    assert np.signbit(rows[rows == 0.0]).any() and (~np.signbit(rows[rows == 0.0])).any()

    # The float32s either side of -1e-9 and of 1 + 1e-9 (1 and the next
    # float32 up); each is refused exactly when its float64 value is.
    lo = np.float32(-1e-9)
    tolerance = [np.nextafter(lo, np.float32(-1)), lo, np.nextafter(lo, np.float32(1)),
                 np.float32(1.0), np.nextafter(np.float32(1.0), np.float32(2))]
    for value in tolerance:
        edited = rows.copy(order="K")
        edited[-1, -1] = value  # in the last, partial chunk
        refused = float(value) < -1e-9 or float(value) > 1.0 + 1e-9
        for given_rows in (edited, edited.astype(float)):
            if refused:
                with pytest.raises(ValueError, match="outside"):
                    summarize_samples(given_rows, grid)
            else:
                summarize_samples(given_rows, grid)
    edited = rows.copy(order="K")
    edited[-1, -1] = np.nan
    with pytest.raises(ValueError, match="mean"):
        summarize_samples(edited, grid)


def _split(tensor, sizes):
    """``(points, block)`` pairs of ``tensor`` cut into blocks of ``sizes`` points."""
    ends = np.cumsum(sizes)
    assert ends[-1] == len(tensor)
    return iter([(slice(end - n, end), tensor[end - n:end]) for n, end in zip(sizes, ends)])


@pytest.mark.parametrize(
    "sizes", [[300], [1, 270, 1, 28], [1] * 300], ids=["one-block", "uneven", "one-point"]
)
def test_summarize_blocks_is_bit_exact_however_the_points_are_split(sizes):
    """A block summary equals, bit for bit, the summary of the joined
    tensor, or of its labelled rows, whatever the split: one block,
    one-point blocks, and a block of more rows than one summary chunk."""
    rng = substream(len(sizes), "blocks")
    grid = _RAGGED_GRID
    rows = _edge_case_rows(rng, 300 * 2, 7, grid.inner_edges)
    tensor = rows.reshape(300, 2, 7)
    labels = rng.integers(0, 2, 300)
    assert 270 > _CHUNK
    expected = (
        (None, summarize_samples(tensor, grid)),
        (labels, summarize_samples(tensor[np.arange(300), labels], grid)),
    )
    for given_labels, expect in expected:
        got = summarize_blocks(_split(tensor, sizes), grid, given_labels)
        assert got.shape == expect.shape and got.n_samples == 7 and got.grid == grid
        for name in ("mean", "variance", "cdf"):
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(expect, name)))


def test_summarize_blocks_refuses_an_empty_source_and_unequal_samples():
    grid = BinGrid.uniform(11)
    with pytest.raises(ValueError, match="no points"):
        summarize_blocks(iter([]), grid)
    rng = substream(8, "unequal")
    blocks = [
        (slice(0, 2), rng.uniform(0, 1, (2, 3, 7))), (slice(2, 3), rng.uniform(0, 1, (1, 3, 6))),
    ]
    for labels in (None, np.zeros(3, dtype=int)):
        with pytest.raises(ValueError, match="same number of samples"):
            summarize_blocks(iter(blocks), grid, labels)


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


def test_score_batch_indexing():
    grid = BinGrid.uniform(11)
    rng = substream(6, "batch")
    batch = summarize_samples(rng.uniform(0, 1, (4, 3, 25)), grid)
    assert len(batch) == 4 and batch.shape == (4, 3)
    point = batch[1]
    assert isinstance(point, ScoreBatch) and point.shape == (3,)
    a, b, c = point  # unpacking yields the class rows
    assert isinstance(a, ScoreBatch) and a.shape == () and b.mean == batch.mean[1, 1]
    entries = [batch[i][j] for i in range(4) for j in range(3)]  # row-major
    assert [d.mean for d in entries] == batch.mean.ravel().tolist()
    assert all(type(d.mean) is np.float64 and d.shape == () for d in entries)
    assert [d.mean for p in batch for d in p] == [d.mean for d in entries]


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
    undefined = ok["cdf"].copy()
    undefined[0, 2] = [0.1, np.nan, 0.9]
    for bad in (
        {"n_samples": 1},
        {"mean": mean},
        {"variance": variance},
        {"variance": ok["variance"][:1]},
        {"cdf": falling},
        {"cdf": undefined},
        {"cdf": ok["cdf"][..., :2]},
        {"cdf": ok["cdf"] + 0.2},
    ):
        with pytest.raises(ValueError):
            ScoreBatch(**{**ok, **bad})
