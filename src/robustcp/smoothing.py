"""Randomized smoothing of conformity scores.

A smoothing scheme perturbs an input with random noise; the smooth score
is the expectation of a base score under that noise.  Expectations are
estimated by Monte Carlo and summarized as a :class:`ScoreBatch` (mean,
variance, and the empirical CDF on a fixed bin grid), which is all the
certification routines in :mod:`robustcp.bounds` consume.  A batch holds
any number of summaries as arrays; a single summary is a 0-d batch.
Every batch of many points is built by :func:`summarize_blocks`, from
blocks of whole points: a score tensor's read blocks, or one
Monte-Carlo draw of :func:`score_samples` per point (one noise block
per point, applied to each version of it in turn).

Bit flips are drawn as raw 64-bit words: a word ``w`` makes the double
``(w >> 11) * 2**-53`` under ``rng.random()``, so ``u < p`` is the
integer test ``w < ceil(p * 2**53) * 2**11``, which gives the same bits
and leaves the generator in the same state.  The rule fits Philox (every
:func:`substream`), PCG64, PCG64DXSM and SFC64; :func:`sample_sparse`
refuses any other bit generator, such as MT19937, which builds a double
from two 32-bit words.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "GaussianNoise",
    "SparseFlipNoise",
    "BinGrid",
    "ScoreBatch",
    "substream",
    "subseed",
    "sample_gaussian",
    "sample_sparse",
    "sample_noise",
    "score_samples",
    "summarize_samples",
    "summarize_blocks",
]

# Rows of samples summarized per pass of :func:`summarize_samples`; bounds
# the pass's temporaries to a few copies of this many rows.
_SUMMARY_CHUNK_ROWS = 256

# Bit generators whose ``random()`` double is ``(next_uint64 >> 11) * 2**-53``,
# one raw word per double, so bit flips can be drawn from raw words.
_WORD_GENERATORS = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)

# Batch score oracle: (m, d) perturbed inputs -> (m, n_classes) scores in
# [0, 1], every class from one forward pass, in any layout callers accept
# (the task oracles return a class-major array's transposed view).  The
# generator feeds randomized scores (APS tie-breaks); others ignore it.
ScoreOracle = Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class GaussianNoise:
    """Isotropic Gaussian noise with scale ``sigma`` on continuous inputs."""

    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class SparseFlipNoise:
    """Independent bit flips on binary inputs.

    Zeros flip to one with probability ``p0``, ones flip to zero with
    probability ``p1``.
    """

    p0: float
    p1: float

    def __post_init__(self) -> None:
        for name, p in (("p0", self.p0), ("p1", self.p1)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")


SmoothingScheme = GaussianNoise | SparseFlipNoise


def _component_bytes(part: int | str) -> bytes:
    """Type tag, length prefix and payload of one stream-address component."""
    if isinstance(part, str):
        tag, payload = b"s", part.encode("utf8")
    else:
        value = operator.index(part)  # rejects floats, which would truncate
        tag = b"i"
        payload = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
    return tag + len(payload).to_bytes(8, "big") + payload


def _seed_sequence(seed: int, path: tuple[int | str, ...]) -> np.random.SeedSequence:
    # Tagging and length-prefixing every component makes the encoding
    # injective ("a" vs 97, "x-y" vs "y", trailing zeros, big integers),
    # and a fixed-size digest keeps numpy's entropy padding out of it.
    digest = hashlib.blake2b(
        b"".join(_component_bytes(p) for p in (seed, *path)), digest_size=32
    ).digest()
    return np.random.SeedSequence(entropy=[int(w) for w in np.frombuffer(digest, "<u4")])


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent counter-based generator for a (seed, path) address.

    Streams are keyed by value, not by call order, so estimating a batch
    in any order (or in parallel workers) yields identical draws.  Path
    components may be ints or strings; distinct addresses (including an
    int and a string that spell the same bytes) give distinct streams.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def subseed(seed: int, *path: int | str) -> int:
    """Derived integer seed for the same address space as :func:`substream`.

    Use when an API wants a seed rather than a generator, e.g. to give
    each trial of an experiment its own independent seed.
    """
    return int(_seed_sequence(seed, path).generate_state(1, dtype=np.uint64)[0] % 2**63)


def _feature_rows(x: np.ndarray) -> np.ndarray:
    if x.ndim not in (1, 2):
        raise ValueError("x must be a feature vector or a 2-d stack of them")
    return x


def _gaussian_block(
    x: np.ndarray, sigma: float, n_samples: int, rng: np.random.Generator
) -> Callable[[np.ndarray], np.ndarray]:
    """Draw one scaled Gaussian block for ``x``'s features; return its adder."""
    d = _feature_rows(x).shape[-1]
    noise = rng.standard_normal((n_samples, d))
    noise *= sigma
    return lambda rows: (np.asarray(rows, dtype=float)[..., None, :] + noise).reshape(-1, d)


def sample_gaussian(
    x: np.ndarray, sigma: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_samples`` Gaussian perturbations of ``x``.

    ``x`` of shape (d,) gives (n_samples, d).  A stack of shape (k, d)
    gives (k * n_samples, d), row-major by input, with one noise block
    shared by every input (common random numbers).
    """
    x = np.asarray(x, dtype=float)
    return _gaussian_block(x, sigma, n_samples, rng)(x)


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """``rng.random() < p`` for the doubles these raw words make, without making them."""
    # (w >> 11) * 2**-53 < p  <=>  w < ceil(p * 2**53) * 2**11, a bound
    # that is 2**64, past every word, at p = 1.
    if p == 1.0:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(math.ceil(p * 2.0**53) << 11)


def _flip_block(
    x: np.ndarray, p0: float, p1: float, n_samples: int, rng: np.random.Generator
) -> Callable[[np.ndarray], np.ndarray]:
    """Check binary ``x``, draw one block of flip masks for its features; return its flipper."""
    for name, p in (("p0", p0), ("p1", p1)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not isinstance(rng.bit_generator, _WORD_GENERATORS):
        raise TypeError(
            "sparse smoothing needs a generator whose doubles come from one 64-bit word "
            f"(Philox, PCG64, PCG64DXSM or SFC64), not {type(rng.bit_generator).__name__}"
        )
    d = _feature_rows(x).shape[-1]
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("sparse smoothing requires binary features")
    words = rng.bit_generator.random_raw((n_samples, d))
    flip0 = _below(words, p0)  # a zero turns on
    stay1 = _below(words, p1)
    del words
    np.logical_not(stay1, out=stay1)  # a one stays on
    differ = flip0 ^ stay1

    def flipped(rows: np.ndarray) -> np.ndarray:
        # flip0 ^ (on & (flip0 ^ stay1)): stay1 where a bit is on, flip0 where off.
        out = (np.asarray(rows) == 1)[..., None, :] & differ
        out ^= flip0
        return out.view(np.int8).reshape(-1, d)

    return flipped


def sample_sparse(
    x: np.ndarray, p0: float, p1: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_samples`` bit-flip perturbations of binary ``x``, as int8.

    Shapes follow :func:`sample_gaussian`.  One block of uniforms ``u`` is
    shared by every input of a stack, and each input flips its own bits
    by their own value (``u < p1`` on ones, ``u < p0`` on zeros), so the
    law of every input's noise is exact.

    The block is drawn as raw 64-bit words, and ``u < p`` is the word
    test ``w < ceil(p * 2**53) * 2**11`` (every word passes at ``p = 1``):
    the bits of ``rng.random((n_samples, d)) < p``, with ``rng`` left in
    the same state.  That holds for Philox, PCG64, PCG64DXSM and SFC64;
    any other bit generator (MT19937 builds a double from two 32-bit
    words) is refused with ``TypeError``.  A rate outside [0, 1], or NaN,
    is refused with ``ValueError``.
    """
    x = np.asarray(x)
    return _flip_block(x, p0, p1, n_samples, rng)(x)


def sample_noise(
    x: np.ndarray, scheme: SmoothingScheme, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Perturb ``x`` (one input or a stack) under either smoothing scheme."""
    if isinstance(scheme, GaussianNoise):
        return sample_gaussian(x, scheme.sigma, n_samples, rng)
    if isinstance(scheme, SparseFlipNoise):
        return sample_sparse(x, scheme.p0, scheme.p1, n_samples, rng)
    raise TypeError(f"unknown smoothing scheme: {scheme!r}")


@dataclass(frozen=True)
class BinGrid:
    """Nondecreasing bin edges spanning [0, 1] for binned-CDF summaries.

    The first and last pairs of edges must be strictly increasing; the
    CDF is recorded at the interior edges only (the endpoints are pinned
    to 0 and 1 by the score range).
    """

    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        object.__setattr__(self, "edges", edges)
        if edges.ndim != 1 or edges.size < 3:
            raise ValueError("grid needs at least 3 edges")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError("grid must span [0, 1]")
        if np.any(np.diff(edges) < 0):
            raise ValueError("grid edges must be nondecreasing")
        if not (edges[0] < edges[1] and edges[-2] < edges[-1]):
            raise ValueError("first and last edge pairs must be strictly increasing")

    @classmethod
    def uniform(cls, n_edges: int = 51) -> "BinGrid":
        return cls(edges=np.linspace(0.0, 1.0, n_edges))

    @property
    def inner_edges(self) -> np.ndarray:
        return self.edges[1:-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinGrid) and np.array_equal(self.edges, other.edges)

    def __hash__(self) -> int:
        return hash(self.edges.tobytes())


def _check_summaries(n_samples, mean, variance, cdf, n_edges: int) -> None:
    """Validate summaries of any batch shape at once (a scalar mean is one summary)."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if not np.all((0.0 <= mean) & (mean <= 1.0)):
        raise ValueError("mean must lie in [0, 1]")
    # Unbiased variance of a [0, 1] variable is at most m / (4 (m-1)).
    cap = 0.25 * n_samples / (n_samples - 1)
    if np.shape(variance) != np.shape(mean) or not np.all(
        (0.0 <= variance) & (variance <= cap + 1e-12)
    ):
        raise ValueError("variance outside the feasible range for [0, 1] scores")
    if cdf.shape != np.shape(mean) + (n_edges,):
        raise ValueError("cdf must have one value per interior grid edge")
    if not np.all((0.0 <= cdf) & (cdf <= 1.0)) or np.any(np.diff(cdf, axis=-1) < -1e-12):
        raise ValueError("cdf values must be nondecreasing within [0, 1]")


def _trusted(n_samples, mean, variance, grid, cdf) -> "ScoreBatch":
    """A :class:`ScoreBatch` from fields already validated, in a larger batch or in pieces."""
    obj = object.__new__(ScoreBatch)
    for name, value in (
        ("n_samples", n_samples), ("mean", mean), ("variance", variance),
        ("grid", grid), ("cdf", cdf),
    ):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class ScoreBatch:
    """Monte-Carlo summaries of smooth scores, as arrays.

    Attributes
    ----------
    n_samples : int
        Number of Monte-Carlo draws behind every entry (at least 2).
    mean : np.ndarray or np.float64
        Sample means in [0, 1], of the batch shape, e.g. ``(points,)`` or
        ``(points, classes)``.
    variance : np.ndarray or np.float64
        Unbiased sample variances, of the batch shape.
    grid : BinGrid
        Bin edges every CDF is recorded on.
    cdf : np.ndarray
        Fraction of draws <= each interior edge: the batch shape plus
        one nondecreasing axis of edges.

    A single summary is a 0-d batch, whose ``mean`` and ``variance`` are
    numpy scalars.  The whole batch is validated once, on construction.
    ``len``, indexing and iteration follow the leading axis; the entries
    they yield are smaller batches that are not validated again.
    """

    n_samples: int
    mean: np.ndarray
    variance: np.ndarray
    grid: BinGrid
    cdf: np.ndarray

    def __post_init__(self) -> None:
        # ``[()]`` turns a 0-d array into a numpy scalar and leaves others be.
        for name in ("mean", "variance"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float)[()])
        object.__setattr__(self, "cdf", np.asarray(self.cdf, dtype=float))
        object.__setattr__(self, "n_samples", int(self.n_samples))
        _check_summaries(
            self.n_samples, self.mean, self.variance, self.cdf, self.grid.inner_edges.size
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mean.shape

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a batch of one summary")
        return self.shape[0]

    def __getitem__(self, index) -> "ScoreBatch":
        return _trusted(
            self.n_samples, self.mean[index][()], self.variance[index][()],
            self.grid, self.cdf[index],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


# ``bench/test_smoke.py`` builds a single summary under this name; the
# alias goes once the benchmark stops importing it.
ScoreDistribution = ScoreBatch


def _float32_floor(values: np.ndarray) -> np.ndarray:
    """The largest float32 not above each value, so ``x <= v`` is ``x <= floor`` for float32 ``x``."""
    near = values.astype(np.float32)
    return np.where(near > values, np.nextafter(near, np.float32(-np.inf)), near)


def summarize_samples(samples: np.ndarray, grid: BinGrid) -> ScoreBatch:
    """Summarize every row of raw smooth-score samples on ``grid``.

    ``samples`` has a batch shape plus one trailing axis of at least 2
    draws; the result has that batch shape (a 1-d row gives a 0-d batch).
    Each entry equals, bit for bit, the summary of its row alone: the row's mean, its unbiased
    variance, and the fraction of its draws <= each interior edge.
    Scores within 1e-9 of the [0, 1] boundary are clipped; anything
    farther out is a contract violation.  Rows are summarized a fixed
    number at a time, so the temporaries stay small at any batch size.

    float32 samples (a packed tensor's blocks) give the bits of the same
    samples widened to float64: the moments come from a float64 copy,
    and the sort and counts stay in float32 against each edge rounded
    down to float32.  Any other dtype is read as float64.
    """
    samples = np.asarray(samples)
    narrow = samples.dtype == np.float32
    if not narrow:
        samples = samples.astype(float, copy=False)
    if samples.ndim < 1 or samples.shape[-1] < 2:
        raise ValueError("need at least 2 samples per row")
    batch_shape, m = samples.shape[:-1], samples.shape[-1]
    rows = samples.reshape(-1, m)
    edges = grid.inner_edges
    keys = _float32_floor(edges) if narrow else edges
    mean = np.empty(rows.shape[0])
    variance = np.empty(rows.shape[0])
    cdf = np.empty((rows.shape[0], edges.size))
    for start in range(0, rows.shape[0], _SUMMARY_CHUNK_ROWS):
        part = slice(start, start + _SUMMARY_CHUNK_ROWS)
        block = rows[part]
        # A NaN fails neither comparison; ScoreBatch rejects its NaN mean.
        # float() makes the tolerance a float64 one for float32 blocks too.
        if float(block.min()) < -1e-9 or float(block.max()) > 1.0 + 1e-9:
            raise ValueError("score oracle produced values outside [0, 1]")
        # One clipped, C-ordered copy: reducing along a strided axis (a
        # transposed view, say) would sum in another order and change the
        # last bits.
        chunk = np.clip(block, 0.0, 1.0, out=np.empty(block.shape))
        chunk_mean = chunk.mean(axis=1)
        mean[part] = chunk_mean
        # np.var(ddof=1)'s own steps from the mean just taken, so the bits
        # match without its second mean pass.
        dev = chunk - chunk_mean[:, None]
        dev *= dev
        variance[part] = dev.sum(axis=1) / (m - 1)
        if narrow:
            # Widening is exact, so a float32 sort orders the same values.
            chunk = np.clip(block, 0.0, 1.0, out=np.empty(block.shape, dtype=np.float32))
        chunk.sort(axis=1)
        counts = np.empty((chunk.shape[0], edges.size), dtype=np.intp)
        for row, out in zip(chunk, counts):
            out[:] = row.searchsorted(keys, "right")
        np.divide(counts, m, out=cdf[part])
    return ScoreBatch(
        n_samples=m,
        mean=mean.reshape(batch_shape),
        variance=variance.reshape(batch_shape),
        grid=grid,
        cdf=cdf.reshape(batch_shape + (edges.size,)),
    )


def summarize_blocks(
    blocks: Iterable[tuple[slice, np.ndarray]], grid: BinGrid, labels: np.ndarray | None = None
) -> ScoreBatch:
    """One batch from ``(points, block)`` pairs of ``(k, classes, samples)`` scores.

    The pairs come in point order, as :func:`robustcp.formats.read_score_blocks`
    yields them, and each block is summarized with :func:`summarize_samples`
    as it arrives, so no source is ever held whole.  The result is a
    ``(points, classes)`` batch, or with ``labels`` a ``(points,)`` batch
    of each point's labelled row only.  Every entry has the bits of its
    row summarized alone, however the points are split into blocks.
    """
    parts = []
    for points, block in blocks:
        if labels is not None:
            block = block[np.arange(len(block)), labels[points]]
        parts.append(summarize_samples(block, grid))
    if not parts:
        raise ValueError("no points to summarize")
    m = parts[0].n_samples
    if any(part.n_samples != m for part in parts):
        raise ValueError("every block must have the same number of samples")
    mean, variance, cdf = (
        np.concatenate([getattr(part, name) for part in parts])
        for name in ("mean", "variance", "cdf")
    )
    # summarize_samples validated every piece.
    return _trusted(m, mean, variance, grid, cdf)


def _noise_block(
    x: np.ndarray, scheme: SmoothingScheme, n_samples: int, rng: np.random.Generator
) -> Callable[[np.ndarray], np.ndarray]:
    """Check ``x`` and draw one noise block of ``scheme`` for it; return its applier."""
    if isinstance(scheme, GaussianNoise):
        return _gaussian_block(x, scheme.sigma, n_samples, rng)
    if isinstance(scheme, SparseFlipNoise):
        return _flip_block(x, scheme.p0, scheme.p1, n_samples, rng)
    raise TypeError(f"unknown smoothing scheme: {scheme!r}")


def score_samples(
    score_fn: ScoreOracle,
    x: np.ndarray,
    scheme: SmoothingScheme,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Every class's score at ``n_samples`` noisy copies of ``x``, shape (n_samples, n_classes).

    One noise batch and one oracle call; ``rng`` feeds the noise first,
    then any randomness inside the oracle.
    """
    if np.ndim(x) != 1:
        raise ValueError("x must be one feature vector")
    return next(_scores_by_version(score_fn, x, scheme, n_samples, rng))


def _scores_by_version(
    score_fn: ScoreOracle,
    x: np.ndarray,
    scheme: SmoothingScheme,
    n_samples: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Yield :func:`score_samples` of every version of one point, one at a time.

    ``x`` is one input or a ``(versions, d)`` stack of versions of it (say,
    a clean input and its attacked copies).  The noise block is drawn once
    and applied to one version at a time, so no stack of noisy copies of
    every version is made, and every version's oracle call starts from the
    generator state right after the draw, so each version gets the scores
    it would get alone.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    x = np.asarray(x)
    apply = _noise_block(x, scheme, n_samples, rng)
    after_draw = rng.bit_generator.state if x.ndim == 2 else None
    for version in x.reshape(-1, x.shape[-1]):
        if after_draw is not None:
            rng.bit_generator.state = after_draw
        scores = np.asarray(score_fn(apply(version), rng), dtype=float)
        if scores.ndim != 2 or scores.shape[0] != n_samples:
            raise ValueError("score oracle must return one row of class scores per sample")
        yield scores
