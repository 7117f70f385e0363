"""Randomized smoothing of conformity scores.

A smoothing scheme perturbs an input with random noise; the smooth score
is the expectation of a base score under that noise.  Expectations are
estimated by Monte Carlo and summarized as a :class:`ScoreBatch` (mean,
variance, and the empirical CDF on a fixed bin grid), which is all the
certification routines in :mod:`robustcp.bounds` consume.  A batch holds
any number of summaries as arrays; a single summary is a 0-d batch.
Every batch of many points is built by :func:`summarize_blocks`, from
blocks of whole points: a score tensor's read blocks, or one
Monte-Carlo draw of :func:`score_samples` per point.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

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

# Batch score oracle: maps an (m, d) array of perturbed inputs to an
# (m, n_classes) array of scores in [0, 1], every class from one forward
# pass.  The generator argument feeds randomized scores (e.g. a fresh
# tie-break draw per noisy sample); deterministic oracles ignore it.
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


def sample_gaussian(
    x: np.ndarray, sigma: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_samples`` Gaussian perturbations of ``x``.

    ``x`` of shape (d,) gives (n_samples, d).  A stack of shape (k, d)
    gives (k * n_samples, d), row-major by input, with one noise block
    shared by every input (common random numbers).
    """
    x = _feature_rows(np.asarray(x, dtype=float))
    noise = rng.standard_normal((n_samples, x.shape[-1]))
    noise *= sigma
    return (x[..., None, :] + noise).reshape(-1, x.shape[-1])


def sample_sparse(
    x: np.ndarray, p0: float, p1: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_samples`` bit-flip perturbations of binary ``x``.

    Shapes follow :func:`sample_gaussian`.  One block of uniforms ``u`` is
    shared by every input of a stack, and each input flips its own bits
    by their own value (``u < p1`` on ones, ``u < p0`` on zeros), so the
    law of every input's noise is exact.
    """
    x = _feature_rows(np.asarray(x))
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("sparse smoothing requires binary features")
    x = x.astype(np.int8)[..., None, :]
    u = rng.random((n_samples, x.shape[-1]))
    return (x ^ (u < np.where(x == 1, p1, p0))).reshape(-1, x.shape[-1])


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


def summarize_samples(samples: np.ndarray, grid: BinGrid) -> ScoreBatch:
    """Summarize every row of raw smooth-score samples on ``grid``.

    ``samples`` has a batch shape plus one trailing axis of at least 2
    draws; the result has that batch shape (a 1-d row gives a 0-d batch).
    Each entry equals, bit for bit, the summary of its row alone: the row's mean, its unbiased
    variance, and the fraction of its draws <= each interior edge.
    Scores within 1e-9 of the [0, 1] boundary are clipped; anything
    farther out is a contract violation.  Rows are summarized a fixed
    number at a time, so the temporaries stay small at any batch size.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 1 or samples.shape[-1] < 2:
        raise ValueError("need at least 2 samples per row")
    batch_shape, m = samples.shape[:-1], samples.shape[-1]
    rows = samples.reshape(-1, m)
    edges = grid.inner_edges
    mean = np.empty(rows.shape[0])
    variance = np.empty(rows.shape[0])
    cdf = np.empty((rows.shape[0], edges.size))
    for start in range(0, rows.shape[0], _SUMMARY_CHUNK_ROWS):
        part = slice(start, start + _SUMMARY_CHUNK_ROWS)
        block = rows[part]
        # A NaN fails neither comparison; ScoreBatch rejects its NaN mean.
        if block.min() < -1e-9 or block.max() > 1.0 + 1e-9:
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
        chunk.sort(axis=1)
        counts = np.empty((chunk.shape[0], edges.size), dtype=np.intp)
        for row, out in zip(chunk, counts):
            out[:] = row.searchsorted(edges, "right")
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
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    scores = np.asarray(score_fn(sample_noise(x, scheme, n_samples, rng), rng), dtype=float)
    if scores.ndim != 2 or scores.shape[0] != n_samples:
        raise ValueError("score oracle must return one row of class scores per sample")
    return scores
