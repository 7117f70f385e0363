"""Worst-case bounds on smooth scores over a threat model.

Given the distribution of a smooth score measured at one point, these
routines bound the smooth score after the input moves anywhere inside a
perturbation ball.  Two families are covered:

* Gaussian noise with L2 balls, where the worst case has a closed form
  in the Gaussian CDF.
* Bit-flip noise with addition/deletion balls, where the worst case is
  a small linear program over constant-likelihood-ratio regions, solved
  exactly by a greedy fill.

For each family there is a mean-only bound (uses just the smooth mean)
and a binned-CDF bound (uses the empirical CDF on a grid, one transfer
problem per interior edge, recombined by partial summation).  The CDF
route is what makes the certified sets competitive; the mean route is
the classic baseline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError
from .smoothing import GaussianNoise, ScoreDistribution, SmoothingScheme, SparseFlipNoise

__all__ = [
    "L2Ball",
    "BinaryBall",
    "RegionTable",
    "gaussian_mean_upper",
    "gaussian_mean_lower",
    "gaussian_cdf_upper",
    "gaussian_cdf_lower",
    "build_region_table",
    "sparse_mean_upper",
    "sparse_mean_lower",
    "sparse_cdf_upper",
    "sparse_cdf_lower",
    "bound_for_clean",
]


@dataclass(frozen=True)
class L2Ball:
    """Perturbations of Euclidean norm at most ``radius``."""

    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")

    def reversed(self) -> L2Ball:
        """The ball around a perturbed point that holds its clean point: the same ball."""
        return self


@dataclass(frozen=True)
class BinaryBall:
    """Perturbations adding at most ``additions`` one-bits and deleting at most ``deletions``."""

    additions: int
    deletions: int

    def __post_init__(self) -> None:
        if self.additions < 0 or self.deletions < 0:
            raise ValueError("flip budgets must be nonnegative")

    def reversed(self) -> BinaryBall:
        """The ball around a perturbed point that holds its clean point.

        Undoing the perturbation deletes the one-bits it added and adds
        back the ones it deleted, so the two budgets swap.
        """
        return BinaryBall(additions=self.deletions, deletions=self.additions)


ThreatModel = L2Ball | BinaryBall


# ---------------------------------------------------------------- Gaussian --


def _check_prob(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    return float(p)


def gaussian_mean_upper(p: float, radius: float, sigma: float) -> float:
    """Largest smooth mean reachable within an L2 ball of ``radius``.

    For a [0, 1]-valued score smoothed with N(0, sigma^2 I), a measured
    mean ``p`` at one point bounds the mean at any point within distance
    ``radius`` by ``Phi(Phi^{-1}(p) + radius / sigma)``.  The endpoints
    p in {0, 1} are fixed points: Gaussian measures at different centres
    are mutually absolutely continuous.
    """
    p = _check_prob(p)
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if radius == 0.0:
        # Exact identity; ndtr(ndtri(p)) would round-trip with ~1 ulp error.
        return p
    return float(ndtr(ndtri(p) + radius / sigma))


def gaussian_mean_lower(p: float, radius: float, sigma: float) -> float:
    """Smallest smooth mean reachable within an L2 ball of ``radius``."""
    p = _check_prob(p)
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if radius == 0.0:
        return p
    return float(ndtr(ndtri(p) - radius / sigma))


def gaussian_cdf_upper(dist: ScoreDistribution, radius: float, sigma: float) -> float:
    """Upper bound on the smooth mean within an L2 ball, from the binned CDF.

    Each interior edge's CDF value is first driven to its worst (lowest)
    reachable value, then the worst-case CDF is integrated against the
    grid by partial summation.  At ``radius = 0`` this is the classic
    stochastic-dominance upper bound for a binned CDF.
    """
    edges = dist.grid.edges
    worst_cdf = ndtr(ndtri(dist.cdf) - radius / sigma)
    return float(edges[-1] - np.sum(worst_cdf * (edges[2:] - edges[1:-1])))


def gaussian_cdf_lower(dist: ScoreDistribution, radius: float, sigma: float) -> float:
    """Lower bound on the smooth mean within an L2 ball, from the binned CDF."""
    edges = dist.grid.edges
    worst_cdf = ndtr(ndtri(dist.cdf) + radius / sigma)
    return float(edges[-2] - np.sum(worst_cdf * (edges[1:-1] - edges[:-2])))


# ------------------------------------------------------------------ sparse --


@dataclass(frozen=True)
class RegionTable:
    """Constant-likelihood-ratio partition for a pair of bit-flip centres.

    For binary x and the worst-case perturbed point with exactly
    ``additions`` extra one-bits and ``deletions`` removed one-bits, the
    noise outcomes split into additions + deletions + 1 regions on which
    the density ratio clean/perturbed is constant.

    Attributes
    ----------
    clean_mass : np.ndarray
        Noise mass of each region around the measured point.
    adv_mass : np.ndarray
        Noise mass of each region around the perturbed point.
    ratio : np.ndarray
        clean_mass / adv_mass per region (inf where adv_mass is 0).
    """

    clean_mass: np.ndarray
    adv_mass: np.ndarray
    ratio: np.ndarray

    def __post_init__(self) -> None:
        t, tt = self.clean_mass, self.adv_mass
        if t.shape != tt.shape or t.ndim != 1 or t.size == 0:
            raise ValueError("region masses must be matching nonempty 1-d arrays")
        if np.any(t < 0) or np.any(tt < 0):
            raise ValueError("region masses must be nonnegative")
        for total in (t.sum(), tt.sum()):
            if abs(total - 1.0) > 1e-9:
                raise ValueError("region masses must sum to 1")


def build_region_table(
    additions: int, deletions: int, p0: float, p1: float
) -> RegionTable:
    """Region masses and ratios for a worst-case pair at the given flip radii.

    Region index i counts deleted one-bits that stayed deleted plus
    added one-bits that stayed added, so i runs from 0 to
    additions + deletions and splits as a sum of two binomials; the
    masses are their convolution, which keeps everything finite for
    radii far beyond what the certificates need.
    """
    if additions < 0 or deletions < 0:
        raise ValueError("flip radii must be nonnegative")
    scheme = SparseFlipNoise(p0=p0, p1=p1)  # validates the flip probabilities
    p0, p1 = scheme.p0, scheme.p1
    # Around the measured point: one-bits survive w.p. 1 - p1, zero-bits
    # flip w.p. p0; the region index is (deletions - survivors) + flips.
    del_clean = stats.binom.pmf(np.arange(deletions + 1), deletions, p1)
    add_clean = stats.binom.pmf(np.arange(additions + 1), additions, p0)
    clean = np.convolve(del_clean, add_clean)
    # Around the perturbed point the roles of the two coordinate blocks
    # swap: its zero-bits (the deleted ones) flip w.p. p0, its one-bits
    # (the added ones) survive w.p. 1 - p1.
    del_adv = stats.binom.pmf(np.arange(deletions + 1), deletions, 1.0 - p0)
    add_adv = stats.binom.pmf(np.arange(additions + 1), additions, 1.0 - p1)
    adv = np.convolve(del_adv, add_adv)
    # Drop regions that neither centre can reach (exact zeros at p = 0).
    keep = (clean > 0.0) | (adv > 0.0)
    clean, adv = clean[keep], adv[keep]
    with np.errstate(divide="ignore"):
        ratio = np.where(adv > 0.0, clean / np.where(adv > 0.0, adv, 1.0), np.inf)
    return RegionTable(clean_mass=clean, adv_mass=adv, ratio=ratio)


@functools.lru_cache(maxsize=32)
def _region_table(additions: int, deletions: int, p0: float, p1: float) -> RegionTable:
    """Shared, read-only region table for the bound dispatchers.

    A run certifies against a handful of (radii, noise) settings, so a
    small cache serves every bound call after the first per setting.
    """
    table = build_region_table(additions, deletions, p0, p1)
    for values in (table.clean_mass, table.adv_mass, table.ratio):
        values.flags.writeable = False
    return table


def _greedy_transfer(budgets: np.ndarray, table: RegionTable, maximize: bool) -> np.ndarray:
    """Exact extreme of sum(h * adv_mass) s.t. sum(h * clean_mass) = budget, 0 <= h <= 1.

    The optimum fills regions in likelihood-ratio order (cheapest clean
    mass per unit of adversarial mass first when maximizing), with one
    fractional region on the boundary.  Regions with zero clean mass are
    free: all-in when maximizing, untouched when minimizing.
    """
    budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
    if np.any(budgets < -1e-12) or np.any(budgets > 1.0 + 1e-12):
        raise ValueError("budgets must lie in [0, 1]")
    pos = table.clean_mass > 0.0
    base = table.adv_mass[~pos].sum() if maximize else 0.0
    t = table.clean_mass[pos]
    tt = table.adv_mass[pos]
    order = np.argsort(table.ratio[pos], kind="stable")
    if not maximize:
        order = order[::-1]
    cum_t = np.concatenate(([0.0], np.cumsum(t[order])))
    cum_tt = np.concatenate(([0.0], np.cumsum(tt[order])))
    b = np.clip(budgets, 0.0, cum_t[-1])
    j = np.searchsorted(cum_t, b, side="right") - 1
    value = cum_tt[j].copy()
    inside = j < t.size
    ji = j[inside]
    value[inside] += (b[inside] - cum_t[ji]) / t[order][ji] * tt[order][ji]
    return base + value


def sparse_mean_upper(p: float, table: RegionTable) -> float:
    """Largest smooth mean at the perturbed point given mean ``p`` at the measured one."""
    return float(_greedy_transfer(np.array([_check_prob(p)]), table, maximize=True)[0])


def sparse_mean_lower(p: float, table: RegionTable) -> float:
    """Smallest smooth mean at the perturbed point given mean ``p`` at the measured one."""
    return float(_greedy_transfer(np.array([_check_prob(p)]), table, maximize=False)[0])


def sparse_cdf_upper(dist: ScoreDistribution, table: RegionTable) -> float:
    """Upper bound on the smooth mean at the perturbed point from the binned CDF.

    One transfer problem per interior edge drives each CDF value to its
    lowest reachable value; partial summation turns the worst-case CDF
    into a mean bound.
    """
    edges = dist.grid.edges
    worst_cdf = _greedy_transfer(dist.cdf, table, maximize=False)
    return float(edges[-1] - np.sum(worst_cdf * (edges[2:] - edges[1:-1])))


def sparse_cdf_lower(dist: ScoreDistribution, table: RegionTable) -> float:
    """Lower bound on the smooth mean at the perturbed point from the binned CDF."""
    edges = dist.grid.edges
    worst_cdf = _greedy_transfer(dist.cdf, table, maximize=True)
    return float(edges[-2] - np.sum(worst_cdf * (edges[1:-1] - edges[:-2])))


# ------------------------------------------------------------- dispatchers --


def bound_for_clean(
    dist: ScoreDistribution,
    model: ThreatModel,
    scheme: SmoothingScheme,
    direction: str,
    kind: str,
) -> float:
    """Bound the smooth score over the ball around the measured (clean) point.

    Parameters
    ----------
    dist : ScoreDistribution
        Smooth-score summary measured at the point the ball is centred on.
    model : L2Ball or BinaryBall
        Ball around the measured point.  When that point may already be
        the adversary's perturbation, pass ``model.reversed()``: the
        clean point lies in the reversed ball around it.
    scheme : GaussianNoise or SparseFlipNoise
        Smoothing noise; must match the threat model family.
    direction : {"upper", "lower"}
    kind : {"mean", "cdf"}
        Mean-only bound or binned-CDF bound.
    """
    if direction not in ("upper", "lower"):
        raise ValueError("direction must be 'upper' or 'lower'")
    if kind not in ("mean", "cdf"):
        raise ValueError("kind must be 'mean' or 'cdf'")
    if isinstance(model, L2Ball) and isinstance(scheme, GaussianNoise):
        r, s = model.radius, scheme.sigma
        if kind == "mean":
            fn = gaussian_mean_upper if direction == "upper" else gaussian_mean_lower
            return fn(dist.mean, r, s)
        fn = gaussian_cdf_upper if direction == "upper" else gaussian_cdf_lower
        return fn(dist, r, s)
    if isinstance(model, BinaryBall) and isinstance(scheme, SparseFlipNoise):
        table = _region_table(model.additions, model.deletions, scheme.p0, scheme.p1)
        if kind == "mean":
            fn = sparse_mean_upper if direction == "upper" else sparse_mean_lower
            return fn(dist.mean, table)
        fn = sparse_cdf_upper if direction == "upper" else sparse_cdf_lower
        return fn(dist, table)
    raise ConfigurationError(
        f"threat model {type(model).__name__} is incompatible with "
        f"smoothing scheme {type(scheme).__name__}"
    )

