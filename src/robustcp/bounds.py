"""Worst-case bounds on smooth scores over a threat model.

Given the summaries of smooth scores measured at some points (a
:class:`~robustcp.smoothing.ScoreBatch` of any shape),
:func:`bound_batch` bounds every entry's smooth score after its input
moves anywhere inside a perturbation ball, in one array pass over the
batch; :func:`bound_for_clean` is its single-summary case.  Each noise
family has one *push*, which moves probabilities elementwise to their
worst reachable values over the ball:

* Gaussian noise with L2 balls: the closed form
  ``Phi(Phi^{-1}(p) +/- radius / sigma)`` (:func:`gaussian_transfer`).
* Bit-flip noise with addition/deletion balls: a small linear program
  over constant-likelihood-ratio regions, solved exactly by a greedy
  fill (:func:`sparse_transfer`).

The mean route pushes the smooth mean.  The binned-CDF route pushes the
empirical CDF at every interior edge of the grid and recombines the
edges by partial summation.  The CDF route is what makes the certified
sets competitive; the mean route is the classic baseline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError
from .smoothing import GaussianNoise, ScoreBatch, SmoothingScheme, SparseFlipNoise

__all__ = [
    "L2Ball",
    "BinaryBall",
    "RegionTable",
    "gaussian_transfer",
    "build_region_table",
    "sparse_transfer",
    "bound_batch",
    "bound_for_clean",
]


@dataclass(frozen=True)
class L2Ball:
    """Perturbations of Euclidean norm at most ``radius``."""

    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0.0:
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


def _check_probs(p) -> np.ndarray:
    """A float copy of ``p``, whose every element must lie in [0, 1]."""
    p = np.array(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    return p


def _gaussian_push(p, shift: float):
    """``Phi(Phi^{-1}(p) + shift)`` elementwise, unvalidated."""
    return ndtr(ndtri(p) + shift)


def gaussian_transfer(p, radius: float, sigma: float, increase: bool):
    """Extreme probability reachable within an L2 ball under Gaussian smoothing.

    For a [0, 1]-valued function smoothed with N(0, sigma^2 I), a value
    ``p`` measured at one point bounds its value at any point within
    distance ``radius`` by ``Phi(Phi^{-1}(p) + radius / sigma)`` from
    above (``increase``) and by ``Phi(Phi^{-1}(p) - radius / sigma)``
    from below.  The endpoints p in {0, 1} are fixed points: Gaussian
    measures at different centres are mutually absolutely continuous.
    Elementwise over an array of any shape; a 0-d input gives a numpy
    scalar.  At ``radius = 0`` the values come back unchanged.
    """
    p = _check_probs(p)
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if radius == 0.0:
        # Exact identity; ndtr(ndtri(p)) would round-trip with ~1 ulp error.
        return p[()]
    shift = radius / sigma
    return _gaussian_push(p, shift if increase else -shift)[()]


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


@dataclass(frozen=True)
class _GreedyPlan:
    """A region table laid out for the greedy fill in one direction.

    Regions with positive clean mass come in fill order, followed by one
    sentinel region (clean mass 1, adversarial mass 0) so that a budget
    that fills every region gathers a zero fractional term instead of
    needing a mask.  ``cum_clean`` and ``cum_adv`` are the cumulative
    masses in that order, each starting at 0; ``base`` is the adversarial
    mass taken for free.
    """

    base: float
    cum_clean: np.ndarray
    cum_adv: np.ndarray
    clean: np.ndarray
    adv: np.ndarray


def _greedy_plan(table: RegionTable, maximize: bool) -> _GreedyPlan:
    """The fill order and cumulative masses of ``table`` (see :func:`_greedy_transfer`)."""
    pos = table.clean_mass > 0.0
    base = table.adv_mass[~pos].sum() if maximize else 0.0
    order = np.argsort(table.ratio[pos], kind="stable")
    if not maximize:
        order = order[::-1]
    t, tt = table.clean_mass[pos][order], table.adv_mass[pos][order]
    return _GreedyPlan(
        base=base,
        cum_clean=np.concatenate(([0.0], np.cumsum(t))),
        cum_adv=np.concatenate(([0.0], np.cumsum(tt))),
        clean=np.append(t, 1.0),
        adv=np.append(tt, 0.0),
    )


@functools.lru_cache(maxsize=64)
def _sparse_plan(
    additions: int, deletions: int, p0: float, p1: float, maximize: bool
) -> _GreedyPlan:
    """Shared, read-only greedy plan of the cached region table, for the dispatcher."""
    plan = _greedy_plan(_region_table(additions, deletions, p0, p1), maximize)
    for values in (plan.cum_clean, plan.cum_adv, plan.clean, plan.adv):
        values.flags.writeable = False
    return plan


def _greedy_transfer(budgets, plan: _GreedyPlan):
    """Exact extreme of sum(h * adv_mass) s.t. sum(h * clean_mass) = budget, 0 <= h <= 1.

    The optimum fills regions in likelihood-ratio order (cheapest clean
    mass per unit of adversarial mass first when maximizing), with one
    fractional region on the boundary.  Regions with zero clean mass are
    free: all-in when maximizing, untouched when minimizing.  Budgets
    must lie in [0, 1] (unchecked); the result has their shape.  The
    arithmetic runs in place on the clipped budgets, so at most one
    gather lives beside them and the index.
    """
    b = np.clip(budgets, 0.0, plan.cum_clean[-1])
    j = np.searchsorted(plan.cum_clean, b, side="right")
    j -= 1
    b -= plan.cum_clean[j]
    b /= plan.clean[j]
    b *= plan.adv[j]
    b += plan.cum_adv[j]
    b += plan.base
    return b


def sparse_transfer(p, table: RegionTable, increase: bool):
    """Extreme probability reachable within a bit-flip ball, from its region table.

    A [0, 1]-valued function smoothed with bit-flip noise, with value
    ``p`` at the measured point, can reach at most (``increase``) or at
    least this value at the perturbed point that ``table`` describes.
    The bound is the exact optimum of the transfer problem over the
    table's constant-likelihood-ratio regions.  Elementwise over an
    array of any shape; a 0-d input gives a numpy scalar.
    """
    return _greedy_transfer(_check_probs(p), _greedy_plan(table, increase))[()]


# ------------------------------------------------------------- dispatchers --


def bound_batch(
    batch: ScoreBatch,
    model: ThreatModel,
    scheme: SmoothingScheme,
    direction: str,
    kind: str,
) -> np.ndarray:
    """Bound the smooth score of every entry over the ball around its measured point.

    Each family has one push, which moves a probability to its extreme
    over the ball (:func:`gaussian_transfer`, :func:`sparse_transfer`).
    The mean route pushes the smooth means the way of the bound.  The CDF
    route pushes the binned CDF at every interior edge the other way
    and integrates the result against the grid by partial summation; at
    a zero radius it is the classic stochastic-dominance bound of a
    binned CDF.  The whole batch is pushed and summed at once into one
    bound per entry, of the batch's shape (a numpy scalar for a 0-d
    batch); each has the bits of the same computation on its entry alone.

    Parameters
    ----------
    batch : ScoreBatch
        Smooth-score summaries measured at the points the ball is centred on.
    model : L2Ball or BinaryBall
        Ball around each measured point.  When that point may already be
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
    upper = direction == "upper"
    if kind == "mean":
        values, increase = _check_probs(batch.mean), upper
    else:
        # A lower CDF puts the mass higher up, so the CDF moves against the bound.
        values, increase = batch.cdf, not upper
    if isinstance(model, L2Ball) and isinstance(scheme, GaussianNoise):
        if kind == "mean" and model.radius == 0.0:
            # The identity, as in gaussian_transfer.  The CDF route takes no
            # such shortcut: its zero-radius bits are those of the round trip
            # through ndtri, which tests/test_bound_bits.py pins.
            return values[()]
        shift = model.radius / scheme.sigma
        pushed = _gaussian_push(values, shift if increase else -shift)
    elif isinstance(model, BinaryBall) and isinstance(scheme, SparseFlipNoise):
        plan = _sparse_plan(
            model.additions, model.deletions, scheme.p0, scheme.p1, increase
        )
        pushed = _greedy_transfer(values, plan)
    else:
        raise ConfigurationError(
            f"threat model {type(model).__name__} is incompatible with "
            f"smoothing scheme {type(scheme).__name__}"
        )
    if kind == "mean":
        return pushed[()]
    # Partial summation: each bin's mass sits at its right edge for an
    # upper bound and at its left edge for a lower one.  ``pushed`` is a
    # fresh array, so the widths multiply into it in place.
    edges = batch.grid.edges
    if upper:
        top, widths = edges[-1], edges[2:] - edges[1:-1]
    else:
        top, widths = edges[-2], edges[1:-1] - edges[:-2]
    pushed *= widths
    return (top - np.sum(pushed, axis=-1))[()]


def bound_for_clean(
    dist: ScoreBatch,
    model: ThreatModel,
    scheme: SmoothingScheme,
    direction: str,
    kind: str,
) -> float:
    """:func:`bound_batch` of a single summary (a 0-d batch), as a float."""
    return float(bound_batch(dist, model, scheme, direction, kind))
