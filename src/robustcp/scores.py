"""Split conformal prediction on conformity scores.

Scores follow the "larger is more conforming" convention and live in
[0, 1].  A prediction set keeps every class whose score clears a
threshold calibrated on held-out data, so the calibration quantile is a
lower quantile: the k-th smallest calibration score with
k = floor(alpha * (n + 1)).  The sets of a batch of points are the rows
of one boolean ``(points, classes)`` mask, ``class_scores >= threshold``;
at the ``-inf`` threshold every class is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

__all__ = [
    "aps_scores",
    "conformal_quantile",
    "inverse_quantile",
    "evaluate_sets",
    "coverage_distribution",
    "MetricsReport",
    "CoverageBeta",
]

# Threshold emitted when the calibration set is too small for the asked
# miscoverage level (k = 0).  Every class clears it.
ALL_CLASSES_THRESHOLD = -math.inf


def _check_scores(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty 1-d array")
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    return scores


def aps_scores(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Adaptive scores of every class: one minus the probability mass ranked above it.

    Entry (i, c) subtracts from 1 the mass of the classes ranked strictly
    above c in row i plus a ``u[i]`` fraction of c's own mass, which keeps
    the usual "cumulative mass down to the label" score on the
    larger-is-more-conforming scale.  (A TPS score needs no function: it
    is the probability matrix itself.)

    Parameters
    ----------
    probs : array of shape (m, n_classes)
        Class probabilities of m points; each row sums to 1.
    u : array of shape (m,)
        Tie-break draws in [0, 1], one per point, shared by its classes.
        Randomizing them makes the score continuous; ``u = 1`` gives the
        conservative deterministic variant.

    Returns
    -------
    array of shape (m, n_classes)
        Scores in [0, 1].
    """
    probs = np.ascontiguousarray(probs, dtype=float)  # the class sum's order follows the layout
    u = np.asarray(u, dtype=float)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ValueError("probabilities must be a 2-d array with at least 2 classes")
    if np.any(probs < -1e-9) or not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6):
        raise ValueError("probabilities must be nonnegative and sum to 1 in every row")
    if u.shape != probs.shape[:1]:
        raise ValueError("need one tie-break draw per row of probabilities")
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("u must lie in [0, 1]")
    above = probs[:, None, :] > probs[:, :, None]
    mass_above = np.where(above, probs[:, None, :], 0.0).sum(axis=2)
    return 1.0 - mass_above - u[:, None] * probs


def _order_index(alpha: float, n: int) -> int:
    """Order-statistic rank floor(alpha * (n + 1)), robust to grid round-off.

    Products like (k / (n+1)) * (n+1) can land a hair below the integer k
    in floating point; values within 1e-9 of an integer are snapped up so
    the quantile grid round-trips exactly.
    """
    x = alpha * (n + 1)
    k = math.floor(x)
    if k + 1 - x < 1e-9:
        k += 1
    return k


def conformal_quantile(scores: np.ndarray, alpha: float) -> float:
    """Calibration threshold: the floor(alpha * (n+1))-th smallest score.

    Parameters
    ----------
    scores : array of shape (n,)
        Calibration scores.
    alpha : float
        Target miscoverage in (0, 1).

    Returns
    -------
    float
        The threshold, or ``-inf`` when floor(alpha * (n+1)) == 0, in
        which case prediction sets contain every class.
    """
    scores = _check_scores(scores)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n = scores.size
    k = _order_index(alpha, n)
    if k == 0:
        return ALL_CLASSES_THRESHOLD
    return float(np.sort(scores)[k - 1])


def inverse_quantile(threshold: float, scores: np.ndarray) -> float:
    """Smallest grid level tau with ``conformal_quantile(scores, tau) >= threshold``.

    The grid is {k / (n+1) : k = 0, ..., n+1}.  Returns 1.0 when even the
    largest score sits below ``threshold``.
    """
    scores = _check_scores(scores)
    if math.isinf(threshold) and threshold < 0:
        return 0.0
    ordered = np.sort(scores)
    n = ordered.size
    idx = int(np.searchsorted(ordered, threshold, side="left"))
    if idx == n:
        return 1.0
    return (idx + 1) / (n + 1)


@dataclass(frozen=True)
class MetricsReport:
    """Summary statistics of a batch of prediction sets."""

    empirical_coverage: float
    average_set_size: float
    singleton_hit_ratio: float
    set_size_histogram: dict[int, int]
    n_points: int


def evaluate_sets(masks: np.ndarray, labels: np.ndarray) -> MetricsReport:
    """Coverage, average size, singleton hit ratio and size histogram.

    Row i of the boolean ``(points, classes)`` array ``masks`` is the
    prediction set of point i, ``class_scores >= threshold``.  The
    singleton hit ratio is the fraction of points whose set is exactly
    the true label.
    """
    masks = np.asarray(masks)
    labels = np.asarray(labels, dtype=int)
    if masks.dtype != bool or masks.ndim != 2:
        raise ValueError("sets must be a boolean (points, classes) array")
    if masks.shape[0] != labels.size:
        raise ValueError("sets and labels must have equal length")
    n = labels.size
    if n == 0:
        raise ValueError("cannot evaluate an empty batch")
    if np.any(labels < 0) or np.any(labels >= masks.shape[1]):
        raise ValueError("labels must index the classes of the sets")
    sizes = masks.sum(axis=1)
    hits = masks[np.arange(n), labels]
    counts = np.bincount(sizes)
    # Integer counts over n, so the ratios are the exact quotients.
    return MetricsReport(
        empirical_coverage=int(hits.sum()) / n,
        average_set_size=int(sizes.sum()) / n,
        singleton_hit_ratio=int(np.sum(hits & (sizes == 1))) / n,
        set_size_histogram={size: int(c) for size, c in enumerate(counts) if c},
        n_points=n,
    )


@dataclass(frozen=True)
class CoverageBeta:
    """Distribution of coverage conditional on the calibration draw.

    With n calibration points and rank l = floor((n+1) * alpha), coverage
    of the split conformal set follows Beta(n + 1 - l, l).  When l == 0
    the threshold is ``-inf`` and coverage is the constant 1.
    """

    n: int
    alpha: float
    shape_a: float
    shape_b: float
    degenerate: bool

    @property
    def mean(self) -> float:
        if self.degenerate:
            return 1.0
        return self.shape_a / (self.shape_a + self.shape_b)

    def cdf(self, x: float) -> float:
        if self.degenerate:
            return 0.0 if x < 1.0 else 1.0
        return float(stats.beta.cdf(x, self.shape_a, self.shape_b))


def coverage_distribution(n: int, alpha: float) -> CoverageBeta:
    """Beta law of coverage for an n-point calibration set at level alpha."""
    if n < 1:
        raise ValueError("need at least one calibration point")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    l = _order_index(alpha, n)
    if l == 0:
        return CoverageBeta(n=n, alpha=alpha, shape_a=float(n + 1), shape_b=0.0, degenerate=True)
    return CoverageBeta(
        n=n, alpha=alpha, shape_a=float(n + 1 - l), shape_b=float(l), degenerate=False
    )
