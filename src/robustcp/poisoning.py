"""Conformal thresholds that stay valid when calibration data is poisoned.

The defender sees a calibration set in which an adversary may have
altered up to ``budget`` points (perturbed features within a ball, or
flipped labels).  Validity is restored by calibrating on the worst case:
the smallest value the calibration quantile can take over every
admissible alteration.  Because only the order statistic matters, that
combinatorial problem collapses to an exact one-dimensional rank search
over candidate values; no integer programming is involved.

Brute-force enumerators over tiny instances serve as independent
oracles for the rank search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import ThreatModel
from .correction import BudgetLedger, corrected_bound, hoeffding_radius
from .errors import ConfigurationError
from .scores import ALL_CLASSES_THRESHOLD, _order_index, conformal_quantile
from .smoothing import ScoreBatch, SmoothingScheme

__all__ = [
    "PoisonWitness",
    "ConservativeThreshold",
    "feature_poison_threshold",
    "label_poison_threshold",
    "worst_case_feature_quantile",
    "worst_case_label_quantile",
    "replay_feature_witness",
    "replay_label_witness",
    "brute_force_feature_threshold",
    "brute_force_label_threshold",
    "corrected_feature_poison_threshold",
]


@dataclass(frozen=True)
class PoisonWitness:
    """An admissible alteration achieving a solver's threshold.

    ``indices`` lists the altered calibration points; ``values`` the
    score each one moves to.  For label solvers ``labels`` records the
    substituted label per altered point.
    """

    indices: tuple[int, ...]
    values: tuple[float, ...]
    labels: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ConservativeThreshold:
    threshold: float
    rank: int
    witness: PoisonWitness


def _validate_instance(scores: np.ndarray, moved: np.ndarray, budget: int) -> None:
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty 1-d array")
    if moved.shape != scores.shape:
        raise ValueError("per-point bounds must match scores in shape")
    if budget < 0:
        raise ValueError("budget must be nonnegative")


def _min_rank_search(
    scores: np.ndarray, lower: np.ndarray, budget: int, alpha: float
) -> ConservativeThreshold:
    """Smallest reachable k-th smallest score when up to ``budget`` points may drop.

    A value v is reachable iff the points already at or below v, plus as
    many droppable points (lower_i <= v < score_i) as the budget allows,
    reach the rank.  Scanning the candidate values {scores} U {lower}
    in ascending order gives the exact optimum of the relaxed problem,
    since dropping a touched point below its lower bound is not allowed
    and never helps more than landing exactly on it.
    """
    n = scores.size
    k_order = _order_index(alpha, n)
    if k_order == 0:
        return ConservativeThreshold(
            threshold=ALL_CLASSES_THRESHOLD, rank=0, witness=PoisonWitness((), ())
        )
    candidates = np.unique(np.concatenate([scores, lower]))
    at_or_below = np.searchsorted(np.sort(scores), candidates, side="right")
    # lower <= scores, so every point counted in at_or_below also has its
    # lower bound at or below v; the droppable count is the difference.
    droppable = np.searchsorted(np.sort(lower), candidates, side="right") - at_or_below
    feasible = at_or_below + np.minimum(budget, droppable) >= k_order
    v = float(candidates[np.argmax(feasible)])

    needed = int(max(0, k_order - np.sum(scores <= v)))
    eligible = np.nonzero((lower <= v) & (scores > v))[0]
    # Highest lower bounds first, so the rank statistic lands exactly on v.
    order = sorted(eligible, key=lambda i: (-lower[i], i))
    chosen = tuple(int(i) for i in order[:needed])
    witness = PoisonWitness(
        indices=chosen, values=tuple(float(lower[i]) for i in chosen)
    )
    return ConservativeThreshold(threshold=v, rank=k_order, witness=witness)


def _max_rank_search(
    scores: np.ndarray, upper: np.ndarray, budget: int, alpha: float
) -> ConservativeThreshold:
    """Largest reachable k-th smallest score when up to ``budget`` points may rise."""
    n = scores.size
    k_order = _order_index(alpha, n)
    if k_order == 0:
        return ConservativeThreshold(
            threshold=ALL_CLASSES_THRESHOLD, rank=0, witness=PoisonWitness((), ())
        )
    candidates = np.unique(np.concatenate([scores, upper]))
    strictly_below = np.searchsorted(np.sort(scores), candidates, side="left")
    liftable = strictly_below - np.searchsorted(np.sort(upper), candidates, side="left")
    feasible = strictly_below - np.minimum(budget, liftable) <= k_order - 1
    v = float(candidates[feasible][-1])

    needed = int(max(0, np.sum(scores < v) - (k_order - 1)))
    eligible = np.nonzero((scores < v) & (upper >= v))[0]
    order = sorted(eligible, key=lambda i: (upper[i], i))
    chosen = tuple(int(i) for i in order[:needed])
    witness = PoisonWitness(
        indices=chosen, values=tuple(float(upper[i]) for i in chosen)
    )
    return ConservativeThreshold(threshold=v, rank=k_order, witness=witness)


def feature_poison_threshold(
    scores: np.ndarray, lower: np.ndarray, budget: int, alpha: float
) -> ConservativeThreshold:
    """Conservative threshold when up to ``budget`` calibration features moved.

    Parameters
    ----------
    scores : array of shape (n,)
        Observed true-label calibration scores.
    lower : array of shape (n,)
        Certified lower bound of each score over the threat-model ball
        around the observed point (covering the clean value).
    budget : int
        Maximum number of poisoned calibration points.
    alpha : float
        Target miscoverage.
    """
    scores = np.asarray(scores, dtype=float)
    lower = np.asarray(lower, dtype=float)
    _validate_instance(scores, lower, budget)
    if np.any(lower > scores + 1e-12):
        raise ValueError("lower bounds must not exceed the observed scores")
    return _min_rank_search(scores, np.minimum(lower, scores), budget, alpha)


def worst_case_feature_quantile(
    scores: np.ndarray, upper: np.ndarray, budget: int, alpha: float
) -> ConservativeThreshold:
    """Attack counterpart: the largest quantile a feature poisoner can force."""
    scores = np.asarray(scores, dtype=float)
    upper = np.asarray(upper, dtype=float)
    _validate_instance(scores, upper, budget)
    if np.any(upper < scores - 1e-12):
        raise ValueError("upper bounds must not fall below the observed scores")
    return _max_rank_search(scores, np.maximum(upper, scores), budget, alpha)


def _label_matrix(score_matrix: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    score_matrix = np.asarray(score_matrix, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if score_matrix.ndim != 2 or score_matrix.shape[0] != labels.size:
        raise ValueError("need one row of class scores per labelled point")
    if np.any(labels < 0) or np.any(labels >= score_matrix.shape[1]):
        raise ValueError("labels outside the class range")
    return score_matrix, labels


def label_poison_threshold(
    score_matrix: np.ndarray, labels: np.ndarray, budget: int, alpha: float
) -> ConservativeThreshold:
    """Conservative threshold when up to ``budget`` calibration labels flipped.

    A flipped point's score can land on any class's score, so the worst
    case drops it to the row minimum; the witness records which class
    achieves the drop for each altered point.
    """
    score_matrix, labels = _label_matrix(score_matrix, labels)
    observed = score_matrix[np.arange(labels.size), labels]
    row_min = score_matrix.min(axis=1)
    result = _min_rank_search(observed, row_min, budget, alpha)
    flipped = tuple(int(np.argmin(score_matrix[i])) for i in result.witness.indices)
    witness = PoisonWitness(
        indices=result.witness.indices, values=result.witness.values, labels=flipped
    )
    return ConservativeThreshold(result.threshold, result.rank, witness)


def worst_case_label_quantile(
    score_matrix: np.ndarray, labels: np.ndarray, budget: int, alpha: float
) -> ConservativeThreshold:
    """Attack counterpart: the largest quantile a label flipper can force."""
    score_matrix, labels = _label_matrix(score_matrix, labels)
    observed = score_matrix[np.arange(labels.size), labels]
    row_max = score_matrix.max(axis=1)
    result = _max_rank_search(observed, row_max, budget, alpha)
    flipped = tuple(int(np.argmax(score_matrix[i])) for i in result.witness.indices)
    witness = PoisonWitness(
        indices=result.witness.indices, values=result.witness.values, labels=flipped
    )
    return ConservativeThreshold(result.threshold, result.rank, witness)


def replay_feature_witness(
    scores: np.ndarray, witness: PoisonWitness, alpha: float
) -> float:
    """Quantile of the scores after applying a witness assignment."""
    modified = np.asarray(scores, dtype=float).copy()
    for i, v in zip(witness.indices, witness.values):
        modified[i] = v
    return conformal_quantile(modified, alpha)


def replay_label_witness(
    score_matrix: np.ndarray, labels: np.ndarray, witness: PoisonWitness, alpha: float
) -> float:
    """Quantile of true-label scores after applying a label-flip witness."""
    score_matrix, labels = _label_matrix(score_matrix, labels)
    flipped = labels.copy()
    if witness.labels is None:
        raise ValueError("a label-flip witness must record the substituted labels")
    for i, c in zip(witness.indices, witness.labels):
        flipped[i] = c
    return conformal_quantile(score_matrix[np.arange(labels.size), flipped], alpha)


_BRUTE_FORCE_LIMIT = 12


def brute_force_feature_threshold(
    scores: np.ndarray, lower: np.ndarray, budget: int, alpha: float
) -> float:
    """Exhaustive minimum over all altered subsets; oracle for tiny instances."""
    scores = np.asarray(scores, dtype=float)
    lower = np.asarray(lower, dtype=float)
    n = scores.size
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError("brute force oracle is for tiny instances only")
    k_order = _order_index(alpha, n)
    if k_order == 0:
        return ALL_CLASSES_THRESHOLD
    best = math.inf
    for size in range(min(budget, n) + 1):
        for subset in itertools.combinations(range(n), size):
            modified = scores.copy()
            modified[list(subset)] = lower[list(subset)]
            best = min(best, float(np.sort(modified)[k_order - 1]))
    return best


def brute_force_label_threshold(
    score_matrix: np.ndarray, labels: np.ndarray, budget: int, alpha: float
) -> float:
    """Exhaustive minimum over all label reassignments of up to ``budget`` points."""
    score_matrix, labels = _label_matrix(score_matrix, labels)
    n, n_classes = score_matrix.shape
    if n > _BRUTE_FORCE_LIMIT or n_classes > 6:
        raise ValueError("brute force oracle is for tiny instances only")
    k_order = _order_index(alpha, n)
    if k_order == 0:
        return ALL_CLASSES_THRESHOLD
    best = math.inf
    for size in range(min(budget, n) + 1):
        for subset in itertools.combinations(range(n), size):
            for assignment in itertools.product(range(n_classes), repeat=size):
                flipped = labels.copy()
                flipped[list(subset)] = assignment
                observed = score_matrix[np.arange(n), flipped]
                best = min(best, float(np.sort(observed)[k_order - 1]))
    return best


def corrected_feature_poison_threshold(
    distributions: ScoreBatch,
    model: ThreatModel,
    scheme: SmoothingScheme,
    budget: int,
    alpha: float,
    eta: float,
    bound_kind: str = "cdf",
) -> tuple[ConservativeThreshold, BudgetLedger]:
    """Poison-robust threshold with finite-sample Monte-Carlo corrections.

    ``model`` is the threat model the poisoner used.  A received
    calibration point may already be perturbed, so its clean point lies
    in ``model.reversed()`` around it; each point's lower bound is taken
    over that reversed ball from a DKW band at eta / (2 n), then lowered
    by the Hoeffding radius at the calibration-set size n and eta for
    the Monte-Carlo error of the clean scores the guarantee compares
    against.  The rank search then runs at level alpha - eta.
    """
    n = len(distributions)
    if n == 0:
        raise ValueError("need at least one calibration distribution")
    if not 0.0 < eta < alpha:
        raise ConfigurationError("need 0 < eta < alpha")
    eps_mc = hoeffding_radius(n, eta)
    ledger = BudgetLedger(eta=eta)
    ledger.spend("calibration cdf bands", eta / 2.0)
    ledger.spend("clean-score mc slack", eta / 2.0)
    per_point = eta / (2.0 * n)
    reversed_ball = model.reversed()
    observed = distributions.mean
    lower = (
        corrected_bound(distributions, reversed_ball, scheme, "lower", bound_kind, per_point)
        - eps_mc
    )
    result = _min_rank_search(observed, np.minimum(lower, observed), budget, alpha - eta)
    ledger.assert_within()
    return result, ledger
