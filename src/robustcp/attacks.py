"""Heuristic attacks used to stress the pipelines empirically.

These are evaluation tools, not certificates: each attack searches
inside the declared threat model for a perturbation that hurts the
conformal pipeline, so coverage measured under them is an upper bound
on worst-case coverage.  The clean input is always in the candidate
pool, so an attack never reports a result worse than doing nothing.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bounds import BinaryBall, L2Ball, ThreatModel, bound_batch
from .evasion import Calibration, EvasionConfig
from .poisoning import PoisonWitness, worst_case_feature_quantile, worst_case_label_quantile
from .smoothing import GaussianNoise, ScoreOracle, SparseFlipNoise, sample_noise, substream

__all__ = [
    "evade",
    "evade_l2",
    "evade_binary",
    "poison_labels_attack",
    "poison_features_attack",
]

# The L2 search's effort: random directions tried on the sphere, then
# rounds of coordinate refinement around the best candidate.
_RANDOM_DIRECTIONS = 8
_REFINE_ROUNDS = 2


def _smooth_objective(
    oracle: ScoreOracle,
    label: int,
    scheme,
    n_samples: int,
    rng: np.random.Generator,
):
    """Monte-Carlo smooth-score estimate of one class, batched over candidates.

    Each call draws one noise block and applies it to every candidate
    (common random numbers), so candidates are compared on the same noise.
    """

    def objective(candidates: np.ndarray) -> np.ndarray:
        candidates = np.atleast_2d(candidates)
        noisy = sample_noise(candidates, scheme, n_samples, rng)
        scores = np.asarray(oracle(noisy, rng), dtype=float)[:, label]
        return scores.reshape(len(candidates), n_samples).mean(axis=1)

    return objective


def evade_l2(
    oracle: ScoreOracle,
    x: np.ndarray,
    label: int,
    radius: float,
    scheme: GaussianNoise,
    rng: np.random.Generator,
    n_samples: int = 256,
    maximize: bool = False,
) -> np.ndarray:
    """Projected random directions plus coordinate search inside an L2 ball.

    Minimizes (or maximizes) the estimated smooth score of ``label``;
    returns the best candidate found, which is ``x`` itself when nothing
    inside the ball beats it under the attack's own estimates.
    """
    x = np.asarray(x, dtype=float)
    if radius == 0.0:
        return x.copy()
    objective = _smooth_objective(oracle, label, scheme, n_samples, rng)
    sign = -1.0 if maximize else 1.0
    dim = x.size

    dirs = rng.standard_normal((_RANDOM_DIRECTIONS, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    coord = np.concatenate([np.eye(dim), -np.eye(dim)])
    candidates = np.concatenate([x[None, :], x + radius * dirs, x + radius * coord])
    best = candidates[int(np.argmin(sign * objective(candidates)))]

    step = radius / 4.0
    for _ in range(_REFINE_ROUNDS):
        moves = best[None, :] + step * coord
        # Project each move back onto the ball around the clean input.
        delta = moves - x[None, :]
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        scale = np.minimum(1.0, radius / np.maximum(norms, 1e-12))
        # The incumbent comes first, re-scored on the same noise as its moves.
        moves = np.concatenate([best[None, :], x[None, :] + delta * scale])
        best = moves[int(np.argmin(sign * objective(moves)))]
    if not np.linalg.norm(best - x) <= radius * (1.0 + 1e-9):
        raise AssertionError("left the threat ball")
    return best


def evade_binary(
    oracle: ScoreOracle,
    x: np.ndarray,
    label: int,
    additions: int,
    deletions: int,
    scheme: SparseFlipNoise,
    rng: np.random.Generator,
    n_samples: int = 256,
    maximize: bool = False,
) -> np.ndarray:
    """Greedy bit flips within addition/deletion budgets.

    One flip per round, chosen by the estimated smooth score of
    ``label``; stops early when no feasible flip improves on staying put.
    """
    clean = np.asarray(x).astype(np.int8)
    x = clean.copy()
    objective = _smooth_objective(oracle, label, scheme, n_samples, rng)
    sign = -1.0 if maximize else 1.0
    adds_left, dels_left = additions, deletions
    while adds_left > 0 or dels_left > 0:
        feasible = np.nonzero((x == 0) if dels_left == 0 else
                              (x == 1) if adds_left == 0 else
                              np.ones_like(x, dtype=bool))[0]
        if feasible.size == 0:
            break
        # Row 0 stays put; row j + 1 flips bit feasible[j].  All rows are
        # scored on the same noise, so the incumbent is re-scored each round.
        rows = np.repeat(x[None, :], feasible.size + 1, axis=0)
        flip = np.arange(1, feasible.size + 1), feasible
        rows[flip] = 1 - rows[flip]
        j = int(np.argmin(sign * objective(rows)))
        if j == 0:
            break
        if x[feasible[j - 1]] == 0:
            adds_left -= 1
        else:
            dels_left -= 1
        x = rows[j]
    if int(np.sum((clean == 0) & (x == 1))) > additions:
        raise AssertionError("addition budget exceeded")
    if int(np.sum((clean == 1) & (x == 0))) > deletions:
        raise AssertionError("deletion budget exceeded")
    return x


def evade(
    oracle: ScoreOracle,
    x: np.ndarray,
    label: int,
    model: ThreatModel,
    scheme: GaussianNoise | SparseFlipNoise,
    rng: np.random.Generator,
    n_samples: int,
    maximize: bool,
) -> np.ndarray:
    """The evasion search that fits the ball: :func:`evade_l2` or :func:`evade_binary`."""
    if isinstance(model, L2Ball):
        return evade_l2(
            oracle, x, label, model.radius, scheme, rng,
            n_samples=n_samples, maximize=maximize,
        )
    if isinstance(model, BinaryBall):
        return evade_binary(
            oracle, x, label, model.additions, model.deletions, scheme, rng,
            n_samples=n_samples, maximize=maximize,
        )
    raise TypeError(f"unknown threat model: {model!r}")


def _clamped_budget(budget: int, n: int) -> int:
    if budget > n:
        warnings.warn(
            f"poisoning budget {budget} exceeds calibration size {n}; clamping",
            stacklevel=3,
        )
        return n
    return budget


def poison_labels_attack(
    score_matrix: np.ndarray, labels: np.ndarray, budget: int, alpha: float
) -> tuple[np.ndarray, PoisonWitness]:
    """Flip up to ``budget`` labels to maximize the calibration quantile."""
    budget = _clamped_budget(budget, len(np.asarray(labels)))
    result = worst_case_label_quantile(score_matrix, labels, budget, alpha)
    flipped = np.asarray(labels, dtype=int).copy()
    if result.witness.labels is None:
        raise AssertionError("a label-flip witness records its labels")
    for i, c in zip(result.witness.indices, result.witness.labels):
        flipped[i] = c
    return flipped, result.witness


def poison_features_attack(
    oracle: ScoreOracle,
    inputs: np.ndarray,
    labels: np.ndarray,
    calibration: Calibration,
    budget: int,
    alpha: float,
    config: EvasionConfig,
    seed: int,
    n_samples: int = 256,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Perturb up to ``budget`` calibration points to inflate the quantile.

    Points are selected by the exact rank search using each point's
    certified score ceiling, then individually perturbed with the
    evasion search run in maximize mode.
    """
    budget = _clamped_budget(budget, len(calibration))
    ceilings = bound_batch(calibration.distributions, config.model, config.scheme, "upper", "mean")
    result = worst_case_feature_quantile(calibration.smooth_means, ceilings, budget, alpha)
    poisoned = np.array(inputs, copy=True)
    if isinstance(config.model, L2Ball):
        poisoned = poisoned.astype(float)
    for i in result.witness.indices:
        rng = substream(seed, "poison-attack", int(calibration.point_ids[i]))
        poisoned[i] = evade(
            oracle, inputs[i], int(labels[i]), config.model, config.scheme, rng,
            n_samples, maximize=True,
        )
    return poisoned, result.witness.indices
