"""Synthetic classification tasks with closed-form classifiers.

Both task families admit an exact Bayes posterior that is softmax-linear
in the features, so no model training is involved anywhere: the
"classifier" is the posterior itself, evaluated in closed form.  Fresh
calibration/test splits are i.i.d. draws, which keeps conformal
exchangeability exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scores import aps_scores
from .smoothing import substream

__all__ = [
    "GaussianMixtureTask",
    "BernoulliFeatureTask",
    "make_gaussian_mixture",
    "make_binary_task",
    "oracle_for",
]


@dataclass(frozen=True)
class GaussianMixtureTask:
    """Isotropic Gaussian mixture; the Bayes posterior is softmax-linear."""

    means: np.ndarray  # (n_classes, dim)
    noise: float
    priors: np.ndarray  # (n_classes,)

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        y = rng.choice(self.n_classes, size=n, p=self.priors)
        x = self.means[y] + self.noise * rng.standard_normal((n, self.dim))
        return x, y

    @cached_property
    def _logit_terms(self) -> tuple[float, np.ndarray, np.ndarray]:
        scale = 1.0 / self.noise**2  # the input scale, each class's bias and log-prior
        return scale, -0.5 * scale * np.sum(self.means**2, axis=1), np.log(self.priors)

    def class_probabilities(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        scale, bias, log_prior = self._logit_terms
        return _softmax_classes(self.means @ (scale * x).T, bias, log_prior)


@dataclass(frozen=True)
class BernoulliFeatureTask:
    """Independent binary features per class; the posterior is softmax-linear."""

    theta: np.ndarray  # (n_classes, dim) feature-on probabilities
    priors: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        y = rng.choice(self.n_classes, size=n, p=self.priors)
        x = (rng.random((n, self.dim)) < self.theta[y]).astype(np.int8)
        return x, y

    @cached_property
    def _logit_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        on, off = np.log(self.theta), np.log1p(-self.theta)  # weights, bias, log-prior
        return on - off, off.sum(axis=1), np.log(self.priors)

    def class_probabilities(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        weights, bias, log_prior = self._logit_terms
        return _softmax_classes(weights @ x.T, bias, log_prior)


SyntheticTask = GaussianMixtureTask | BernoulliFeatureTask


def _softmax_classes(logits: np.ndarray, *offsets: np.ndarray) -> np.ndarray:
    """In place, the softmax over the class rows of ``(classes, points)`` logits
    plus each per-class offset in turn, as a ``(points, classes)`` view with
    ``scipy.special.softmax``'s bits.  Every step runs on whole class rows;
    the sum adds them in the order ``np.add.reduce`` adds one point's row."""
    for offset in offsets:
        logits += offset[:, None]
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= _class_sums(list(logits))
    return logits.T


def _class_sums(rows: list[np.ndarray]) -> np.ndarray:
    """Per-point sums of the class rows in numpy's pairwise order for up to
    128 classes (the tasks have at most 10): eight running sums over every
    eighth row (zero below 8) added as a tree, then the rest in turn."""
    body = len(rows) - len(rows) % 8
    r = [sum(rows[j:body:8], 0.0) for j in range(8)]
    return sum(rows[body:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def make_gaussian_mixture(
    n_classes: int = 3,
    dim: int = 4,
    separation: float = 1.0,
    noise: float = 1.0,
    seed: int = 0,
) -> GaussianMixtureTask:
    """Class means at distance ``separation`` from the origin in random directions."""
    if not 2 <= n_classes <= 10 or not 1 <= dim <= 16:
        raise ValueError("supported sizes: 2-10 classes, 1-16 dimensions")
    with np.errstate(over="ignore", divide="ignore"):
        scale = 1.0 / np.square(noise)  # as class_probabilities computes it
    if not (noise > 0.0 and 0.0 < scale < np.inf):
        raise ValueError("noise must be positive, with 1 / noise**2 positive and finite")
    if not np.isfinite(separation):
        raise ValueError("separation must be finite")
    rng = substream(seed, "task", "gaussian-means")
    means = rng.standard_normal((n_classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    priors = np.full(n_classes, 1.0 / n_classes)
    return GaussianMixtureTask(means=means, noise=noise, priors=priors)


def make_binary_task(
    n_classes: int = 3,
    dim: int = 64,
    strength: float = 0.25,
    seed: int = 0,
) -> BernoulliFeatureTask:
    """Feature-on probabilities 0.5 +- ``strength`` with a random sign per (class, bit).

    Every bit carries the same information, so no single flip dominates
    the posterior; adversarial bit flips then matter in proportion to
    how many bits they touch.
    """
    if not 2 <= n_classes <= 10 or not 1 <= dim <= 64:
        raise ValueError("supported sizes: 2-10 classes, 1-64 dimensions")
    if not 0.0 < strength < 0.5:
        raise ValueError("strength must lie in (0, 0.5)")
    rng = substream(seed, "task", "binary-theta")
    signs = rng.choice((-1.0, 1.0), size=(n_classes, dim))
    theta = 0.5 + strength * signs
    priors = np.full(n_classes, 1.0 / n_classes)
    return BernoulliFeatureTask(theta=theta, priors=priors)


def oracle_for(task: SyntheticTask, kind: str = "tps"):
    """Score oracle ``(points, rng) -> (m, n_classes)``, every class from one softmax.

    "tps" scores are the class probabilities, a class-major array's transposed
    view; callers accept any layout.  "aps" scores are :func:`~robustcp.scores.aps_scores`
    of them, with one tie-break draw ``u`` per evaluated point, shared by its classes.
    """
    if kind == "tps":
        return lambda points, rng: task.class_probabilities(points)
    if kind != "aps":
        raise ValueError("score kind must be 'tps' or 'aps'")

    def aps(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        probs = task.class_probabilities(points)
        return aps_scores(probs, rng.random(probs.shape[0]))

    return aps
