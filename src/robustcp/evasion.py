"""Conformal prediction with certified robustness to test-time evasion.

Calibration always happens on clean data; the adversary perturbs test
inputs inside a threat-model ball.  Robustness can be bought at either
end:

* test-time: keep the clean threshold and replace each test score by a
  certified upper bound computed at the observed (possibly perturbed)
  input;
* calibration-time: replace each calibration score by a certified lower
  bound, deflating the threshold once, and score test points with plain
  smooth means.

Both variants accept a mean-only or a binned-CDF bound.  Corrected
variants additionally account for Monte-Carlo estimation error and give
finite-sample guarantees at a declared failure budget.

Estimation is one Monte-Carlo block per point, summarized by
:func:`~robustcp.smoothing.summarize_blocks`.  After estimation
everything runs through two functions: :func:`calibrate` turns a
``(points,)`` :class:`~robustcp.smoothing.ScoreBatch` of true-label
calibration distributions into thresholds, and :func:`predict` turns a
``(points, classes)`` batch of test distributions into boolean
``(points, classes)`` set masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import ThreatModel, bound_batch
from .correction import BudgetLedger, _band_level, bernstein_radius, corrected_bound
from .errors import ConfigurationError
from .scores import conformal_quantile, inverse_quantile
from .smoothing import (
    BinGrid,
    ScoreBatch,
    ScoreOracle,
    SmoothingScheme,
    _scores_by_version,
    substream,
    summarize_blocks,
)

__all__ = [
    "EvasionConfig",
    "Calibration",
    "calibrate",
    "predict",
    "calibrate_smooth",
    "class_distributions",
    "vanilla_worst_case_coverage",
]

@dataclass(frozen=True)
class EvasionConfig:
    """What to smooth with, what to defend against, and how to bound.

    ``mode`` selects where conservatism is applied ("test-time" or
    "calibration-time"); ``bound_kind`` selects the mean-only or the
    binned-CDF certificate; ``eta`` > 0 switches on the finite-sample
    correction with that failure budget.
    """

    scheme: SmoothingScheme
    model: ThreatModel
    mode: str = "calibration-time"
    bound_kind: str = "cdf"
    n_samples: int = 10_000
    grid: BinGrid = field(default_factory=BinGrid.uniform)
    eta: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("test-time", "calibration-time"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.bound_kind not in ("mean", "cdf"):
            raise ConfigurationError(f"unknown bound kind {self.bound_kind!r}")
        if self.n_samples < 2:
            raise ConfigurationError("n_samples must be at least 2")
        if self.eta < 0.0 or self.eta >= 1.0:
            raise ConfigurationError("eta must lie in [0, 1)")


@dataclass
class Calibration:
    """Per-calibration-point summaries, their certified bounds, and the thresholds.

    ``distributions`` is a ``(points,)`` batch; the id and bound columns
    are aligned with it.  ``corrected_lower_bounds`` is None without
    correction.  It holds no ledger: :func:`predict` accounts for the
    calibration side from ``len(calibration)`` and its own eta.
    """

    point_ids: np.ndarray
    distributions: ScoreBatch
    lower_bounds: np.ndarray
    corrected_lower_bounds: np.ndarray | None = None
    thresholds: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.distributions)

    @property
    def smooth_means(self) -> np.ndarray:
        return self.distributions.mean

    def quantiles(self, alpha: float, eta: float) -> dict[str, float]:
        """Thresholds by method: the conformal quantiles of the stored columns.

        "vanilla" takes the smooth means and "calibration-time" the lower
        bounds at level alpha; "corrected", present when corrected lower
        bounds are stored, takes those at level alpha - eta.  Each is an
        element of its column, so a stored threshold can be checked
        against the columns exactly.
        """
        named = {
            "vanilla": conformal_quantile(self.smooth_means, alpha),
            "calibration-time": conformal_quantile(self.lower_bounds, alpha),
        }
        if self.corrected_lower_bounds is not None:
            named["corrected"] = conformal_quantile(self.corrected_lower_bounds, alpha - eta)
        return named


def calibrate(
    distributions: ScoreBatch,
    alpha: float,
    config: EvasionConfig,
    point_ids: np.ndarray | None = None,
) -> Calibration:
    """Thresholds from a ``(points,)`` batch of true-label smooth-score distributions.

    "vanilla" is the conformal quantile of the smooth means and
    "calibration-time" that of the certified lower bounds over the
    forward ball around each clean point.  With ``config.eta`` > 0 each
    point's binned CDF is also widened by a DKW band at eta / (2 n)
    before taking the lower bound, and "corrected" is the quantile of
    those at level alpha - eta.  Nothing is spent here: :func:`predict`
    accounts for these n bands as one stage of its ledger.
    """
    eta = config.eta
    if eta > 0.0 and not alpha > eta:
        raise ConfigurationError("alpha must exceed the correction budget eta")
    n = len(distributions)
    point_ids = np.arange(n) if point_ids is None else np.asarray(point_ids, dtype=int)
    calibration = Calibration(
        point_ids, distributions,
        bound_batch(distributions, config.model, config.scheme, "lower", config.bound_kind),
    )
    if eta > 0.0:
        calibration.corrected_lower_bounds = corrected_bound(
            distributions, config.model, config.scheme, "lower", config.bound_kind,
            _band_level(eta, n),
        )
    calibration.thresholds = calibration.quantiles(alpha, eta)
    return calibration


def predict(
    distributions: ScoreBatch,
    calibration: Calibration,
    config: EvasionConfig,
) -> dict[str, np.ndarray]:
    """Boolean ``(points, classes)`` set masks by method from a ``(points, classes)`` batch.

    "vanilla" thresholds smooth means at the vanilla threshold.  "robust"
    thresholds, in test-time mode, certified upper bounds at the vanilla
    threshold, taken over ``config.model.reversed()`` around the observed
    input (the test point may already be perturbed, so its clean point
    lies in the reversed ball), and in calibration-time mode smooth means
    at the calibration-time one.
    With ``config.eta`` > 0 (calibration-time only), "corrected" sets
    spend through one ledger per call, built the same way for every
    calibration, in memory or loaded: its n CDF bands at eta / (2 n),
    n = ``len(calibration)``, then each class's mean radius.
    """
    thresholds = calibration.thresholds
    corrected = config.eta > 0.0
    if corrected and config.mode != "calibration-time":
        raise ConfigurationError("corrected prediction is a calibration-time mode")
    if corrected and "corrected" not in thresholds:
        raise ConfigurationError("eta > 0 but the calibration has no corrected threshold")
    if len(distributions.shape) != 2:
        raise ValueError("predict takes a (points, classes) batch")
    means = distributions.mean
    named = {"vanilla": means >= thresholds["vanilla"]}
    if config.mode == "test-time":
        upper = bound_batch(
            distributions, config.model.reversed(), config.scheme, "upper", config.bound_kind
        )
        named["robust"] = upper >= thresholds["vanilla"]
    else:
        named["robust"] = means >= thresholds["calibration-time"]
    if corrected:
        # Each class's mean gets an empirical Bernstein radius at
        # eta / (2 n_classes), so the true class's smooth score clears
        # the threshold whenever its bound would; every point spends so.
        n, n_classes = len(calibration), distributions.shape[1]
        per_class = config.eta / (2.0 * n_classes)
        ledger = BudgetLedger(eta=config.eta)
        ledger.spend("calibration cdf bands", _band_level(config.eta, n), n)
        ledger.spend("class mean radii", per_class, n_classes)
        inflated = means + bernstein_radius(
            distributions.n_samples, distributions.variance, per_class
        )
        named["corrected"] = inflated >= thresholds["corrected"]
    for method, mask in named.items():
        if not np.all(named["vanilla"] <= mask):
            raise AssertionError(f"vanilla set not inside {method} set")
    return named


def _sampled_blocks(oracle, inputs, config: EvasionConfig, seed: int, stream: str, point_ids):
    """The point ids, and Monte-Carlo scores as ``(rows, block)`` pairs of one row each.

    The Monte-Carlo twin of :func:`robustcp.formats.read_score_blocks`:
    the ids are checked here, and point i's noise block is drawn from
    ``substream(seed, stream, point_id)`` when the blocks are read.  Each
    of its versions (a ``(versions, d)`` input has several) is one
    ``(1, classes, n_samples)`` block, scored with one oracle call, at
    row ``i * versions + v``.
    """
    point_ids = np.arange(len(inputs)) if point_ids is None else np.asarray(point_ids, dtype=int)
    if point_ids.shape != (len(inputs),):
        raise ValueError("need one point id per input")

    def blocks():
        row = 0
        for x, point_id in zip(inputs, point_ids.tolist()):
            rng = substream(seed, stream, point_id)
            for scores in _scores_by_version(oracle, x, config.scheme, config.n_samples, rng):
                yield slice(row, row + 1), scores.T[None]
                row += 1

    return point_ids, blocks()


def calibrate_smooth(
    oracle: ScoreOracle,
    inputs: np.ndarray,
    labels: np.ndarray,
    alpha: float,
    config: EvasionConfig,
    seed: int,
    point_ids: np.ndarray | None = None,
) -> Calibration:
    """Estimate true-label smooth scores on clean calibration data, then :func:`calibrate`.

    Randomness is keyed by (seed, point id), never by array position, so
    permuting the calibration set permutes the calibration.
    """
    labels = np.asarray(labels, dtype=int)
    if np.ndim(inputs) != 2:
        raise ValueError("calibration inputs must be a (points, d) array")
    if len(inputs) != labels.size:
        raise ValueError("inputs and labels must have equal length")
    point_ids, blocks = _sampled_blocks(oracle, inputs, config, seed, "cal", point_ids)
    return calibrate(summarize_blocks(blocks, config.grid, labels), alpha, config, point_ids)


def class_distributions(
    oracle: ScoreOracle,
    inputs: np.ndarray,
    config: EvasionConfig,
    seed: int,
    point_ids: np.ndarray | None = None,
) -> ScoreBatch:
    """Estimate a ``(points, classes)`` batch of smooth-score distributions at test inputs.

    Each point's classes come from one noise batch and one oracle call,
    keyed by (seed, point id) as in :func:`calibrate_smooth`.  Splitting
    estimation from bounding lets callers reuse the same Monte-Carlo
    draws across several threat radii or bound kinds.

    A ``(points, versions, d)`` stack (say, each clean point beside its
    attacked copies) gives a ``(points, versions, classes)`` batch.  Each
    point's noise block is drawn once and applied to its versions one at
    a time, every oracle call starting from the generator state after the
    draw, so each version's entries equal, bit for bit, those of a
    separate call on that version alone.
    """
    shape = np.shape(inputs)[:-1]
    _, blocks = _sampled_blocks(oracle, inputs, config, seed, "test", point_ids)
    batch = summarize_blocks(blocks, config.grid)
    if len(shape) == 1:
        return batch
    shape += batch.shape[-1:]
    return ScoreBatch(
        batch.n_samples, batch.mean.reshape(shape), batch.variance.reshape(shape),
        batch.grid, batch.cdf.reshape(shape + batch.cdf.shape[-1:]),
    )


def vanilla_worst_case_coverage(threshold: float, lower_bounds: np.ndarray) -> float:
    """Coverage floor of the unprotected pipeline under worst-case evasion.

    Evaluates where the clean threshold would land among the certified
    lower bounds of the calibration points: if every test score can be
    pushed down to its bound, coverage cannot fall below 1 minus that
    grid level.  ``bound_batch(calibration.distributions, model, scheme,
    "lower", kind)`` gives the bounds of a calibration under any radius
    or bound kind.
    """
    return 1.0 - inverse_quantile(threshold, lower_bounds)
