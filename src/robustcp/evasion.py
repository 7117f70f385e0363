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

After estimation everything runs through two functions: :func:`calibrate`
turns a ``(points,)`` :class:`~robustcp.smoothing.ScoreBatch` of
true-label calibration distributions into thresholds, and :func:`predict`
turns a ``(points, classes)`` batch of test distributions into boolean
``(points, classes)`` set masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import ThreatModel, bound_batch
from .correction import BudgetLedger, bernstein_radius, corrected_bound
from .errors import ConfigurationError
from .scores import conformal_quantile, inverse_quantile
from .smoothing import (
    BinGrid,
    ScoreBatch,
    ScoreOracle,
    SmoothingScheme,
    estimate_distribution,
    score_samples,
    substream,
    summarize_samples,
)

__all__ = [
    "EvasionConfig",
    "CalibrationTable",
    "Calibration",
    "calibrate",
    "predict",
    "calibrate_smooth",
    "class_distributions",
    "lower_bounds_for",
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
class CalibrationTable:
    """Per-calibration-point smooth-score summaries and certified bounds.

    ``distributions`` is a ``(points,)`` batch; the bound columns are
    aligned with it.
    """

    point_ids: np.ndarray
    lower_bounds: np.ndarray
    distributions: ScoreBatch
    corrected_lower_bounds: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.distributions)

    @property
    def smooth_means(self) -> np.ndarray:
        return self.distributions.mean

    def thresholds(self, alpha: float, eta: float) -> dict[str, float]:
        """Thresholds by method: the conformal quantiles of the stored columns.

        "vanilla" takes the smooth means and "calibration-time" the lower
        bounds at level alpha; "corrected", present when the table holds
        corrected lower bounds, takes those at level alpha - eta.  Each
        is an element of its column, so a stored threshold can be
        checked against the table exactly.
        """
        named = {
            "vanilla": conformal_quantile(self.smooth_means, alpha),
            "calibration-time": conformal_quantile(self.lower_bounds, alpha),
        }
        if self.corrected_lower_bounds is not None:
            named["corrected"] = conformal_quantile(self.corrected_lower_bounds, alpha - eta)
        return named


@dataclass
class Calibration:
    """A calibration table, its thresholds by method, and the budget it spent.

    ``ledger`` is None without correction, or when loaded from an artifact.
    """

    table: CalibrationTable
    thresholds: dict[str, float]
    ledger: BudgetLedger | None = None


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
    those at level alpha - eta, leaving eta / 2 of the failure budget
    for the test side (see :func:`predict`).
    """
    n = len(distributions)
    point_ids = np.arange(n) if point_ids is None else np.asarray(point_ids, dtype=int)
    table = CalibrationTable(
        point_ids=point_ids,
        lower_bounds=bound_batch(
            distributions, config.model, config.scheme, "lower", config.bound_kind
        ),
        distributions=distributions,
    )
    eta = config.eta
    ledger = None
    if eta > 0.0:
        if not alpha > eta:
            raise ConfigurationError("alpha must exceed the correction budget eta")
        ledger = BudgetLedger(eta=eta)
        per_point = eta / (2.0 * n)
        for point_id in point_ids.tolist():
            ledger.spend(f"calibration cdf band {point_id}", per_point)
        table.corrected_lower_bounds = corrected_bound(
            distributions, config.model, config.scheme, "lower", config.bound_kind, per_point
        )
        ledger.assert_within()
    return Calibration(table, table.thresholds(alpha, eta), ledger)


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
    spend through one ledger per point, the calibration side first.
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
        # A calibration loaded from an artifact carries no ledger; the
        # corrected calibration spends eta / 2 by construction.
        calibration_side = (
            calibration.ledger.spent if calibration.ledger is not None else config.eta / 2.0
        )
        # Each class's mean gets an empirical Bernstein radius at
        # eta / (2 n_classes), so the true class's smooth score clears
        # the threshold whenever its bound would.
        n_points, n_classes = distributions.shape
        per_class = config.eta / (2.0 * n_classes)
        for point_id in range(n_points):
            ledger = BudgetLedger(eta=config.eta)
            ledger.spend("calibration side", calibration_side)
            for c in range(n_classes):
                ledger.spend(f"test point {point_id} class {c} mean radius", per_class)
            ledger.assert_within()
        inflated = means + bernstein_radius(
            distributions.n_samples, distributions.variance, per_class
        )
        named["corrected"] = inflated >= thresholds["corrected"]
    for method, mask in named.items():
        if not np.all(named["vanilla"] <= mask):
            raise AssertionError(f"vanilla set not inside {method} set")
    return named


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
    permuting the calibration set permutes the table.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels, dtype=int)
    if inputs.shape[0] != labels.size:
        raise ValueError("inputs and labels must have equal length")
    point_ids = np.arange(labels.size) if point_ids is None else np.asarray(point_ids, dtype=int)
    dists = []
    for x, label, point_id in zip(inputs, labels, point_ids):
        rng = substream(seed, "cal", int(point_id))
        scores = score_samples(oracle, x, config.scheme, config.n_samples, rng)
        dists.append(summarize_samples(scores[:, label], config.grid))
    return calibrate(ScoreBatch.stack(dists), alpha, config, point_ids)


def class_distributions(
    oracle: ScoreOracle,
    x: np.ndarray,
    config: EvasionConfig,
    seed: int,
    point_id: int,
) -> ScoreBatch:
    """Estimate a ``(classes,)`` batch of smooth-score distributions at a test input.

    All classes come from one noise batch and one oracle call.  Splitting
    estimation from bounding lets callers reuse the same Monte-Carlo
    draws across several threat radii or bound kinds.
    """
    return estimate_distribution(
        oracle, x, config.scheme, config.n_samples, config.grid,
        substream(seed, "test", int(point_id)),
    )


def lower_bounds_for(table: CalibrationTable, config: EvasionConfig) -> np.ndarray:
    """Certified lower bounds of a calibration table under another config.

    Recomputes from the stored distributions, so one calibration pass can
    serve several radii or bound kinds.  The bounds are taken over
    ``config.model`` around each stored point; for points the adversary
    may already have moved (poisoned calibration points), pass a config
    whose model is ``model.reversed()``, the ball that holds the clean
    point.
    """
    return bound_batch(
        table.distributions, config.model, config.scheme, "lower", config.bound_kind
    )


def vanilla_worst_case_coverage(threshold: float, lower_bounds: np.ndarray) -> float:
    """Coverage floor of the unprotected pipeline under worst-case evasion.

    Evaluates where the clean threshold would land among the certified
    lower bounds of the calibration points: if every test score can be
    pushed down to its bound, coverage cannot fall below 1 minus that
    grid level.  :func:`lower_bounds_for` gives the bounds of a table
    under any radius or bound kind.
    """
    return 1.0 - inverse_quantile(threshold, lower_bounds)
