"""Finite-sample corrections for Monte-Carlo estimated bounds.

The certification routines treat the measured mean and CDF as exact.
With m Monte-Carlo samples they are not; these helpers widen the
measured statistics by concentration radii (Hoeffding or empirical
Bernstein for the mean, Dvoretzky-Kiefer-Wolfowitz for the whole CDF)
before the worst-case bound is taken, so that the final guarantee holds
with probability 1 - eta over the sampling.  :func:`corrected_bound`
widens a whole :class:`~robustcp.smoothing.ScoreBatch` at once.

A :class:`BudgetLedger` tracks how composite pipelines split their
failure budget, one entry per stage, each checked against the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import ThreatModel, bound_batch
from .smoothing import ScoreBatch, SmoothingScheme

__all__ = [
    "hoeffding_radius",
    "bernstein_radius",
    "dkw_radius",
    "corrected_bound",
    "BudgetLedger",
]


def _check_eta(eta: float) -> float:
    if not 0.0 < eta < 1.0:
        raise ValueError("failure probability must lie in (0, 1)")
    return float(eta)


def _band_level(eta: float, n: int) -> float:
    """Each of ``n`` calibration points' share of half the budget: eta / (2 n)."""
    return eta / (2.0 * n)


def hoeffding_radius(n_samples: int, eta: float) -> float:
    """Two-sided Hoeffding deviation for the mean of n [0, 1] samples."""
    _check_eta(eta)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return math.sqrt(math.log(2.0 / eta) / (2.0 * n_samples))


def bernstein_radius(n_samples: int, variance, eta: float):
    """Empirical-Bernstein deviation for the mean of n [0, 1] samples.

    Uses the observed sample variance, so it beats Hoeffding whenever the
    score distribution is concentrated.  An array of variances gives an
    array of radii, each the float a single variance would give.
    """
    _check_eta(eta)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0.0):
        raise ValueError("variance must be nonnegative")
    log_term = math.log(4.0 / eta)
    radius = np.sqrt(2.0 * variance * log_term / n_samples) + (
        7.0 * log_term / (3.0 * (n_samples - 1))
    )
    return float(radius) if radius.ndim == 0 else radius


def dkw_radius(n_samples: int, eta: float) -> float:
    """Simultaneous Dvoretzky-Kiefer-Wolfowitz band half-width for an empirical CDF."""
    return hoeffding_radius(n_samples, eta)


def _mean_interval(mean, n_samples: int, variance, eta: float):
    """Bernstein interval around the mean, clipped to [0, 1]; any batch shape."""
    eps = bernstein_radius(n_samples, variance, eta)
    return np.maximum(mean - eps, 0.0), np.minimum(mean + eps, 1.0)


def _cdf_band(cdf: np.ndarray, n_samples: int, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """DKW band around CDFs on the last axis, clipped to [0, 1] and monotone."""
    eps = dkw_radius(n_samples, eta)
    lo = np.maximum(cdf - eps, 0.0)
    hi = np.minimum(cdf + eps, 1.0)
    # A uniform shift keeps monotonicity, but enforce it anyway so the
    # band is a valid CDF no matter how it was produced.
    lo = np.maximum.accumulate(lo, axis=-1)
    hi = np.minimum.accumulate(hi[..., ::-1], axis=-1)[..., ::-1]
    return lo, hi


def corrected_bound(
    batch: ScoreBatch,
    model: ThreatModel,
    scheme: SmoothingScheme,
    direction: str,
    kind: str,
    eta: float,
):
    """Worst-case bounds over ``model`` taken after widening the measured statistic.

    Upper bounds consume the upper end of the Bernstein mean interval or
    the lower edge of the DKW CDF band (a lower CDF weakens the
    constraint exactly the way more mass above every edge would); lower
    bounds take the mirrored choices.  The two statistics are
    alternatives, each valid at level ``eta`` on its own.  The whole
    batch is widened at once, each entry at level ``eta``, and then
    bounded by :func:`~robustcp.bounds.bound_batch`: the result has the
    batch's shape (a numpy scalar for a 0-d batch).  As in
    ``bound_batch``, ``model`` is the ball around the measured point.
    """
    _check_eta(eta)
    if kind == "mean":
        lo, hi = _mean_interval(batch.mean, batch.n_samples, batch.variance, eta)
        widened = replace(batch, mean=hi if direction == "upper" else lo)
    elif kind == "cdf":
        lo, hi = _cdf_band(batch.cdf, batch.n_samples, eta)
        widened = replace(batch, cdf=lo if direction == "upper" else hi)
    else:
        raise ValueError("kind must be 'mean' or 'cdf'")
    return bound_batch(widened, model, scheme, direction, kind)


@dataclass
class BudgetLedger:
    """Accounting of a failure budget split across pipeline stages.

    ``entries`` keeps one ``(label, amount, count)`` per stage: a union
    bound over ``count`` events, each failing with probability at most
    ``amount``.  ``spent`` is the running total of ``amount * count``.
    """

    eta: float
    entries: list[tuple[str, float, int]] = field(default_factory=list, init=False)
    _spent: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        _check_eta(self.eta)

    def spend(self, label: str, amount: float, count: int = 1) -> float:
        """Record a stage and fail loudly if the declared budget is exceeded."""
        if not amount > 0.0:
            raise ValueError("budget spends must be positive")
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError("a spend's count must be a positive integer")
        self.entries.append((label, float(amount), int(count)))
        self._spent += float(amount) * int(count)
        if self._spent > self.eta + 1e-12:
            raise ValueError(
                f"failure budget exceeded: spent {self._spent:.6g} of {self.eta:.6g}"
            )
        return amount

    @property
    def spent(self) -> float:
        return self._spent

    def assert_within(self) -> None:
        if self._spent > self.eta + 1e-12:
            raise AssertionError("failure budget exceeded")
