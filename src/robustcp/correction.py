"""Finite-sample corrections for Monte-Carlo estimated bounds.

The certification routines treat the measured mean and CDF as exact.
With m Monte-Carlo samples they are not; these helpers widen the
measured statistics by concentration radii (Hoeffding or empirical
Bernstein for the mean, Dvoretzky-Kiefer-Wolfowitz for the whole CDF)
before the worst-case bound is taken, so that the final guarantee holds
with probability 1 - eta over the sampling.

A :class:`BudgetLedger` tracks how composite pipelines split their
failure budget; every spend is checked against the declared total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import ThreatModel, bound_for_clean
from .smoothing import ScoreDistribution, SmoothingScheme

__all__ = [
    "hoeffding_radius",
    "bernstein_radius",
    "dkw_radius",
    "CorrectedDistribution",
    "corrected_distribution",
    "corrected_bound",
    "BudgetLedger",
]


def _check_eta(eta: float) -> float:
    if not 0.0 < eta < 1.0:
        raise ValueError("failure probability must lie in (0, 1)")
    return float(eta)


def hoeffding_radius(n_samples: int, eta: float) -> float:
    """Two-sided Hoeffding deviation for the mean of n [0, 1] samples."""
    _check_eta(eta)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return math.sqrt(math.log(2.0 / eta) / (2.0 * n_samples))


def bernstein_radius(n_samples: int, variance: float, eta: float) -> float:
    """Empirical-Bernstein deviation for the mean of n [0, 1] samples.

    Uses the observed sample variance, so it beats Hoeffding whenever the
    score distribution is concentrated.
    """
    _check_eta(eta)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if variance < 0.0:
        raise ValueError("variance must be nonnegative")
    log_term = math.log(4.0 / eta)
    return math.sqrt(2.0 * variance * log_term / n_samples) + (
        7.0 * log_term / (3.0 * (n_samples - 1))
    )


def dkw_radius(n_samples: int, eta: float) -> float:
    """Simultaneous Dvoretzky-Kiefer-Wolfowitz band half-width for an empirical CDF."""
    return hoeffding_radius(n_samples, eta)


@dataclass(frozen=True)
class CorrectedDistribution:
    """A score distribution with confidence envelopes on its statistics.

    ``mean_lo <= base.mean <= mean_hi`` by construction, and the CDF
    bands bracket the empirical CDF edgewise while remaining valid CDFs
    (clipped to [0, 1] and monotonized).
    """

    base: ScoreDistribution
    eta: float
    mean_lo: float
    mean_hi: float
    cdf_lo: np.ndarray
    cdf_hi: np.ndarray


def corrected_distribution(dist: ScoreDistribution, eta: float) -> CorrectedDistribution:
    """Bernstein mean interval and DKW CDF band at failure budget ``eta``.

    The two statistics are alternatives, not a union: a consumer uses
    either the mean interval or the CDF band, each valid at level
    ``eta`` on its own.
    """
    _check_eta(eta)
    eps_mean = bernstein_radius(dist.n_samples, dist.variance, eta)
    eps_cdf = dkw_radius(dist.n_samples, eta)
    lo = np.maximum(dist.cdf - eps_cdf, 0.0)
    hi = np.minimum(dist.cdf + eps_cdf, 1.0)
    # A uniform shift keeps monotonicity, but enforce it anyway so the
    # band is a valid CDF no matter how it was produced.
    lo = np.maximum.accumulate(lo)
    hi = np.minimum.accumulate(hi[::-1])[::-1]
    return CorrectedDistribution(
        base=dist,
        eta=eta,
        mean_lo=max(dist.mean - eps_mean, 0.0),
        mean_hi=min(dist.mean + eps_mean, 1.0),
        cdf_lo=lo,
        cdf_hi=hi,
    )


def corrected_bound(
    dist: ScoreDistribution,
    model: ThreatModel,
    scheme: SmoothingScheme,
    direction: str,
    kind: str,
    eta: float,
) -> float:
    """Worst-case bound over ``model`` taken after widening the measured statistic.

    Upper bounds consume the upper mean end or the lower CDF band (a
    lower CDF weakens the constraint exactly the way more mass above
    every edge would); lower bounds take the mirrored choices.  As in
    :func:`~robustcp.bounds.bound_for_clean`, ``model`` is the ball
    around the measured point.
    """
    corr = corrected_distribution(dist, eta)
    if kind == "mean":
        mean = corr.mean_hi if direction == "upper" else corr.mean_lo
        pessimistic = replace(dist, mean=mean)
    elif kind == "cdf":
        band = corr.cdf_lo if direction == "upper" else corr.cdf_hi
        pessimistic = replace(dist, cdf=band)
    else:
        raise ValueError("kind must be 'mean' or 'cdf'")
    return bound_for_clean(pessimistic, model, scheme, direction, kind)


@dataclass
class BudgetLedger:
    """Accounting of a failure budget split across pipeline stages.

    ``entries`` keeps every spend for auditing; ``spent`` is their
    running total, summed in spend order.
    """

    eta: float
    entries: list[tuple[str, float]] = field(default_factory=list, init=False)
    _spent: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        _check_eta(self.eta)

    def spend(self, label: str, amount: float) -> float:
        """Record a spend and fail loudly if the declared budget is exceeded."""
        if amount <= 0.0:
            raise ValueError("budget spends must be positive")
        self.entries.append((label, float(amount)))
        self._spent += float(amount)
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
