"""Concentration radii, widened bounds, and failure-budget accounting."""

import dataclasses
import math

import numpy as np
import pytest

from robustcp.bounds import BinaryBall, L2Ball, bound_for_clean
from robustcp.correction import (
    BudgetLedger,
    _cdf_band,
    bernstein_radius,
    corrected_bound,
    dkw_radius,
    hoeffding_radius,
)
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
    SparseFlipNoise,
    substream,
    summarize_samples,
)


def test_hoeffding_radius_frozen_value():
    # sqrt(log(2 / 0.05) / (2 * 10^4)), computed independently.
    assert hoeffding_radius(10_000, 0.05) == pytest.approx(
        math.sqrt(math.log(40.0) / 20_000.0), abs=1e-15
    )
    assert hoeffding_radius(10_000, 0.05) == pytest.approx(0.013581015157, abs=1e-9)


def test_bernstein_radius_frozen_value():
    expect = math.sqrt(2 * 0.25 * math.log(80.0) / 10_000) + 7 * math.log(80.0) / (
        3 * 9_999
    )
    assert bernstein_radius(10_000, 0.25, 0.05) == pytest.approx(expect, abs=1e-15)
    assert bernstein_radius(10_000, 0.25, 0.05) == pytest.approx(0.0158246470, abs=1e-9)


def test_bernstein_beats_hoeffding_at_low_variance():
    assert bernstein_radius(10_000, 0.001, 0.05) < hoeffding_radius(10_000, 0.05)


def test_dkw_equals_hoeffding():
    for m, eta in ((100, 0.1), (10_000, 0.01)):
        assert dkw_radius(m, eta) == hoeffding_radius(m, eta)


def test_radii_shrink_with_samples_and_grow_with_confidence():
    assert hoeffding_radius(40_000, 0.05) == pytest.approx(
        hoeffding_radius(10_000, 0.05) / 2
    )
    assert hoeffding_radius(100, 0.01) > hoeffding_radius(100, 0.1)
    assert bernstein_radius(1000, 0.1, 0.01) > bernstein_radius(4000, 0.1, 0.01)


def test_radius_validation():
    with pytest.raises(ValueError):
        hoeffding_radius(100, 0.0)
    with pytest.raises(ValueError):
        hoeffding_radius(0, 0.05)
    with pytest.raises(ValueError):
        bernstein_radius(1, 0.1, 0.05)
    with pytest.raises(ValueError):
        bernstein_radius(100, -0.1, 0.05)


@pytest.fixture()
def sample_dist():
    rng = substream(9, "correction")
    return summarize_samples(np.clip(rng.beta(3, 3, 200), 0, 1), BinGrid.uniform(51))


def test_corrected_mean_interval(sample_dist):
    """At radius 0 the mean route returns the widened mean itself: the
    Bernstein interval's ends, clipped to [0, 1]."""
    eta = 0.05
    model, scheme = L2Ball(0.0), GaussianNoise(0.25)
    radius = bernstein_radius(sample_dist.n_samples, sample_dist.variance, eta)
    mean_hi = corrected_bound(sample_dist, model, scheme, "upper", "mean", eta)
    mean_lo = corrected_bound(sample_dist, model, scheme, "lower", "mean", eta)
    assert mean_hi == min(sample_dist.mean + radius, 1.0)
    assert mean_lo == max(sample_dist.mean - radius, 0.0)
    assert mean_lo <= sample_dist.mean <= mean_hi


def test_corrected_cdf_band(sample_dist):
    eta = 0.05
    cdf_lo, cdf_hi = _cdf_band(sample_dist.cdf, sample_dist.n_samples, eta)
    width = dkw_radius(sample_dist.n_samples, eta)
    assert np.all(cdf_lo <= sample_dist.cdf + 1e-15)
    assert np.all(cdf_hi >= sample_dist.cdf - 1e-15)
    np.testing.assert_allclose(cdf_lo, np.maximum(sample_dist.cdf - width, 0.0), atol=1e-15)
    # Bands stay valid CDFs.
    assert np.all(np.diff(cdf_lo) >= 0)
    assert np.all(np.diff(cdf_hi) >= 0)
    assert np.all(cdf_lo >= 0) and np.all(cdf_hi <= 1)
    # The cdf route bounds the band's edge on its side, and nothing else.
    model, scheme = L2Ball(0.1), GaussianNoise(0.25)
    for direction, band in (("upper", cdf_lo), ("lower", cdf_hi)):
        assert corrected_bound(sample_dist, model, scheme, direction, "cdf", eta) == (
            bound_for_clean(
                dataclasses.replace(sample_dist, cdf=band), model, scheme, direction, "cdf"
            )
        )


def test_corrected_bound_dominates_plain(sample_dist):
    cases = [
        (L2Ball(0.1), GaussianNoise(0.25)),
        (BinaryBall(2, 1), SparseFlipNoise(0.1, 0.1)),
    ]
    for model, scheme in cases:
        for kind in ("mean", "cdf"):
            plain_up = bound_for_clean(sample_dist, model, scheme, "upper", kind)
            plain_lo = bound_for_clean(sample_dist, model, scheme, "lower", kind)
            wide_up = corrected_bound(sample_dist, model, scheme, "upper", kind, 0.05)
            wide_lo = corrected_bound(sample_dist, model, scheme, "lower", kind, 0.05)
            assert wide_up >= plain_up - 1e-12
            assert wide_lo <= plain_lo + 1e-12


def test_corrected_bound_tightens_as_eta_grows(sample_dist):
    model, scheme = L2Ball(0.1), GaussianNoise(0.25)
    loose = corrected_bound(sample_dist, model, scheme, "lower", "cdf", 0.001)
    tight = corrected_bound(sample_dist, model, scheme, "lower", "cdf", 0.2)
    assert loose <= tight


def test_corrected_bound_rejects_unknown_kind(sample_dist):
    with pytest.raises(ValueError):
        corrected_bound(
            sample_dist, L2Ball(0.1), GaussianNoise(0.25), "upper", "median", 0.05
        )


class TestBudgetLedger:
    def test_spend_accumulates(self):
        ledger = BudgetLedger(eta=0.1)
        ledger.spend("calibration", 0.04)
        ledger.spend("test point", 0.05)
        assert ledger.spent == pytest.approx(0.09)
        ledger.assert_within()
        assert ledger.entries == [("calibration", 0.04, 1), ("test point", 0.05, 1)]

    def test_overspend_raises_immediately(self):
        ledger = BudgetLedger(eta=0.05)
        ledger.spend("a", 0.03)
        with pytest.raises(ValueError, match="budget exceeded"):
            ledger.spend("b", 0.03)

    def test_exact_budget_is_allowed(self):
        ledger = BudgetLedger(eta=0.1)
        ledger.spend("half", 0.05)
        ledger.spend("other half", 0.05)
        ledger.assert_within()

    def test_nonpositive_spend_rejected(self):
        ledger = BudgetLedger(eta=0.1)
        with pytest.raises(ValueError):
            ledger.spend("free", 0.0)

    def test_nan_spend_rejected(self):
        # NaN fails every comparison: once in the total, no overspend would raise.
        ledger = BudgetLedger(eta=0.1)
        with pytest.raises(ValueError, match="must be positive"):
            ledger.spend("x", float("nan"))
        assert ledger.entries == [] and ledger.spent == 0.0
        with pytest.raises(ValueError, match="failure budget exceeded"):
            ledger.spend("y", 5.0)

    @pytest.mark.parametrize("count", [0, -1, 1.5, 2.0, True, None, "3"])
    def test_count_must_be_a_positive_integer(self, count):
        ledger = BudgetLedger(eta=0.1)
        with pytest.raises(ValueError, match="positive integer"):
            ledger.spend("bands", 0.001, count)
        assert ledger.entries == [] and ledger.spent == 0.0

    def test_count_spends_amount_times_count(self):
        # One entry for a union bound over n events, at exactly amount * n.
        amount = 0.01 / 200
        ledger = BudgetLedger(eta=0.01)
        ledger.spend("calibration cdf bands", amount, np.int64(100))
        assert ledger.entries == [("calibration cdf bands", amount, 100)]
        assert ledger.spent == amount * 100
        ledger.spend("class mean radii", 0.01 / 6, 3)
        assert ledger.spent == amount * 100 + (0.01 / 6) * 3
        with pytest.raises(ValueError, match="failure budget exceeded"):
            BudgetLedger(eta=0.01).spend("calibration cdf bands", amount, 201)

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger(eta=0.0)
        with pytest.raises(ValueError):
            BudgetLedger(eta=1.0)

    def test_entries_come_only_from_spends(self):
        # A ledger cannot start with spends that were never checked.
        with pytest.raises(TypeError):
            BudgetLedger(eta=0.1, entries=[("elsewhere", 0.05)])
        assert BudgetLedger(eta=0.1).spent == 0.0

    def test_running_total_matches_summing_the_entries(self):
        rng = substream(46, "ledger")
        amounts = rng.uniform(0.1, 10.0, 3000)
        counts = rng.integers(1, 6, amounts.size)
        amounts *= 0.5 / (amounts * counts).sum()
        ledger = BudgetLedger(eta=0.5)
        for i, (amount, count) in enumerate(zip(amounts, counts.tolist())):
            ledger.spend(f"spend {i}", float(amount), count)
        # Left to right, as spends happen (sum() compensates from Python 3.12 on).
        total = 0.0
        for _, amount, count in ledger.entries:
            total += amount * count
        assert ledger.spent == total
        assert len(ledger.entries) == amounts.size
        ledger.assert_within()
        with pytest.raises(ValueError, match="failure budget exceeded"):
            ledger.spend("one too many", 1e-9)
