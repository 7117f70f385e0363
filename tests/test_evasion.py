"""Calibration and prediction under test-time perturbations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcp import evasion
from robustcp.bounds import BinaryBall, L2Ball, bound_for_clean
from robustcp.correction import BudgetLedger, bernstein_radius, corrected_bound
from robustcp.errors import ConfigurationError
from robustcp.evasion import (
    EvasionConfig,
    calibrate,
    calibrate_smooth,
    class_distributions,
    lower_bounds_for,
    predict,
    vanilla_worst_case_coverage,
)
from robustcp.scores import conformal_quantile, inverse_quantile
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
    ScoreBatch,
    SparseFlipNoise,
    score_samples,
    substream,
    summarize_samples,
)
from robustcp.tasks import make_binary_task, make_gaussian_mixture, oracle_for

N_CAL = 24
N_SAMPLES = 400
ALPHA = 0.25


@pytest.fixture(scope="module")
def gaussian_setup():
    task = make_gaussian_mixture(n_classes=3, dim=2, separation=2.0, seed=5)
    oracle = oracle_for(task)
    rng = substream(5, "eva-data")
    x, y = task.sample(N_CAL, rng)
    config = EvasionConfig(
        scheme=GaussianNoise(sigma=0.25),
        model=L2Ball(radius=0.125),
        mode="test-time",
        bound_kind="cdf",
        n_samples=N_SAMPLES,
    )
    return task, oracle, x, y, config


@pytest.fixture(scope="module")
def calibrated(gaussian_setup):
    _, oracle, x, y, config = gaussian_setup
    return calibrate_smooth(oracle, x, y, ALPHA, config, seed=17)


def test_calibrate_is_deterministic(gaussian_setup, calibrated):
    _, oracle, x, y, config = gaussian_setup
    again = calibrate_smooth(oracle, x, y, ALPHA, config, seed=17)
    assert again.thresholds == calibrated.thresholds
    np.testing.assert_array_equal(again.table.smooth_means, calibrated.table.smooth_means)
    np.testing.assert_array_equal(again.table.lower_bounds, calibrated.table.lower_bounds)


def test_calibrate_seed_changes_estimates(gaussian_setup, calibrated):
    _, oracle, x, y, config = gaussian_setup
    other = calibrate_smooth(oracle, x, y, ALPHA, config, seed=18)
    assert not np.array_equal(other.table.smooth_means, calibrated.table.smooth_means)


def test_calibrate_is_exchangeable(gaussian_setup, calibrated):
    """Streams are keyed by point id, so permuting rows permutes the table."""
    _, oracle, x, y, config = gaussian_setup
    table = calibrated.table
    perm = substream(0, "perm").permutation(N_CAL)
    shuffled = calibrate_smooth(
        oracle, x[perm], y[perm], ALPHA, config, seed=17, point_ids=np.arange(N_CAL)[perm]
    )
    assert shuffled.thresholds == calibrated.thresholds
    np.testing.assert_array_equal(shuffled.table.smooth_means, table.smooth_means[perm])
    np.testing.assert_array_equal(shuffled.table.lower_bounds, table.lower_bounds[perm])


def _same_distribution(a, b):
    assert (a.n_samples, a.mean, a.variance) == (b.n_samples, b.mean, b.variance)
    np.testing.assert_array_equal(a.cdf, b.cdf)


def test_class_distributions_share_one_oracle_call(gaussian_setup):
    """Class c is column c of one oracle call on the point's test stream."""
    _, oracle, x, _, config = gaussian_setup
    dists = class_distributions(oracle, x[2], config, seed=23, point_id=2)
    scores = score_samples(
        oracle, x[2], config.scheme, config.n_samples, substream(23, "test", 2)
    )
    assert len(dists) == scores.shape[1] == 3
    for c, d in enumerate(dists):
        _same_distribution(d, summarize_samples(scores[:, c], config.grid))


def test_calibration_keeps_the_label_column(gaussian_setup, calibrated):
    _, oracle, x, y, config = gaussian_setup
    for i in (0, 5):
        scores = score_samples(
            oracle, x[i], config.scheme, config.n_samples, substream(17, "cal", i)
        )
        _same_distribution(
            calibrated.table.distributions[i],
            summarize_samples(scores[:, y[i]], config.grid),
        )


def test_threshold_is_quantile_of_means(calibrated):
    threshold = calibrated.thresholds["vanilla"]
    assert threshold == conformal_quantile(calibrated.table.smooth_means, ALPHA)


def test_calibration_time_threshold_is_more_conservative(calibrated):
    guarded = calibrated.thresholds["calibration-time"]
    assert guarded == conformal_quantile(calibrated.table.lower_bounds, ALPHA)
    assert guarded <= calibrated.thresholds["vanilla"]


def test_lower_bounds_recomputable_from_distributions(gaussian_setup, calibrated):
    _, _, _, _, config = gaussian_setup
    table = calibrated.table
    np.testing.assert_array_equal(lower_bounds_for(table, config), table.lower_bounds)
    # The L2 ball is its own reversal, so the observed-point bounds are the same.
    reversed_cfg = dataclasses.replace(config, model=config.model.reversed())
    np.testing.assert_array_equal(lower_bounds_for(table, reversed_cfg), table.lower_bounds)
    # A larger ball certifies weaker (smaller) lower bounds.
    wider = dataclasses.replace(config, model=L2Ball(radius=0.25))
    assert np.all(lower_bounds_for(table, wider) <= table.lower_bounds + 1e-12)


def test_test_time_sets_match_distribution_route(gaussian_setup, calibrated):
    """Test-time robust sets are the observed-ball upper bounds of each
    point's class distributions thresholded at the vanilla threshold, and
    a point's set does not depend on the batch it is predicted in."""
    _, oracle, x, _, config = gaussian_setup
    threshold = calibrated.thresholds["vanilla"]
    dists = ScoreBatch.stack(
        [class_distributions(oracle, x[i], config, seed=23, point_id=i) for i in range(4)]
    )
    batch = predict(dists, calibrated, config)["robust"]
    assert batch.shape == (4, 3) and batch.dtype == bool
    for i in range(4):
        upper = np.array([
            bound_for_clean(d, config.model.reversed(), config.scheme, "upper", config.bound_kind)
            for d in dists[i]
        ])
        np.testing.assert_array_equal(batch[i], upper >= threshold)
        alone = predict(ScoreBatch.stack([dists[i]]), calibrated, config)["robust"]
        np.testing.assert_array_equal(alone[0], batch[i])


def test_smooth_mean_set_is_plain_thresholding(gaussian_setup, calibrated):
    _, oracle, x, _, config = gaussian_setup
    threshold = calibrated.thresholds["vanilla"]
    dists = class_distributions(oracle, x[0], config, seed=23, point_id=0)
    got = predict(ScoreBatch.stack([dists]), calibrated, config)["vanilla"][0]
    want = {c for c in range(3) if dists[c].mean >= threshold}
    assert set(np.flatnonzero(got)) == want


def test_set_nesting_vanilla_mean_cdf(gaussian_setup, calibrated):
    """Certified sets only ever grow the plain set, and the CDF route
    stays inside the mean route."""
    _, oracle, x, _, config = gaussian_setup
    mean_cfg = dataclasses.replace(config, bound_kind="mean")
    dists = ScoreBatch.stack(
        [class_distributions(oracle, x[i], config, seed=29, point_id=i) for i in range(8)]
    )
    by_cdf = predict(dists, calibrated, config)
    by_mean = predict(dists, calibrated, mean_cfg)
    assert np.all(by_cdf["vanilla"] <= by_cdf["robust"])
    assert np.all(by_cdf["robust"] <= by_mean["robust"])


def test_vanilla_worst_case_coverage_definition(calibrated):
    table, threshold = calibrated.table, calibrated.thresholds["vanilla"]
    beta = vanilla_worst_case_coverage(threshold, table.lower_bounds)
    assert beta == 1.0 - inverse_quantile(threshold, table.lower_bounds)
    # Without an attack the floor is the usual empirical level.
    clean = vanilla_worst_case_coverage(threshold, table.smooth_means)
    assert beta <= clean


def test_corrected_calibrate_dominates_plain(gaussian_setup, calibrated):
    _, oracle, x, y, config = gaussian_setup
    cfg = dataclasses.replace(config, mode="calibration-time", eta=0.05)
    corrected = calibrate_smooth(oracle, x, y, ALPHA, cfg, seed=17)
    table, ledger = corrected.table, corrected.ledger
    assert len(ledger.entries) == N_CAL
    assert ledger.spent <= cfg.eta / 2 + 1e-12
    assert np.all(table.corrected_lower_bounds <= table.lower_bounds + 1e-12)
    assert corrected.thresholds["corrected"] <= corrected.thresholds["calibration-time"]
    # The plain thresholds do not depend on eta.
    assert calibrated.ledger is None and "corrected" not in calibrated.thresholds
    assert corrected.thresholds["calibration-time"] == calibrated.thresholds["calibration-time"]


@pytest.fixture(scope="module")
def corrected_prediction(gaussian_setup):
    """A corrected calibration, four test points, and predict's ledger spends."""
    _, oracle, x, y, config = gaussian_setup
    cfg = dataclasses.replace(config, mode="calibration-time", eta=0.02)
    calibration = calibrate_smooth(oracle, x, y, ALPHA, cfg, seed=17)
    test = ScoreBatch.stack(
        [class_distributions(oracle, x[i], cfg, seed=31, point_id=i) for i in range(4)]
    )
    spends = []

    class RecordingLedger(BudgetLedger):
        def spend(self, label, amount):
            spends.append((label, amount))
            return super().spend(label, amount)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evasion, "BudgetLedger", RecordingLedger)
        sets = predict(test, calibration, cfg)
    return cfg, calibration, test, sets, spends


def test_corrected_set_contains_mean_set(corrected_prediction):
    cfg, calibration, test, sets, spends = corrected_prediction
    threshold = calibration.thresholds["corrected"]
    wide = sets["corrected"]
    assert wide.shape == (4, 3) and wide.dtype == bool
    assert np.all((test.mean >= threshold) <= wide)
    # Per point: the calibration side, then one spend per class, each of
    # eta / (2 * n_classes).
    per_class = cfg.eta / (2 * 3)
    assert spends == [
        entry
        for i in range(4)
        for entry in [("calibration side", calibration.ledger.spent)]
        + [(f"test point {i} class {c} mean radius", per_class) for c in range(3)]
    ]


def test_corrected_set_membership_rule(corrected_prediction):
    cfg, calibration, test, sets, _ = corrected_prediction
    threshold = calibration.thresholds["corrected"]
    per_class = cfg.eta / (2 * 3)
    for i, dists in enumerate(test):
        want = {
            c
            for c, d in enumerate(dists)
            if d.mean + bernstein_radius(d.n_samples, d.variance, per_class) >= threshold
        }
        assert set(np.flatnonzero(sets["corrected"][i])) == want


def test_predict_refuses_sets_that_do_not_nest(gaussian_setup, calibrated):
    """A calibration-time threshold above the vanilla one would drop vanilla classes."""
    _, oracle, x, _, config = gaussian_setup
    dists = class_distributions(oracle, x[0], config, seed=23, point_id=0)
    inverted = dataclasses.replace(
        calibrated, thresholds={"vanilla": -np.inf, "calibration-time": np.inf}
    )
    with pytest.raises(AssertionError, match="not inside robust"):
        predict(
            ScoreBatch.stack([dists]), inverted,
            dataclasses.replace(config, mode="calibration-time"),
        )


def test_binary_pipeline_end_to_end():
    task = make_binary_task(n_classes=3, dim=16, strength=0.2, seed=2)
    oracle = oracle_for(task)
    rng = substream(2, "eva-bin")
    x, y = task.sample(16, rng)
    config = EvasionConfig(
        scheme=SparseFlipNoise(0.1, 0.1),
        model=BinaryBall(additions=1, deletions=1),
        mode="test-time",
        bound_kind="cdf",
        n_samples=300,
    )
    calibration = calibrate_smooth(oracle, x, y, ALPHA, config, seed=3)
    table = calibration.table
    assert np.all(table.lower_bounds <= table.smooth_means + 1e-12)
    expect = [
        bound_for_clean(d, config.model, config.scheme, "lower", "cdf")
        for d in table.distributions
    ]
    np.testing.assert_allclose(table.lower_bounds, expect)
    dists = class_distributions(oracle, x[0], config, seed=4, point_id=0)
    sets = predict(ScoreBatch.stack([dists]), calibration, config)
    assert sets["vanilla"].shape == sets["robust"].shape == (1, 3)
    assert np.all(sets["vanilla"] <= sets["robust"])


def test_length_mismatch_rejected(gaussian_setup):
    _, oracle, x, y, config = gaussian_setup
    with pytest.raises(ValueError):
        calibrate_smooth(oracle, x, y[:-1], ALPHA, config, seed=0)


# ------------------------------------------------------ calibrate / predict --

_GRID = BinGrid.uniform(21)
# Scheme, threat model, and the ball around an observed point that holds
# its clean point.  Unequal flip budgets make the two balls differ.
_THREATS = {
    "gaussian": (GaussianNoise(sigma=0.25), L2Ball(radius=0.125), L2Ball(radius=0.125)),
    "sparse": (
        SparseFlipNoise(0.1, 0.2),
        BinaryBall(additions=2, deletions=1),
        BinaryBall(additions=1, deletions=2),
    ),
}


def _random_distribution(rng):
    centre = rng.uniform(0.0, 1.0)
    samples = np.clip(centre + rng.normal(0.0, rng.uniform(0.01, 0.3), 50), 0.0, 1.0)
    return summarize_samples(samples, _GRID)


def _members(scores, threshold) -> list[bool]:
    """One point's set, class by class: the per-point reference for a mask row."""
    return [bool(s >= threshold) for s in scores]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_cal=st.integers(5, 30),
    n_test=st.integers(1, 6),
    n_classes=st.integers(2, 5),
    threat=st.sampled_from(sorted(_THREATS)),
    mode=st.sampled_from(["test-time", "calibration-time"]),
    bound_kind=st.sampled_from(["mean", "cdf"]),
    eta=st.sampled_from([0.0, 0.02]),
)
def test_calibrate_and_predict_properties(
    seed, n_cal, n_test, n_classes, threat, mode, bound_kind, eta
):
    rng = substream(seed, "core")
    scheme, model, observed_ball = _THREATS[threat]
    config = EvasionConfig(
        scheme=scheme, model=model, mode=mode, bound_kind=bound_kind, grid=_GRID, eta=eta
    )
    calibration = calibrate(
        ScoreBatch.stack([_random_distribution(rng) for _ in range(n_cal)]), ALPHA, config
    )
    table, thresholds = calibration.table, calibration.thresholds

    lower = [bound_for_clean(d, model, scheme, "lower", bound_kind) for d in table.distributions]
    np.testing.assert_array_equal(table.lower_bounds, lower)
    assert thresholds["vanilla"] == conformal_quantile(table.smooth_means, ALPHA)
    assert thresholds["calibration-time"] == conformal_quantile(table.lower_bounds, ALPHA)
    assert thresholds["calibration-time"] <= thresholds["vanilla"]
    if eta > 0.0:
        widened = [
            corrected_bound(d, model, scheme, "lower", bound_kind, eta / (2 * n_cal))
            for d in table.distributions
        ]
        np.testing.assert_array_equal(table.corrected_lower_bounds, widened)
        assert thresholds["corrected"] == conformal_quantile(widened, ALPHA - eta)
        assert thresholds["corrected"] <= thresholds["calibration-time"]
        assert np.all(table.corrected_lower_bounds <= table.lower_bounds + 1e-12)
        assert len(calibration.ledger.entries) == n_cal
        assert calibration.ledger.spent == pytest.approx(eta / 2)
    else:
        assert set(thresholds) == {"vanilla", "calibration-time"}
        assert calibration.ledger is None

    test = ScoreBatch.stack([
        ScoreBatch.stack([_random_distribution(rng) for _ in range(n_classes)])
        for _ in range(n_test)
    ])
    if eta > 0.0 and mode == "test-time":
        with pytest.raises(ConfigurationError):
            predict(test, calibration, config)
        return
    sets = predict(test, calibration, config)
    methods = {"vanilla", "robust", "corrected"} if eta > 0.0 else {"vanilla", "robust"}
    assert set(sets) == methods
    for mask in sets.values():
        assert mask.shape == (n_test, n_classes) and mask.dtype == bool
    per_class = eta / (2 * n_classes)
    for p, dists in enumerate(test):
        means = [d.mean for d in dists]
        vanilla = sets["vanilla"][p]
        assert vanilla.tolist() == _members(means, thresholds["vanilla"])
        if mode == "test-time":
            upper = [
                bound_for_clean(d, observed_ball, scheme, "upper", bound_kind) for d in dists
            ]
            assert sets["robust"][p].tolist() == _members(upper, thresholds["vanilla"])
        else:
            assert sets["robust"][p].tolist() == _members(means, thresholds["calibration-time"])
        assert np.all(vanilla <= sets["robust"][p])
        if eta > 0.0:
            inflated = [
                d.mean + bernstein_radius(d.n_samples, d.variance, per_class) for d in dists
            ]
            assert sets["corrected"][p].tolist() == _members(inflated, thresholds["corrected"])
            assert np.all(vanilla <= sets["corrected"][p])
    if mode == "test-time":
        # Thresholds on either side of one observed-ball bound pin its exact value.
        edge = bound_for_clean(test[0][0], observed_ball, scheme, "upper", bound_kind)
        for threshold, inside in ((edge, True), (np.nextafter(edge, np.inf), False)):
            pinned = dataclasses.replace(
                calibration, thresholds={**thresholds, "vanilla": threshold}
            )
            assert predict(test, pinned, config)["robust"][0, 0] == inside
