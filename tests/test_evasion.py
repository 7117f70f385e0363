"""Calibration and prediction under test-time perturbations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcp import evasion, formats
from robustcp.bounds import BinaryBall, L2Ball, bound_batch, bound_for_clean
from robustcp.correction import BudgetLedger, bernstein_radius, corrected_bound
from robustcp.errors import ConfigurationError
from robustcp.evasion import (
    EvasionConfig,
    calibrate,
    calibrate_smooth,
    class_distributions,
    predict,
    vanilla_worst_case_coverage,
)
from robustcp.scores import conformal_quantile, inverse_quantile
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
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
    np.testing.assert_array_equal(again.smooth_means, calibrated.smooth_means)
    np.testing.assert_array_equal(again.lower_bounds, calibrated.lower_bounds)


def test_calibrate_seed_changes_estimates(gaussian_setup, calibrated):
    _, oracle, x, y, config = gaussian_setup
    other = calibrate_smooth(oracle, x, y, ALPHA, config, seed=18)
    assert not np.array_equal(other.smooth_means, calibrated.smooth_means)


def test_calibrate_is_exchangeable(gaussian_setup, calibrated):
    """Streams are keyed by point id, so permuting rows permutes the calibration."""
    _, oracle, x, y, config = gaussian_setup
    perm = substream(0, "perm").permutation(N_CAL)
    shuffled = calibrate_smooth(
        oracle, x[perm], y[perm], ALPHA, config, seed=17, point_ids=np.arange(N_CAL)[perm]
    )
    assert shuffled.thresholds == calibrated.thresholds
    np.testing.assert_array_equal(shuffled.smooth_means, calibrated.smooth_means[perm])
    np.testing.assert_array_equal(shuffled.lower_bounds, calibrated.lower_bounds[perm])


def _same_distribution(a, b):
    assert (a.n_samples, a.mean, a.variance) == (b.n_samples, b.mean, b.variance)
    np.testing.assert_array_equal(a.cdf, b.cdf)


def test_class_distributions_share_one_oracle_call(gaussian_setup):
    """Class c is column c of one oracle call on the point's test stream."""
    _, oracle, x, _, config = gaussian_setup
    dists = class_distributions(oracle, x[1:3], config, seed=23, point_ids=[7, 2])
    assert dists.shape == (2, 3)
    for i, point_id in ((1, 2), (0, 7)):
        scores = score_samples(
            oracle, x[i + 1], config.scheme, config.n_samples, substream(23, "test", point_id)
        )
        assert scores.shape[1] == 3
        for c, d in enumerate(dists[i]):
            _same_distribution(d, summarize_samples(scores[:, c], config.grid))


def _bits(batch):
    return [np.asarray(getattr(batch, name)).view(np.int64) for name in ("mean", "variance", "cdf")]


@pytest.mark.parametrize("score_kind", ["tps", "aps"])
@pytest.mark.parametrize("family", ["gaussian", "binary"])
def test_class_distributions_of_versions_match_separate_calls(family, score_kind):
    """A (points, versions, d) stack draws each point's noise block once,
    yet every version gets the bits of a call on that version alone,
    APS tie-break draws included."""
    if family == "gaussian":
        task = make_gaussian_mixture(n_classes=3, dim=2, separation=2.0, seed=5)
        scheme = GaussianNoise(sigma=0.25)
    else:
        task = make_binary_task(n_classes=3, dim=16, strength=0.2, seed=2)
        scheme = SparseFlipNoise(0.1, 0.3)
    x, _ = task.sample(4, substream(6, "versions"))
    moved = substream(6, "moved").random((2,) + x.shape)
    if family == "gaussian":
        versions = [x, x + 0.1 * moved[0], x - 0.2 * moved[1]]
    else:
        versions = [x, x ^ (moved[0] < 0.1), x ^ (moved[1] < 0.2)]
    config = EvasionConfig(scheme=scheme, model=L2Ball(radius=0.125), n_samples=300)
    oracle = oracle_for(task, score_kind)
    stacked = class_distributions(oracle, np.stack(versions, axis=1), config, 8, [3, 1, 4, 9])
    assert stacked.shape == (4, 3, 3)
    for v, inputs in enumerate(versions):
        alone = class_distributions(oracle, inputs, config, 8, [3, 1, 4, 9])
        for got, want in zip(_bits(stacked[:, v]), _bits(alone)):
            np.testing.assert_array_equal(got, want)


def test_calibration_keeps_the_label_column(gaussian_setup, calibrated):
    _, oracle, x, y, config = gaussian_setup
    for i in (0, 5):
        scores = score_samples(
            oracle, x[i], config.scheme, config.n_samples, substream(17, "cal", i)
        )
        _same_distribution(
            calibrated.distributions[i],
            summarize_samples(scores[:, y[i]], config.grid),
        )


def test_threshold_is_quantile_of_means(calibrated):
    threshold = calibrated.thresholds["vanilla"]
    assert threshold == conformal_quantile(calibrated.smooth_means, ALPHA)


def test_calibration_time_threshold_is_more_conservative(calibrated):
    guarded = calibrated.thresholds["calibration-time"]
    assert guarded == conformal_quantile(calibrated.lower_bounds, ALPHA)
    assert guarded <= calibrated.thresholds["vanilla"]


def test_lower_bounds_recomputable_from_distributions(gaussian_setup, calibrated):
    _, _, _, _, config = gaussian_setup

    def lower_bounds(model):
        return bound_batch(
            calibrated.distributions, model, config.scheme, "lower", config.bound_kind
        )

    np.testing.assert_array_equal(lower_bounds(config.model), calibrated.lower_bounds)
    # The L2 ball is its own reversal, so the observed-point bounds are the same.
    np.testing.assert_array_equal(
        lower_bounds(config.model.reversed()), calibrated.lower_bounds
    )
    # A larger ball certifies weaker (smaller) lower bounds.
    assert np.all(lower_bounds(L2Ball(radius=0.25)) <= calibrated.lower_bounds + 1e-12)


def test_test_time_sets_match_distribution_route(gaussian_setup, calibrated):
    """Test-time robust sets are the observed-ball upper bounds of each
    point's class distributions thresholded at the vanilla threshold, and
    a point's set does not depend on the batch it is predicted in."""
    _, oracle, x, _, config = gaussian_setup
    threshold = calibrated.thresholds["vanilla"]
    dists = class_distributions(oracle, x[:4], config, seed=23)
    batch = predict(dists, calibrated, config)["robust"]
    assert batch.shape == (4, 3) and batch.dtype == bool
    for i in range(4):
        upper = np.array([
            bound_for_clean(d, config.model.reversed(), config.scheme, "upper", config.bound_kind)
            for d in dists[i]
        ])
        np.testing.assert_array_equal(batch[i], upper >= threshold)
        alone = predict(dists[i : i + 1], calibrated, config)["robust"]
        np.testing.assert_array_equal(alone[0], batch[i])


def test_smooth_mean_set_is_plain_thresholding(gaussian_setup, calibrated):
    _, oracle, x, _, config = gaussian_setup
    threshold = calibrated.thresholds["vanilla"]
    dists = class_distributions(oracle, x[:1], config, seed=23)
    got = predict(dists, calibrated, config)["vanilla"][0]
    want = {c for c in range(3) if dists.mean[0, c] >= threshold}
    assert set(np.flatnonzero(got)) == want


def test_set_nesting_vanilla_mean_cdf(gaussian_setup, calibrated):
    """Certified sets only ever grow the plain set, and the CDF route
    stays inside the mean route."""
    _, oracle, x, _, config = gaussian_setup
    mean_cfg = dataclasses.replace(config, bound_kind="mean")
    dists = class_distributions(oracle, x[:8], config, seed=29)
    by_cdf = predict(dists, calibrated, config)
    by_mean = predict(dists, calibrated, mean_cfg)
    assert np.all(by_cdf["vanilla"] <= by_cdf["robust"])
    assert np.all(by_cdf["robust"] <= by_mean["robust"])


def test_vanilla_worst_case_coverage_definition(calibrated):
    threshold = calibrated.thresholds["vanilla"]
    beta = vanilla_worst_case_coverage(threshold, calibrated.lower_bounds)
    assert beta == 1.0 - inverse_quantile(threshold, calibrated.lower_bounds)
    # Without an attack the floor is the usual empirical level.
    clean = vanilla_worst_case_coverage(threshold, calibrated.smooth_means)
    assert beta <= clean


def _spends_of(fn, *args):
    """``fn(*args)``, and every spend of its ``evasion`` ledgers as (label, amount, count)."""
    spends = []

    class RecordingLedger(BudgetLedger):
        def spend(self, label, amount, count=1):
            spends.append((label, amount, count))
            return super().spend(label, amount, count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evasion, "BudgetLedger", RecordingLedger)
        return fn(*args), spends


def _predict_stages(eta, n_cal, n_classes):
    """The two stages a corrected predict spends, whatever the calibration's origin."""
    return [
        ("calibration cdf bands", eta / (2 * n_cal), n_cal),
        ("class mean radii", eta / (2 * n_classes), n_classes),
    ]


def test_corrected_calibrate_dominates_plain(gaussian_setup, calibrated):
    _, oracle, x, y, config = gaussian_setup
    cfg = dataclasses.replace(config, mode="calibration-time", eta=0.05)
    corrected = calibrate_smooth(oracle, x, y, ALPHA, cfg, seed=17)
    test = class_distributions(oracle, x[:2], cfg, seed=31)
    _, spends = _spends_of(predict, test, corrected, cfg)
    assert spends == _predict_stages(cfg.eta, N_CAL, 3)
    assert np.all(corrected.corrected_lower_bounds <= corrected.lower_bounds + 1e-12)
    assert corrected.thresholds["corrected"] <= corrected.thresholds["calibration-time"]
    # The plain thresholds do not depend on eta, and a plain predict spends nothing.
    assert "corrected" not in calibrated.thresholds
    assert _spends_of(predict, test, calibrated, config)[1] == []
    assert corrected.thresholds["calibration-time"] == calibrated.thresholds["calibration-time"]


@pytest.fixture(scope="module")
def corrected_prediction(gaussian_setup):
    """A corrected calibration, four test points, and predict's ledger spends."""
    _, oracle, x, y, config = gaussian_setup
    cfg = dataclasses.replace(config, mode="calibration-time", eta=0.02)
    calibration = calibrate_smooth(oracle, x, y, ALPHA, cfg, seed=17)
    test = class_distributions(oracle, x[:4], cfg, seed=31)
    sets, spends = _spends_of(predict, test, calibration, cfg)
    return cfg, calibration, test, sets, spends


def test_corrected_set_contains_mean_set(corrected_prediction):
    cfg, calibration, test, sets, spends = corrected_prediction
    threshold = calibration.thresholds["corrected"]
    wide = sets["corrected"]
    assert wide.shape == (4, 3) and wide.dtype == bool
    assert np.all((test.mean >= threshold) <= wide)
    # Once for all four points: the calibration's N_CAL bands, then the
    # three classes, each of eta / (2 * n_classes).
    assert spends == _predict_stages(cfg.eta, N_CAL, 3)


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
    dists = class_distributions(oracle, x[:1], config, seed=23)
    inverted = dataclasses.replace(
        calibrated, thresholds={"vanilla": -np.inf, "calibration-time": np.inf}
    )
    with pytest.raises(AssertionError, match="not inside robust"):
        predict(dists, inverted, dataclasses.replace(config, mode="calibration-time"))


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
    assert np.all(calibration.lower_bounds <= calibration.smooth_means + 1e-12)
    expect = [
        bound_for_clean(d, config.model, config.scheme, "lower", "cdf")
        for d in calibration.distributions
    ]
    np.testing.assert_allclose(calibration.lower_bounds, expect)
    dists = class_distributions(oracle, x[:1], config, seed=4)
    sets = predict(dists, calibration, config)
    assert sets["vanilla"].shape == sets["robust"].shape == (1, 3)
    assert np.all(sets["vanilla"] <= sets["robust"])


def test_length_mismatch_rejected(gaussian_setup):
    _, oracle, x, y, config = gaussian_setup
    with pytest.raises(ValueError):
        calibrate_smooth(oracle, x, y[:-1], ALPHA, config, seed=0)
    # A point id list that does not match the inputs is refused, not zipped short.
    with pytest.raises(ValueError, match="one point id per input"):
        calibrate_smooth(oracle, x, y, ALPHA, config, seed=0, point_ids=[0, 1])
    with pytest.raises(ValueError, match="one point id per input"):
        class_distributions(oracle, x[:3], config, seed=0, point_ids=[0, 1])
    # Calibration takes no versions axis: its labels index the classes.
    with pytest.raises(ValueError, match=r"\(points, d\)"):
        calibrate_smooth(oracle, np.stack([x, x], axis=1), y, ALPHA, config, seed=0)


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


def _random_samples(rng):
    centre = rng.uniform(0.0, 1.0)
    return np.clip(centre + rng.normal(0.0, rng.uniform(0.01, 0.3), 50), 0.0, 1.0)


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
    calibration, spends = _spends_of(
        calibrate,
        summarize_samples(np.array([_random_samples(rng) for _ in range(n_cal)]), _GRID),
        ALPHA, config,
    )
    assert spends == []
    thresholds = calibration.thresholds

    lower = [
        bound_for_clean(d, model, scheme, "lower", bound_kind) for d in calibration.distributions
    ]
    np.testing.assert_array_equal(calibration.lower_bounds, lower)
    assert thresholds["vanilla"] == conformal_quantile(calibration.smooth_means, ALPHA)
    assert thresholds["calibration-time"] == conformal_quantile(calibration.lower_bounds, ALPHA)
    assert thresholds["calibration-time"] <= thresholds["vanilla"]
    if eta > 0.0:
        widened = [
            corrected_bound(d, model, scheme, "lower", bound_kind, eta / (2 * n_cal))
            for d in calibration.distributions
        ]
        np.testing.assert_array_equal(calibration.corrected_lower_bounds, widened)
        assert thresholds["corrected"] == conformal_quantile(widened, ALPHA - eta)
        assert thresholds["corrected"] <= thresholds["calibration-time"]
        assert np.all(calibration.corrected_lower_bounds <= calibration.lower_bounds + 1e-12)
    else:
        assert set(thresholds) == {"vanilla", "calibration-time"}

    test = summarize_samples(np.array([
        [_random_samples(rng) for _ in range(n_classes)] for _ in range(n_test)
    ]), _GRID)
    if eta > 0.0 and mode == "test-time":
        with pytest.raises(ConfigurationError):
            predict(test, calibration, config)
        return
    sets, spends = _spends_of(predict, test, calibration, config)
    assert spends == (_predict_stages(eta, n_cal, n_classes) if eta > 0.0 else [])
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


# -------------------------------------------------------- failure budget --

def _corrected_core(n_cal, eta=0.01, n_test=3, n_classes=3, seed=0):
    """A calibration-time config at ``eta``, a ``(n_cal,)`` and a ``(n_test, n_classes)`` batch."""
    rng = substream(seed, "budget")
    config = EvasionConfig(
        scheme=GaussianNoise(sigma=0.25), model=L2Ball(radius=0.125),
        mode="calibration-time", grid=_GRID, eta=eta,
    )
    cal = summarize_samples(np.array([_random_samples(rng) for _ in range(n_cal)]), _GRID)
    test = summarize_samples(np.array([
        [_random_samples(rng) for _ in range(n_classes)] for _ in range(n_test)
    ]), _GRID)
    return config, cal, test


@pytest.mark.parametrize("n_cal", [25, 300])
def test_corrected_calibrate_spends_nothing_and_predict_two_stages(n_cal):
    config, cal, test = _corrected_core(n_cal)
    calibration, spends = _spends_of(calibrate, cal, ALPHA, config)
    assert spends == []
    _, spends = _spends_of(predict, test, calibration, config)
    assert spends == _predict_stages(config.eta, n_cal, 3)


def test_loaded_calibration_spends_like_the_in_memory_one(tmp_path):
    # 100 bands at 0.01 / 200 sum to less than 0.01 / 2 in floating point,
    # so a route that summed the bands would differ from one that assumed eta / 2.
    config, cal, test = _corrected_core(100)
    calibration = calibrate(cal, ALPHA, config)
    formats.write_calibration_artifact(tmp_path / "cal.json", calibration, {"alpha": ALPHA})
    loaded, _ = formats.read_calibration_artifact(tmp_path / "cal.json")
    sets, spends = _spends_of(predict, test, calibration, config)
    loaded_sets, loaded_spends = _spends_of(predict, test, loaded, config)
    assert spends == loaded_spends == _predict_stages(config.eta, 100, 3)
    assert sets.keys() == loaded_sets.keys()
    for method, mask in sets.items():
        np.testing.assert_array_equal(loaded_sets[method], mask)


def test_calibrate_refuses_alpha_at_most_eta_before_bounding(monkeypatch):
    config, cal, _ = _corrected_core(25, eta=ALPHA)
    calls = []
    monkeypatch.setattr(evasion, "bound_batch", lambda *args: calls.append(args))
    with pytest.raises(ConfigurationError, match="alpha must exceed"):
        calibrate(cal, ALPHA, config)
    assert calls == []
