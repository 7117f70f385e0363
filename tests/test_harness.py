"""Experiment harness: tasks, attacks, trials, and the file-writing runner."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from scipy.special import softmax

from robustcp import tasks
from robustcp.attacks import (
    _smooth_objective,
    evade_binary,
    evade_l2,
    poison_features_attack,
    poison_labels_attack,
)
from robustcp.bounds import BinaryBall, L2Ball, bound_batch
from robustcp.errors import ConfigurationError
from robustcp.evasion import EvasionConfig, calibrate_smooth
from robustcp.experiments import (
    ExperimentConfig,
    TaskSpec,
    TrialFailure,
    TrialResult,
    aggregate_rows,
    evasion_trial,
    feature_poison_trial,
    generate_task,
    label_poison_trial,
    marginal_trial,
    run_experiment,
    worker_count,
)
from robustcp.poisoning import replay_label_witness
from robustcp.smoothing import GaussianNoise, SparseFlipNoise, sample_gaussian, substream
from robustcp.tasks import make_binary_task, make_gaussian_mixture, oracle_for

TINY_MARGINAL = ExperimentConfig(
    kind="marginal",
    task=TaskSpec(n_cal=30, n_test=30),
    alphas=(0.1, 0.3),
    n_trials=4,
    seed=12,
)


def test_generate_task_shapes_and_determinism():
    spec = TaskSpec(n_cal=15, n_test=7)
    task, (x_cal, y_cal), (x_test, y_test) = generate_task(spec, seed=3)
    assert x_cal.shape == (15, spec.dim) and y_cal.shape == (15,)
    assert x_test.shape == (7, spec.dim) and y_test.shape == (7,)
    _, (x2, y2), _ = generate_task(spec, seed=3)
    np.testing.assert_array_equal(x_cal, x2)
    np.testing.assert_array_equal(y_cal, y2)
    _, (x3, _), _ = generate_task(spec, seed=4)
    assert not np.array_equal(x_cal, x3)


def test_generate_binary_task_values():
    spec = TaskSpec(kind="binary-linear", dim=16, n_cal=10, n_test=5)
    _, (x_cal, _), _ = generate_task(spec, seed=0)
    assert set(np.unique(x_cal)) <= {0, 1}


def test_evade_l2_stays_in_ball_and_hurts():
    task = make_gaussian_mixture(n_classes=3, dim=2, separation=2.0, seed=1)
    oracle = oracle_for(task)
    scheme = GaussianNoise(0.25)
    rng = substream(1, "att")
    x, y = task.sample(5, rng)

    def smooth_score(point, label, stream):
        noisy = point + 0.25 * stream.standard_normal((512, point.size))
        return float(np.mean(oracle(noisy, stream)[:, label]))

    for i in range(5):
        adv = evade_l2(oracle, x[i], int(y[i]), 0.5, scheme, substream(2, "a", i))
        assert np.linalg.norm(adv - x[i]) <= 0.5 * (1 + 1e-9)
        clean_val = smooth_score(x[i], int(y[i]), substream(3, "v", i))
        adv_val = smooth_score(adv, int(y[i]), substream(3, "v", i))
        assert adv_val <= clean_val + 0.05


def test_evade_binary_respects_flip_budgets():
    task = make_binary_task(n_classes=3, dim=16, strength=0.2, seed=1)
    oracle = oracle_for(task)
    scheme = SparseFlipNoise(0.1, 0.1)
    rng = substream(4, "att-bin")
    x, y = task.sample(5, rng)
    for i in range(5):
        adv = evade_binary(oracle, x[i], int(y[i]), 2, 2, scheme, substream(5, "b", i))
        added = int(np.sum((adv == 1) & (x[i] == 0)))
        removed = int(np.sum((adv == 0) & (x[i] == 1)))
        assert added <= 2 and removed <= 2
        assert set(np.unique(adv)) <= {0, 1}


def test_oracles_score_every_class_in_one_call():
    """TPS rows are the class probabilities; APS rows match the score's
    definition per class, with one tie-break draw per point."""
    task = make_gaussian_mixture(n_classes=4, dim=3, seed=2)
    points, _ = task.sample(30, substream(1, "oracle-points"))
    probs = task.class_probabilities(points)
    np.testing.assert_array_equal(oracle_for(task, "tps")(points, None), probs)
    got = oracle_for(task, "aps")(points, substream(2, "tie-break"))
    u = substream(2, "tie-break").random(30)
    # APS: one minus the mass ranked strictly above the class, less u times its own.
    want = [
        [1.0 - p[p > p[c]].sum() - u_i * p[c] for c in range(4)]
        for p, u_i in zip(probs, u)
    ]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        oracle_for(task, "raps")


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n_classes", range(2, 11))
def test_softmax_rows_is_bit_exact_against_scipy(n_classes):
    """The column-wise softmax has scipy's bits at every supported class
    count, including numpy's pairwise row-sum order from 8 classes on."""
    rng = substream(7, "softmax-bits", n_classes)
    for n_rows in (1, 7, 4000, 16640):
        for scale in (0.1, 1.0, 30.0, 300.0):
            logits = scale * rng.standard_normal((n_rows, n_classes))
            logits[-1] = logits[-1, 0]  # every class tied for the max
            if n_rows > 2:
                logits[1, :2] = logits[1].max() + 1.0  # two classes tied
                # The other classes' exponentials underflow to 0.
                logits[2] = -800.0 - np.arange(n_classes)
                logits[2, 0] = 0.0
            _assert_same_bits(tasks._softmax_rows(logits), softmax(logits, axis=1))


@pytest.mark.parametrize(
    "task",
    [
        make_gaussian_mixture(n_classes=3, dim=4, seed=1),
        make_gaussian_mixture(n_classes=10, dim=16, separation=4.0, noise=0.5, seed=2),
        make_binary_task(n_classes=3, dim=64, seed=3),
        make_binary_task(n_classes=9, dim=64, strength=0.1, seed=4),
    ],
    ids=["gaussian-3", "gaussian-10", "binary-3", "binary-9"],
)
def test_class_probabilities_keep_the_scipy_softmax_bits(task, monkeypatch):
    points, _ = task.sample(3000, substream(8, "posterior-bits", task.n_classes))
    got = task.class_probabilities(points)
    monkeypatch.setattr(tasks, "_softmax_rows", lambda logits: softmax(logits, axis=1))
    _assert_same_bits(got, task.class_probabilities(points))


def test_sample_gaussian_keeps_the_broadcast_sum_bits():
    """In-place noise gives the bits of ``x + sigma * noise``, for one input and a stack."""
    rng = substream(9, "gaussian-inputs")
    for x in (rng.standard_normal(4), rng.standard_normal((3, 4))):
        got = sample_gaussian(x, 0.37, 500, substream(9, "gaussian-noise"))
        noise = 0.37 * substream(9, "gaussian-noise").standard_normal((500, 4))
        _assert_same_bits(got, (x[..., None, :] + noise).reshape(-1, 4))


@pytest.mark.parametrize(
    "scheme, x",
    [
        (GaussianNoise(0.25), np.array([[0.3, -0.2], [1.0, 0.5], [0.3, -0.2]])),
        (SparseFlipNoise(0.05, 0.4), np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0]])),
    ],
)
def test_objective_scores_identical_candidates_identically(scheme, x):
    """One objective call applies one noise block to every candidate."""
    dim = x.shape[1]
    task = (
        make_gaussian_mixture(n_classes=3, dim=dim, seed=1)
        if isinstance(scheme, GaussianNoise)
        else make_binary_task(n_classes=3, dim=dim, seed=1)
    )
    objective = _smooth_objective(oracle_for(task), 1, scheme, 64, substream(9, "crn"))
    values = objective(x)
    assert values.shape == (3,)
    assert values[0] == values[2]
    assert values[0] != values[1]


def _count_bounded_entries(monkeypatch) -> Counter:
    """Entries bounded per ``(model, direction, kind)``, counted by patching
    ``bound_batch`` wherever the library looks it up."""
    import robustcp.attacks as attacks
    import robustcp.correction as correction
    import robustcp.evasion as evasion
    import robustcp.experiments as experiments

    entries = Counter()

    def counted(batch, model, scheme, direction, kind):
        entries[(model, direction, kind)] += np.size(batch.mean)
        return bound_batch(batch, model, scheme, direction, kind)

    for module in (evasion, attacks, correction, experiments):
        monkeypatch.setattr(module, "bound_batch", counted)
    return entries


def test_evasion_trial_bounds_each_calibration_point_once_per_route(monkeypatch):
    """20 calibration points and one radius: 20 lower bounds for the mean
    route (also the calibration's own) and 20 for the cdf route.  The
    only other bounds are the upper bounds of the 4 test points' 3 classes
    for each route."""
    entries = _count_bounded_entries(monkeypatch)
    config = ExperimentConfig(
        kind="evasion", task=TaskSpec(n_cal=20, n_test=4), sigma=0.25, radii=(0.125,),
        n_samples=100, attack_samples=16, n_trials=1, seed=5,
    )
    evasion_trial(config, 0)
    lower = Counter()
    for (model, direction, kind), n in entries.items():
        if direction == "lower":
            lower[kind] += n
    assert lower == {"cdf": 20, "mean": 20}
    assert sum(entries.values()) == 40 + 2 * 4 * 3


def test_poison_labels_attack_is_replayable():
    rng = substream(6, "poison")
    matrix = rng.uniform(0, 1, (20, 3))
    labels = rng.integers(0, 3, 20)
    poisoned, witness = poison_labels_attack(matrix, labels, 3, 0.2)
    assert int(np.sum(poisoned != labels)) <= 3
    # The witness reproduces the same poisoned quantile.
    from robustcp.scores import conformal_quantile

    observed = matrix[np.arange(20), poisoned]
    assert replay_label_witness(matrix, labels, witness, 0.2) == conformal_quantile(
        observed, 0.2
    )


def test_poison_budget_clamped_with_warning():
    rng = substream(7, "clamp")
    matrix = rng.uniform(0, 1, (5, 3))
    labels = rng.integers(0, 3, 5)
    with pytest.warns(UserWarning, match="clamp"):
        poisoned, _ = poison_labels_attack(matrix, labels, 99, 0.2)
    assert poisoned.shape == labels.shape


def test_poison_features_attack_preserves_binary_dtype():
    task = make_binary_task(n_classes=3, dim=12, strength=0.2, seed=3)
    oracle = oracle_for(task)
    rng = substream(8, "pf")
    x, y = task.sample(10, rng)
    config = EvasionConfig(
        scheme=SparseFlipNoise(0.1, 0.1),
        model=BinaryBall(1, 1),
        bound_kind="mean",
        n_samples=200,
    )
    calibration = calibrate_smooth(oracle, x, y, 0.2, config, seed=9)
    poisoned, touched = poison_features_attack(
        oracle, x, y, calibration, 2, 0.2, config, seed=10, n_samples=64
    )
    assert poisoned.dtype == x.dtype
    assert len(touched) <= 2
    untouched = np.setdiff1d(np.arange(10), np.array(touched, dtype=int))
    np.testing.assert_array_equal(poisoned[untouched], x[untouched])


def test_marginal_trial_structure_and_determinism():
    r1 = marginal_trial(TINY_MARGINAL, 2)
    r2 = marginal_trial(TINY_MARGINAL, 2)
    assert r1.record() == r2.record()
    assert set(r1.record()) == {"trial", "seed", "rows", "thresholds"}
    alphas = {row["alpha"] for row in r1.rows}
    assert alphas == {0.1, 0.3}
    for row in r1.rows:
        assert row["method"] == "vanilla"
        assert 0.0 <= row["coverage"] <= 1.0


def test_evasion_trial_rows():
    config = ExperimentConfig(
        kind="evasion",
        task=TaskSpec(n_cal=20, n_test=8),
        sigma=0.25,
        radii=(0.125,),
        n_samples=200,
        attack_samples=32,
        n_trials=1,
        seed=5,
        bound_kind="cdf",
    )
    result = evasion_trial(config, 0)
    methods = {(row["radius"], row["method"]) for row in result.rows}
    assert (0.0, "vanilla") in methods
    assert (0.125, "vanilla") in methods
    assert (0.125, "mean-bound") in methods
    assert (0.125, "cdf-bound") in methods
    for row in result.rows:
        if row["method"].endswith("bound") and row["radius"] > 0:
            assert 0.0 <= row["beta"] <= 1.0
    # The certified routes cannot produce smaller sets than plain thresholding
    # of the same upper bounds at matched radius; check the recorded sizes
    # are at least the attacked vanilla sizes.
    by_method = {row["method"]: row for row in result.rows if row["radius"] == 0.125}
    assert by_method["mean-bound"]["size"] >= by_method["vanilla"]["size"]


def test_label_poison_trial_thresholds():
    config = ExperimentConfig(
        kind="label-poison",
        task=TaskSpec(n_cal=30, n_test=20),
        budgets=(0, 2),
        n_trials=1,
        seed=6,
    )
    result = label_poison_trial(config, 0)
    assert "vanilla-k0" in result.thresholds and "robust-k2" in result.thresholds
    # More poisoning can only lower the conservative threshold.
    assert result.thresholds["robust-k2"] <= result.thresholds["robust-k0"]
    # Budget 0 is the clean quantile for both pipelines.
    assert result.thresholds["robust-k0"] == result.thresholds["vanilla-k0"]


def test_feature_poison_trial_bounds_only_the_reversed_ball(monkeypatch):
    """The defender calibrates (once clean and once per budget k > 0) over
    the reversed ball, and the rank search reads the lower bounds: 20
    points x 3 calibrations.  The only other bounds are the
    attacker's mean-route score ceilings over the forward ball, 20 points
    for each budget k > 0."""
    entries = _count_bounded_entries(monkeypatch)
    config = ExperimentConfig(
        kind="feature-poison", task=TaskSpec(kind="binary-linear", dim=16, n_cal=20, n_test=6),
        p0=0.1, p1=0.2, flips=((1, 2),), budgets=(0, 1, 2), n_samples=400,
        attack_samples=32, n_trials=1, seed=8,
    )
    thresholds = feature_poison_trial(config, 0).thresholds
    assert entries == {
        (BinaryBall(additions=2, deletions=1), "lower", "cdf"): 60,
        (BinaryBall(additions=1, deletions=2), "upper", "mean"): 40,
    }
    assert thresholds["robust-k0"] == thresholds["vanilla-k0"]
    for k in (1, 2):
        assert thresholds[f"robust-k{k}"] <= thresholds[f"vanilla-k{k}"]


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("ROBUSTCP_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("ROBUSTCP_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("ROBUSTCP_WORKERS", "zero")
    with pytest.raises(ConfigurationError):
        worker_count()
    monkeypatch.setenv("ROBUSTCP_WORKERS", "0")
    with pytest.raises(ConfigurationError):
        worker_count()


def test_run_experiment_writes_stable_files(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTCP_WORKERS", "1")
    summary = run_experiment(TINY_MARGINAL, tmp_path / "run1")
    assert len(summary.results) == 4
    assert summary.failures == []
    lines = (tmp_path / "run1" / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert all("runtime" not in json.loads(line) for line in lines)
    agg = (tmp_path / "run1" / "aggregate.csv").read_text().splitlines()
    assert agg[0].startswith("x_name,x_value,method,")
    for name in (
        "coverage_vs_radius",
        "size_vs_radius",
        "size_vs_alpha",
        "coverage_vs_budget",
        "size_vs_budget",
    ):
        assert (tmp_path / "run1" / "plotdata" / f"{name}.csv").exists()

    run_experiment(TINY_MARGINAL, tmp_path / "run2")
    for rel in ("trials.jsonl", "aggregate.csv", "plotdata/size_vs_alpha.csv"):
        assert (tmp_path / "run1" / rel).read_bytes() == (
            tmp_path / "run2" / rel
        ).read_bytes()


def test_run_experiment_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTCP_WORKERS", "1")
    run_experiment(TINY_MARGINAL, tmp_path / "serial")
    monkeypatch.setenv("ROBUSTCP_WORKERS", "2")
    run_experiment(TINY_MARGINAL, tmp_path / "parallel")
    assert (tmp_path / "serial" / "trials.jsonl").read_bytes() == (
        tmp_path / "parallel" / "trials.jsonl"
    ).read_bytes()
    assert (tmp_path / "serial" / "aggregate.csv").read_bytes() == (
        tmp_path / "parallel" / "aggregate.csv"
    ).read_bytes()


def test_run_experiment_records_partial_failures(tmp_path, monkeypatch):
    import robustcp.experiments as exp

    monkeypatch.setenv("ROBUSTCP_WORKERS", "1")
    real = exp._TRIAL_FUNCTIONS["marginal"]

    def flaky(config, index):
        if index == 1:
            raise RuntimeError("synthetic trial failure")
        return real(config, index)

    monkeypatch.setitem(exp._TRIAL_FUNCTIONS, "marginal", flaky)
    summary = run_experiment(TINY_MARGINAL, tmp_path / "flaky")
    assert len(summary.results) == 3
    assert len(summary.failures) == 1
    assert isinstance(summary.failures[0], TrialFailure)
    assert "synthetic trial failure" in summary.failures[0].error
    lines = (tmp_path / "flaky" / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert "error" in json.loads(lines[1])
    # Aggregation only sees the surviving trials.
    assert aggregate_rows(summary.results) == aggregate_rows(
        [r for r in summary.results if isinstance(r, TrialResult)]
    )


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(kind="nope", task=TaskSpec())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(kind="marginal", task=TaskSpec(), alpha=1.5)
    with pytest.raises(ConfigurationError):
        TaskSpec(n_cal=0)


def test_config_refuses_what_every_trial_would_fail_on():
    """Values each trial would refuse, or misuse, are configuration errors
    before any trial runs; the task makers' ranges stay written once."""
    for fields in (
        {"kind": "feature-poison", "bound_kind": "bogus"},
        {"kind": "marginal", "alphas": (0.1, 1.5)},
        {"kind": "label-poison", "budgets": (-1, 0)},
        {"kind": "corrected", "eta": 0.01, "budgets": (0, -2)},
        {"kind": "evasion", "attack_samples": 0},
    ):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**fields)
    for fields in (
        {"n_classes": 1},
        {"noise": 0.0},
        {"noise": float("nan")},
        {"kind": "binary-linear", "dim": 100},
        {"kind": "binary-linear", "strength": 0.7},
    ):
        with pytest.raises(ConfigurationError):
            TaskSpec(**fields)
