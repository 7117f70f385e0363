"""Conservative thresholds against calibration-set poisoning.

The rank-search solvers claim exact worst cases; brute force over every
budget-sized subset (and every label reassignment) is the oracle.
"""

import numpy as np
import pytest

from robustcp.bounds import BinaryBall, L2Ball, bound_for_clean
from robustcp.correction import corrected_bound, hoeffding_radius
from robustcp.poisoning import (
    brute_force_feature_threshold,
    brute_force_label_threshold,
    corrected_feature_poison_threshold,
    feature_poison_threshold,
    label_poison_threshold,
    replay_feature_witness,
    replay_label_witness,
    worst_case_feature_quantile,
    worst_case_label_quantile,
)
from robustcp.scores import ALL_CLASSES_THRESHOLD, conformal_quantile
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
    ScoreBatch,
    SparseFlipNoise,
    substream,
    summarize_samples,
)


def random_feature_instance(rng):
    n = int(rng.integers(3, 9))
    scores = rng.uniform(0, 1, n)
    lower = scores - rng.uniform(0, 0.5, n)
    budget = int(rng.integers(0, 4))
    alpha = float(rng.uniform(0.05, 0.6))
    return scores, np.clip(lower, 0, None), budget, alpha


def random_label_instance(rng):
    n = int(rng.integers(3, 9))
    n_classes = int(rng.integers(2, 5))
    matrix = rng.uniform(0, 1, (n, n_classes))
    labels = rng.integers(0, n_classes, n)
    budget = int(rng.integers(0, 4))
    alpha = float(rng.uniform(0.05, 0.6))
    return matrix, labels, budget, alpha


def test_feature_threshold_matches_brute_force():
    rng = substream(21, "feature-oracle")
    for _ in range(300):
        scores, lower, budget, alpha = random_feature_instance(rng)
        got = feature_poison_threshold(scores, lower, budget, alpha)
        want = brute_force_feature_threshold(scores, lower, budget, alpha)
        assert got.threshold == want


def test_label_threshold_matches_brute_force():
    rng = substream(22, "label-oracle")
    for _ in range(300):
        matrix, labels, budget, alpha = random_label_instance(rng)
        got = label_poison_threshold(matrix, labels, budget, alpha)
        want = brute_force_label_threshold(matrix, labels, budget, alpha)
        assert got.threshold == want


def test_zero_budget_is_plain_quantile():
    rng = substream(23, "zero-budget")
    scores = rng.uniform(0, 1, 12)
    got = feature_poison_threshold(scores, scores - 0.1, 0, 0.25)
    assert got.threshold == conformal_quantile(scores, 0.25)
    assert got.witness.indices == ()

    matrix = rng.uniform(0, 1, (12, 3))
    labels = rng.integers(0, 3, 12)
    observed = matrix[np.arange(12), labels]
    got = label_poison_threshold(matrix, labels, 0, 0.25)
    assert got.threshold == conformal_quantile(observed, 0.25)


def test_feature_witness_replays_exactly():
    rng = substream(24, "feature-replay")
    for _ in range(100):
        scores, lower, budget, alpha = random_feature_instance(rng)
        got = feature_poison_threshold(scores, lower, budget, alpha)
        assert replay_feature_witness(scores, got.witness, alpha) == got.threshold
        assert len(got.witness.indices) <= budget


def test_label_witness_replays_exactly():
    rng = substream(25, "label-replay")
    for _ in range(100):
        matrix, labels, budget, alpha = random_label_instance(rng)
        got = label_poison_threshold(matrix, labels, budget, alpha)
        assert replay_label_witness(matrix, labels, got.witness, alpha) == got.threshold
        assert len(got.witness.indices) <= budget


def test_threshold_monotone_in_budget():
    rng = substream(26, "budget-monotone")
    scores = rng.uniform(0, 1, 10)
    lower = np.clip(scores - 0.3, 0, None)
    thresholds = [
        feature_poison_threshold(scores, lower, k, 0.2).threshold for k in range(5)
    ]
    assert all(b <= a for a, b in zip(thresholds, thresholds[1:]))


def test_max_direction_dominates_min():
    rng = substream(27, "directions")
    scores = rng.uniform(0, 1, 10)
    lower = np.clip(scores - 0.3, 0, None)
    upper = np.clip(scores + 0.3, None, 1)
    for k in range(4):
        down = feature_poison_threshold(scores, lower, k, 0.2).threshold
        up = worst_case_feature_quantile(scores, upper, k, 0.2).threshold
        assert down <= up
    matrix = rng.uniform(0, 1, (10, 3))
    labels = rng.integers(0, 3, 10)
    for k in range(4):
        down = label_poison_threshold(matrix, labels, k, 0.2).threshold
        up = worst_case_label_quantile(matrix, labels, k, 0.2).threshold
        assert down <= up


def test_low_rank_hits_sentinel():
    scores = np.linspace(0.1, 0.9, 5)
    got = feature_poison_threshold(scores, scores, 0, 0.1)
    # floor(0.1 * 6) = 0: no finite quantile is safe.
    assert got.threshold == ALL_CLASSES_THRESHOLD
    assert got.rank == 0


def test_budget_larger_than_set_is_total_control():
    scores = np.array([0.5, 0.6, 0.7])
    lower = np.array([0.1, 0.2, 0.3])
    full = feature_poison_threshold(scores, lower, 3, 0.5)
    over = feature_poison_threshold(scores, lower, 8, 0.5)
    assert over.threshold == full.threshold == conformal_quantile(lower, 0.5)


def test_corrected_feature_threshold_dominated_and_budgeted():
    rng = substream(28, "corrected-poison")
    grid = BinGrid.uniform(51)
    dists = ScoreBatch.stack([
        summarize_samples(np.clip(rng.beta(4, 2, 300), 0, 1), grid)
        for _ in range(12)
    ])
    eta = 0.02
    # Threat model, and the ball around a received point that holds its
    # clean point (the flip budgets swap).
    for model, observed_ball, scheme in (
        (L2Ball(0.1), L2Ball(0.1), GaussianNoise(0.25)),
        (BinaryBall(1, 1), BinaryBall(1, 1), SparseFlipNoise(0.1, 0.1)),
        (BinaryBall(2, 1), BinaryBall(1, 2), SparseFlipNoise(0.1, 0.2)),
    ):
        for kind in ("mean", "cdf"):
            corrected, ledger = corrected_feature_poison_threshold(
                dists, model, scheme, 2, 0.25, eta, bound_kind=kind
            )
            ledger.assert_within()
            assert ledger.spent <= eta + 1e-12
            # The uncorrected competitor sees the same bounds without widening.
            means = np.array([d.mean for d in dists])
            lower = np.array(
                [bound_for_clean(d, observed_ball, scheme, "lower", kind) for d in dists]
            )
            plain = feature_poison_threshold(
                means, np.minimum(lower, means), 2, 0.25
            )
            assert corrected.threshold <= plain.threshold + 1e-12
            # DKW bands at eta / (2 n) over the observed ball, less the
            # Hoeffding radius at the calibration-set size n.
            n = len(dists)
            widened = np.array(
                [
                    corrected_bound(d, observed_ball, scheme, "lower", kind, eta / (2 * n))
                    for d in dists
                ]
            ) - hoeffding_radius(n, eta)
            want = feature_poison_threshold(means, np.minimum(widened, means), 2, 0.25 - eta)
            assert corrected.threshold == want.threshold
