"""Plain split-conformal machinery: scores, quantiles, sets, metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcp.scores import (
    ALL_CLASSES_THRESHOLD,
    aps_scores,
    conformal_quantile,
    coverage_distribution,
    evaluate_sets,
    inverse_quantile,
)

DECILES = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])


def test_quantile_frozen_examples():
    # k = floor(alpha * (n + 1)), 1-indexed smallest.
    assert conformal_quantile(DECILES, 0.1) == 0.1
    assert conformal_quantile(DECILES, 0.2) == 0.2
    assert conformal_quantile(DECILES, 0.35) == 0.3
    # k = 0 falls back to the all-classes sentinel.
    assert conformal_quantile(DECILES, 0.05) == ALL_CLASSES_THRESHOLD
    assert math.isinf(ALL_CLASSES_THRESHOLD) and ALL_CLASSES_THRESHOLD < 0


def test_quantile_float_snap():
    """alpha*(n+1) sitting a hair below an integer still counts that rank."""
    assert conformal_quantile(DECILES, 0.2 - 1e-12) == 0.2
    # Outside the snap window the lower rank wins.
    assert conformal_quantile(DECILES, 0.2 - 1e-6) == 0.1


def test_quantile_ignores_order():
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(DECILES))
    assert conformal_quantile(DECILES[perm], 0.3) == conformal_quantile(DECILES, 0.3)


def test_inverse_quantile_frozen_examples():
    assert inverse_quantile(0.25, DECILES) == 0.3
    assert inverse_quantile(0.1, DECILES) == 0.1
    # Below every score -> rank 1; above every score -> 1.0.
    assert inverse_quantile(-1.0, DECILES) == 0.1
    assert inverse_quantile(1.5, DECILES) == 1.0


@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=40,
        unique=True,
    ),
    alpha=st.floats(min_value=0.01, max_value=0.99),
)
def test_quantile_rank_identity(scores, alpha):
    s = np.array(scores)
    n = len(s)
    k = int(alpha * (n + 1) + 1e-9)
    q = conformal_quantile(s, alpha)
    if k == 0:
        assert q == ALL_CLASSES_THRESHOLD
    else:
        assert q == np.sort(s)[k - 1]
        # Distinct scores: exactly k-1 strictly below the quantile.
        assert int(np.sum(s < q)) == k - 1
        # Round trip through the empirical grid never exceeds alpha.
        assert inverse_quantile(q, s) == pytest.approx(k / (n + 1))
        assert inverse_quantile(q, s) <= alpha + 1e-9


@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    lo=st.floats(min_value=-0.5, max_value=1.5),
    hi=st.floats(min_value=-0.5, max_value=1.5),
)
def test_inverse_quantile_monotone(scores, lo, hi):
    s = np.array(scores)
    if lo > hi:
        lo, hi = hi, lo
    assert inverse_quantile(lo, s) <= inverse_quantile(hi, s)


def test_prediction_set_orientation():
    mask = np.array([[0.5, 0.2, 0.7]]) >= 0.4
    np.testing.assert_array_equal(mask, [[True, False, True]])
    # Boundary scores are kept (score >= threshold).
    np.testing.assert_array_equal(np.array([[0.4]]) >= 0.4, [[True]])
    report = evaluate_sets(mask, np.array([2]))
    assert report.empirical_coverage == 1.0
    assert report.average_set_size == 2.0


def test_prediction_set_sentinel_keeps_everything():
    mask = np.zeros((2, 3)) >= ALL_CLASSES_THRESHOLD
    assert mask.all()
    report = evaluate_sets(mask, np.array([0, 2]))
    assert report.empirical_coverage == 1.0
    assert report.set_size_histogram == {3: 2}


def test_evaluate_sets_frozen_example():
    masks = np.array(
        [
            [True, False, True],
            [False, True, False],
            [False, False, False],
        ]
    )
    report = evaluate_sets(masks, np.array([2, 1, 0]))
    assert report.n_points == 3
    assert report.empirical_coverage == pytest.approx(2 / 3)
    assert report.average_set_size == pytest.approx(1.0)
    # Only the second set is a correct singleton.
    assert report.singleton_hit_ratio == pytest.approx(1 / 3)
    assert report.set_size_histogram == {0: 1, 1: 1, 2: 1}


@settings(max_examples=50, deadline=None)
@given(
    scores=st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=1, max_size=12
    ),
    threshold=st.floats(0.0, 1.0),
    labels=st.lists(st.integers(0, 2), min_size=12, max_size=12),
)
def test_evaluate_sets_matches_per_point_counts(scores, threshold, labels):
    """The array metrics are the plain per-point counts divided by n, exactly."""
    matrix = np.array(scores)
    labels = np.array(labels[: len(scores)])
    report = evaluate_sets(matrix >= threshold, labels)
    members = [{c for c, s in enumerate(row) if s >= threshold} for row in scores]
    n = len(scores)
    assert report.empirical_coverage == sum(int(y) in m for m, y in zip(members, labels)) / n
    assert report.average_set_size == sum(len(m) for m in members) / n
    assert report.singleton_hit_ratio == sum(m == {int(y)} for m, y in zip(members, labels)) / n
    sizes = [len(m) for m in members]
    assert report.set_size_histogram == {k: sizes.count(k) for k in sorted(set(sizes))}
    assert list(report.set_size_histogram) == sorted(report.set_size_histogram)


def test_evaluate_sets_rejects_malformed_input():
    masks = np.array([[True, False], [False, True]])
    with pytest.raises(ValueError):
        evaluate_sets(masks, np.array([0]))
    with pytest.raises(ValueError):
        evaluate_sets(np.zeros((0, 2), dtype=bool), np.array([], dtype=int))
    with pytest.raises(ValueError):
        evaluate_sets(masks.astype(float), np.array([0, 1]))
    with pytest.raises(ValueError):
        evaluate_sets(masks, np.array([0, 2]))
    with pytest.raises(ValueError):
        evaluate_sets(masks, np.array([-1, 0]))


def test_coverage_distribution_beta_parameters():
    cb = coverage_distribution(100, 0.1)
    assert (cb.shape_a, cb.shape_b) == (91.0, 10.0)
    assert not cb.degenerate
    assert cb.shape_a / (cb.shape_a + cb.shape_b) == pytest.approx(91 / 101)


def test_coverage_distribution_degenerate_when_rank_zero():
    cb = coverage_distribution(5, 0.05)
    assert cb.degenerate
    assert cb.shape_b == 0.0


def test_aps_score_frozen_examples():
    probs = np.array([[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
    scores = aps_scores(probs, np.array([0.5, 0.0]))
    assert scores.shape == (2, 3)
    # Top class, half its own mass: 1 - 0.5 * 0.5.
    assert scores[0, 1] == pytest.approx(0.75)
    # Bottom class, u = 0: one minus the mass ranked above it.
    assert scores[1, 0] == pytest.approx(0.2)


@pytest.mark.parametrize(
    "probs, u",
    [
        ([0.2, 0.5, 0.3], [0.5]),  # not a matrix
        ([[1.0]], [0.5]),  # a single class
        ([[0.2, 0.5, 0.4]], [0.5]),  # row sums to 1.1
        ([[-0.1, 0.6, 0.5]], [0.5]),  # negative probability
        ([[np.nan, 0.5, 0.5]], [0.5]),
        ([[0.2, 0.5, 0.3]], [1.5]),
        ([[0.2, 0.5, 0.3]], [-0.1]),
        ([[0.2, 0.5, 0.3]], [np.nan]),
        ([[0.2, 0.5, 0.3]], [0.5, 0.5]),  # not one draw per row
    ],
)
def test_aps_scores_rejects_malformed_input(probs, u):
    with pytest.raises(ValueError):
        aps_scores(np.array(probs), np.array(u))


def test_aps_scores_do_not_depend_on_the_layout_of_probs():
    """C- and F-ordered probabilities give the same bits at 10 classes,
    where the sum over the classes ranked above goes pairwise."""
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.full(10, 0.3), size=500)
    u = rng.random(500)
    c_order = aps_scores(np.ascontiguousarray(probs), u)
    f_order = aps_scores(np.asfortranarray(probs), u)
    np.testing.assert_array_equal(c_order.view(np.int64), f_order.view(np.int64))


@given(
    u1=st.floats(min_value=0.0, max_value=1.0),
    u2=st.floats(min_value=0.0, max_value=1.0),
    label=st.integers(min_value=0, max_value=2),
)
def test_aps_score_decreasing_in_u(u1, u2, label):
    probs = np.array([[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
    if u1 > u2:
        u1, u2 = u2, u1
    a, b = aps_scores(probs, np.array([u1, u2]))[:, label]
    assert b <= a
    assert -1e-12 <= b and a <= 1.0 + 1e-12
