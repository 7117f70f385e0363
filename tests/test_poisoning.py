"""Conservative thresholds against calibration-set poisoning.

The rank-search solvers claim exact worst cases; brute force over every
budget-sized subset (and every label reassignment) is the oracle, for
the defender's minimum and for the attacker's maximum alike.  The
oracles here take the plain conformal quantile of every altered
calibration set, so they share no code with the rank search.
"""

import functools
import itertools

import numpy as np
import pytest

from robustcp.bounds import BinaryBall, L2Ball, bound_for_clean
from robustcp.correction import corrected_bound, hoeffding_radius
from robustcp.poisoning import (
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


def _subsets(n, budget):
    """Every subset of at most ``budget`` of ``n`` indices, as an index list."""
    for size in range(min(budget, n) + 1):
        for subset in itertools.combinations(range(n), size):
            yield list(subset)


def brute_force_feature_quantile(extreme, scores, moved, budget, alpha):
    """``extreme`` (min or max) of the quantile over every subset of up to
    ``budget`` points whose scores move to ``moved``."""

    def quantile(subset):
        modified = scores.copy()
        modified[subset] = moved[subset]
        return conformal_quantile(modified, alpha)

    return extreme(quantile(subset) for subset in _subsets(scores.size, budget))


def brute_force_label_quantile(extreme, matrix, labels, budget, alpha):
    """``extreme`` (min or max) of the quantile over every reassignment of up
    to ``budget`` labels."""
    n, n_classes = matrix.shape

    def quantiles(subset):
        for assignment in itertools.product(range(n_classes), repeat=len(subset)):
            flipped = labels.copy()
            flipped[subset] = assignment
            yield conformal_quantile(matrix[np.arange(n), flipped], alpha)

    return extreme(q for subset in _subsets(n, budget) for q in quantiles(subset))


# The defender's exact thresholds and the attacker's worst-case quantiles.
brute_force_feature_threshold = functools.partial(brute_force_feature_quantile, min)
brute_force_label_threshold = functools.partial(brute_force_label_quantile, min)
brute_force_max_feature_quantile = functools.partial(brute_force_feature_quantile, max)
brute_force_max_label_quantile = functools.partial(brute_force_label_quantile, max)


def random_upper_instance(rng):
    """Scores with ceilings, rounded to one or two decimals so that ties occur."""
    n = int(rng.integers(3, 9))
    decimals = int(rng.integers(1, 3))
    scores = np.round(rng.uniform(0, 1, n), decimals)
    upper = np.round(np.clip(scores + rng.uniform(0, 0.5, n), None, 1), decimals)
    budget = int(rng.integers(0, n + 2))
    alpha = float(rng.uniform(0.05, 0.95))
    return scores, np.maximum(upper, scores), budget, alpha


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


def test_worst_case_feature_quantile_matches_brute_force():
    rng = substream(29, "feature-max-oracle")
    for _ in range(300):
        scores, upper, budget, alpha = random_upper_instance(rng)
        got = worst_case_feature_quantile(scores, upper, budget, alpha)
        assert got.threshold == brute_force_max_feature_quantile(scores, upper, budget, alpha)
        assert replay_feature_witness(scores, got.witness, alpha) == got.threshold
        assert len(got.witness.indices) <= budget
        assert got.witness.values == tuple(upper[list(got.witness.indices)])


def test_worst_case_label_quantile_matches_brute_force():
    rng = substream(30, "label-max-oracle")
    for _ in range(300):
        matrix, labels, budget, alpha = random_label_instance(rng)
        matrix = np.round(matrix, int(rng.integers(1, 3)))
        got = worst_case_label_quantile(matrix, labels, budget, alpha)
        assert got.threshold == brute_force_max_label_quantile(matrix, labels, budget, alpha)
        assert replay_label_witness(matrix, labels, got.witness, alpha) == got.threshold
        assert len(got.witness.indices) <= budget


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


def _sorted_witness(scores, moved, threshold, needed, up):
    """The witness order by a Python sort: the points that can move past
    the threshold, highest (down) or lowest (up) target first, ties by
    index, the first ``needed`` of them."""
    sign = -1.0 if up else 1.0
    scores, lower, v = sign * scores, sign * moved, sign * threshold
    eligible = [i for i in range(scores.size) if lower[i] <= v < scores[i]]
    return tuple(sorted(eligible, key=lambda i: (-lower[i], i))[:needed]), len(eligible)


def test_witness_tie_order_matches_a_python_sort():
    # Equal targets, -0.0 beside 0.0, and -inf: the chosen points are the
    # highest targets first, ties broken by the lower index.
    scores = np.full(8, 0.9)
    lower = np.array([0.0, -0.0, 0.3, -np.inf, 0.3, -0.0, 0.0, 0.3])
    got = feature_poison_threshold(scores, lower, 6, 0.7)
    assert got.threshold == 0.3
    assert got.witness.indices == (2, 4, 7, 0, 1, 5)
    got = feature_poison_threshold(scores, lower, 8, 0.9)
    assert got.witness.indices == (2, 4, 7, 0, 1, 5, 6, 3)

    rng = substream(29, "witness-ties")
    pool = np.array([-np.inf, -0.0, 0.0, 0.25, 0.5])
    fewer_than_eligible = 0
    for _ in range(300):
        n = int(rng.integers(4, 13))
        budget = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(0.05, 0.95))
        up = bool(rng.integers(0, 2))
        if up:
            scores = rng.choice([-0.0, 0.0, 0.5], n)
            moved = np.maximum(rng.choice(-pool, n), scores)
            got = worst_case_feature_quantile(scores, moved, budget, alpha)
        else:
            scores = rng.choice([0.5, 0.75, 1.0], n)
            moved = np.minimum(rng.choice(pool, n), scores)
            got = feature_poison_threshold(scores, moved, budget, alpha)
        if got.rank == 0:
            continue
        needed = len(got.witness.indices)
        want, n_eligible = _sorted_witness(scores, moved, got.threshold, needed, up)
        assert got.witness.indices == want
        fewer_than_eligible += 0 < needed < n_eligible
    assert fewer_than_eligible >= 50


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


def test_every_search_refuses_a_negative_budget():
    """A negative budget would loosen the certificate, so each public
    search refuses it, also at the rank-0 sentinel (alpha = 0.04 of 20)."""
    rng = substream(29, "negative-budget")
    matrix = rng.dirichlet(np.ones(3), 20)
    labels = rng.integers(0, 3, 20)
    scores = matrix[np.arange(20), labels]
    dists = summarize_samples(rng.uniform(0, 1, (20, 50)), BinGrid.uniform(11))
    searches = {
        "feature": lambda k, a: feature_poison_threshold(scores, scores / 2, k, a),
        "worst feature": lambda k, a: worst_case_feature_quantile(scores, (1 + scores) / 2, k, a),
        "label": lambda k, a: label_poison_threshold(matrix, labels, k, a),
        "worst label": lambda k, a: worst_case_label_quantile(matrix, labels, k, a),
        "corrected": lambda k, a: corrected_feature_poison_threshold(
            dists, L2Ball(0.1), GaussianNoise(0.25), k, a, 0.01
        ),
    }
    for search in searches.values():
        for alpha in (0.1, 0.04):
            search(0, alpha)
            with pytest.raises(ValueError, match="budget"):
                search(-1, alpha)


def test_corrected_feature_threshold_dominated_and_budgeted():
    rng = substream(28, "corrected-poison")
    grid = BinGrid.uniform(51)
    dists = summarize_samples(
        np.array([np.clip(rng.beta(4, 2, 300), 0, 1) for _ in range(12)]), grid
    )
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
            assert ledger.entries == [
                ("calibration cdf bands", eta / (2 * 12), 12),
                ("clean-score mc slack", eta / 2, 1),
            ]
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
