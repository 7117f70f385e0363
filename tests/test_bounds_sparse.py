"""Likelihood-ratio region tables and transfer bounds for bit-flip noise.

Two independent oracles anchor this file: exhaustive enumeration of all
2^(additions + deletions) flip outcomes for the region masses, and a
generic scipy ``linprog`` solve for the transfer problem the greedy
routine claims to optimize exactly.
"""

from itertools import product

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import linprog

from robustcp import bounds
from robustcp.bounds import (
    BinaryBall,
    _region_table,
    bound_for_clean,
    build_region_table,
    sparse_transfer,
)
from robustcp.errors import ConfigurationError
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
    ScoreBatch,
    SparseFlipNoise,
    substream,
    summarize_samples,
)


def enumerate_region_masses(additions, deletions, p0, p1):
    """Region masses by brute force over every flip pattern.

    The clean and adversarial points differ on ``additions`` coordinates
    that are 0 at the clean point and ``deletions`` that are 1 there.
    A noise outcome z on those coordinates has a fixed likelihood ratio
    determined only by how many coordinates agree with the adversarial
    point, which is the region index.
    """
    total = additions + deletions
    clean = np.zeros(total + 1)
    adv = np.zeros(total + 1)
    for z in product((0, 1), repeat=total):
        pr_clean = 1.0
        pr_adv = 1.0
        for j, bit in enumerate(z[:additions]):
            # Clean value 0: noise turns it on with probability p0.
            # Adversarial value 1: noise turns it off with probability p1.
            pr_clean *= p0 if bit else 1.0 - p0
            pr_adv *= 1.0 - p1 if bit else p1
        for bit in z[additions:]:
            pr_clean *= 1.0 - p1 if bit else p1
            pr_adv *= p0 if bit else 1.0 - p0
        agree_adv = sum(z[:additions]) + sum(1 - b for b in z[additions:])
        clean[agree_adv] += pr_clean
        adv[agree_adv] += pr_adv
    return clean, adv


def linprog_transfer(p, table, maximize):
    """Generic LP for extremizing adversarial mass at fixed clean mass."""
    c = table.adv_mass if not maximize else -table.adv_mass
    res = linprog(
        c,
        A_eq=table.clean_mass[None, :],
        b_eq=[p],
        bounds=[(0.0, 1.0)] * len(table.clean_mass),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun if maximize else res.fun


def test_region_table_frozen_example():
    table = build_region_table(1, 2, 0.2, 0.2)
    np.testing.assert_allclose(table.clean_mass, [0.512, 0.384, 0.096, 0.008])
    np.testing.assert_allclose(table.adv_mass, [0.008, 0.096, 0.384, 0.512])
    # Ratio of clean to adversarial mass, one entry per agreement count.
    np.testing.assert_allclose(table.ratio, [64.0, 4.0, 0.25, 0.015625])


def test_region_table_masses_sum_to_one():
    table = build_region_table(3, 2, 0.05, 0.4)
    assert table.clean_mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert table.adv_mass.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p0,p1", [(0.2, 0.2), (0.01, 0.6)])
def test_region_table_matches_enumeration(p0, p1):
    for additions in range(0, 7):
        for deletions in range(0, 7 - additions):
            table = build_region_table(additions, deletions, p0, p1)
            clean, adv = enumerate_region_masses(additions, deletions, p0, p1)
            np.testing.assert_allclose(table.clean_mass, clean, atol=1e-12)
            np.testing.assert_allclose(table.adv_mass, adv, atol=1e-12)


@pytest.mark.parametrize(
    "additions,deletions,p0,p1",
    [(1, 2, 0.2, 0.2), (3, 2, 0.05, 0.4), (4, 1, 0.3, 0.01), (2, 3, 0.0, 0.3),
     (3, 1, 0.2, 0.0), (2, 3, 0.0, 0.0)],
)
def test_region_table_is_the_binomial_convolution_bit_for_bit(additions, deletions, p0, p1):
    """The masses are exactly ``scipy.stats.binom.pmf`` terms convolved, zero regions dropped."""
    def pmf(n, p):
        return stats.binom.pmf(np.arange(n + 1), n, p)

    clean = np.convolve(pmf(deletions, p1), pmf(additions, p0))
    adv = np.convolve(pmf(deletions, 1.0 - p0), pmf(additions, 1.0 - p1))
    keep = (clean > 0.0) | (adv > 0.0)
    table = build_region_table(additions, deletions, p0, p1)
    assert table.clean_mass.tobytes() == clean[keep].tobytes()
    assert table.adv_mass.tobytes() == adv[keep].tobytes()
    if p0 == p1 == 0.0:  # only the two centres' own regions are reachable
        assert keep.sum() == 2 < keep.size


def test_empty_ball_is_identity():
    table = build_region_table(0, 0, 0.1, 0.1)
    np.testing.assert_array_equal(table.ratio, [1.0])
    for p in (0.0, 0.3, 0.77, 1.0):
        assert sparse_transfer(p, table, increase=True) == p
        assert sparse_transfer(p, table, increase=False) == p


def test_greedy_matches_linprog_on_random_instances():
    rng = substream(11, "lp-oracle")
    for _ in range(60):
        additions = int(rng.integers(0, 5))
        deletions = int(rng.integers(0, 5 - additions))
        p0, p1 = rng.uniform(0.01, 0.7, 2)
        table = build_region_table(additions, deletions, p0, p1)
        p = float(rng.uniform(0, 1))
        assert sparse_transfer(p, table, increase=True) == pytest.approx(
            linprog_transfer(p, table, maximize=True), abs=1e-9
        )
        assert sparse_transfer(p, table, increase=False) == pytest.approx(
            linprog_transfer(p, table, maximize=False), abs=1e-9
        )


def test_mean_bounds_bracket_and_endpoints():
    table = build_region_table(2, 1, 0.15, 0.3)
    for p in np.linspace(0, 1, 21):
        lo = sparse_transfer(p, table, increase=False)
        up = sparse_transfer(p, table, increase=True)
        # One ulp of slack: the region masses themselves sum to 1 only
        # up to floating-point addition error.
        assert 0.0 <= lo <= p + 1e-12
        assert p - 1e-12 <= up <= 1.0 + 1e-12
    assert sparse_transfer(1.0, table, increase=True) == pytest.approx(1.0, abs=1e-12)
    assert sparse_transfer(0.0, table, increase=False) == pytest.approx(0.0, abs=1e-12)


def test_mean_bounds_monotone_in_budget():
    rng = substream(12, "budget-monotone")
    for _ in range(50):
        p0, p1 = rng.uniform(0.01, 0.6, 2)
        p = float(rng.uniform(0, 1))
        vals = {
            (a, d): sparse_transfer(p, build_region_table(a, d, p0, p1), increase=True)
            for a in range(4)
            for d in range(4)
        }
        for a in range(3):
            for d in range(3):
                assert vals[(a + 1, d)] >= vals[(a, d)] - 1e-12
                assert vals[(a, d + 1)] >= vals[(a, d)] - 1e-12


@pytest.fixture(scope="module")
def binary_dist():
    rng = substream(4, "sparse-bounds")
    samples = np.clip(rng.beta(5, 2, 400), 0.0, 1.0)
    return summarize_samples(samples, BinGrid.uniform(51))


def _cdf_bound(dist, direction, additions, deletions):
    ball, scheme = BinaryBall(additions, deletions), SparseFlipNoise(0.1, 0.1)
    return bound_for_clean(dist, ball, scheme, direction, "cdf")


def test_cdf_bound_composes_per_edge_transfers(binary_dist):
    """The CDF route is one transfer per edge plus a partial summation."""
    table = build_region_table(2, 2, 0.1, 0.1)
    edges = binary_dist.grid.edges
    worst = np.array([sparse_transfer(float(v), table, increase=False) for v in binary_dist.cdf])
    expect = edges[-1] - np.sum(worst * (edges[2:] - edges[1:-1]))
    assert _cdf_bound(binary_dist, "upper", 2, 2) == pytest.approx(expect, abs=1e-12)
    best = np.array([sparse_transfer(float(v), table, increase=True) for v in binary_dist.cdf])
    expect = edges[-2] - np.sum(best * (edges[1:-1] - edges[:-2]))
    assert _cdf_bound(binary_dist, "lower", 2, 2) == pytest.approx(expect, abs=1e-12)


def test_cdf_route_never_looser_than_mean_route(binary_dist):
    base_up = _cdf_bound(binary_dist, "upper", 0, 0)
    base_lo = _cdf_bound(binary_dist, "lower", 0, 0)
    assert base_lo <= binary_dist.mean <= base_up
    for a, d in ((1, 0), (1, 1), (2, 2)):
        table = build_region_table(a, d, 0.1, 0.1)
        assert _cdf_bound(binary_dist, "upper", a, d) <= sparse_transfer(
            base_up, table, increase=True
        ) + 1e-12
        assert _cdf_bound(binary_dist, "lower", a, d) >= sparse_transfer(
            base_lo, table, increase=False
        ) - 1e-12


def test_observed_ball_swaps_additions_and_deletions(binary_dist):
    scheme = SparseFlipNoise(0.15, 0.3)
    forward = BinaryBall(additions=2, deletions=1)
    backward = BinaryBall(additions=1, deletions=2)
    assert forward.reversed() == backward
    assert forward.reversed().reversed() == forward
    assert BinaryBall(2, 2).reversed() == BinaryBall(2, 2)
    swapped = []
    for direction in ("upper", "lower"):
        for kind in ("mean", "cdf"):
            observed = bound_for_clean(binary_dist, forward.reversed(), scheme, direction, kind)
            assert observed == bound_for_clean(binary_dist, backward, scheme, direction, kind)
            swapped.append(
                observed != bound_for_clean(binary_dist, forward, scheme, direction, kind)
            )
    # With p0 != p1 the reversal changes the certificate.
    assert any(swapped)


def test_mismatched_scheme_and_model_rejected(binary_dist):
    with pytest.raises(ConfigurationError):
        bound_for_clean(
            binary_dist, BinaryBall(1, 1), GaussianNoise(0.25), "upper", "mean"
        )


def test_budget_outside_unit_interval_rejected():
    table = build_region_table(1, 1, 0.2, 0.2)
    with pytest.raises(ValueError):
        sparse_transfer(1.5, table, increase=True)


def test_cached_region_table_matches_a_fresh_build_and_is_read_only():
    cached = _region_table(2, 1, 0.05, 0.4)
    assert _region_table(2, 1, 0.05, 0.4) is cached
    fresh = build_region_table(2, 1, 0.05, 0.4)
    for name in ("clean_mass", "adv_mass", "ratio"):
        np.testing.assert_array_equal(getattr(cached, name), getattr(fresh, name))
        with pytest.raises(ValueError):
            getattr(cached, name)[0] = 0.5
    # A fresh build stays the caller's own, writable copy.
    fresh.clean_mass[0] = fresh.clean_mass[0]


def test_cached_greedy_plans_match_fresh_tables_bit_for_bit(monkeypatch):
    """The dispatcher's cached fill plans are read-only, give exactly what
    ``sparse_transfer`` gives on a freshly built table, and share one
    region-table build per (flip ball, noise) however many calls use them."""
    built = []
    build = bounds.build_region_table

    def counting_build(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(bounds, "build_region_table", counting_build)
    bounds._region_table.cache_clear()
    bounds._sparse_plan.cache_clear()
    scheme, grid = SparseFlipNoise(0.05, 0.4), BinGrid.uniform(5)
    edges = grid.edges
    for ball in (BinaryBall(2, 1), BinaryBall(2, 1).reversed()):
        fresh = build(ball.additions, ball.deletions, scheme.p0, scheme.p1)
        for increase in (True, False):
            plan = bounds._sparse_plan(
                ball.additions, ball.deletions, scheme.p0, scheme.p1, increase
            )
            for values in (plan.cum_clean, plan.cum_adv, plan.clean, plan.adv):
                with pytest.raises(ValueError):
                    values[0] = 0.5
            total = float(plan.cum_clean[-1])
            if ball == BinaryBall(2, 1):
                # A budget equal to the total clean mass lands on the sentinel region.
                assert total == 1.0
            mean_way = "upper" if increase else "lower"
            cdf_way = "lower" if increase else "upper"
            for p in (0.0, 0.3, 0.7, 1.0, min(total, 1.0)):
                dist = ScoreBatch(
                    n_samples=4, mean=np.float64(p), variance=np.float64(0.0),
                    grid=grid, cdf=np.array([p / 2, p, p]),
                )
                got = bound_for_clean(dist, ball, scheme, mean_way, "mean")
                assert got == float(sparse_transfer(p, fresh, increase))
                pushed = sparse_transfer(dist.cdf, fresh, increase)
                if cdf_way == "upper":
                    want = edges[-1] - np.sum(pushed * (edges[2:] - edges[1:-1]))
                else:
                    want = edges[-2] - np.sum(pushed * (edges[1:-1] - edges[:-2]))
                assert bound_for_clean(dist, ball, scheme, cdf_way, "cdf") == float(want)
    assert sorted(built) == [(1, 2, 0.05, 0.4), (2, 1, 0.05, 0.4)]
