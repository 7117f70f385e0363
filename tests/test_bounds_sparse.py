"""Likelihood-ratio region tables and transfer bounds for bit-flip noise.

Two independent oracles anchor this file: exhaustive enumeration of all
2^(additions + deletions) flip outcomes for the region masses, and a
generic scipy ``linprog`` solve for the transfer problem the greedy
routine claims to optimize exactly.
"""

from itertools import product

import numpy as np
import pytest
from scipy.optimize import linprog

from robustcp.bounds import (
    BinaryBall,
    _region_table,
    bound_for_clean,
    build_region_table,
    sparse_cdf_lower,
    sparse_cdf_upper,
    sparse_mean_lower,
    sparse_mean_upper,
)
from robustcp.errors import ConfigurationError
from robustcp.smoothing import (
    BinGrid,
    GaussianNoise,
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


def test_empty_ball_is_identity():
    table = build_region_table(0, 0, 0.1, 0.1)
    np.testing.assert_array_equal(table.ratio, [1.0])
    for p in (0.0, 0.3, 0.77, 1.0):
        assert sparse_mean_upper(p, table) == p
        assert sparse_mean_lower(p, table) == p


def test_greedy_matches_linprog_on_random_instances():
    rng = substream(11, "lp-oracle")
    for _ in range(60):
        additions = int(rng.integers(0, 5))
        deletions = int(rng.integers(0, 5 - additions))
        p0, p1 = rng.uniform(0.01, 0.7, 2)
        table = build_region_table(additions, deletions, p0, p1)
        p = float(rng.uniform(0, 1))
        assert sparse_mean_upper(p, table) == pytest.approx(
            linprog_transfer(p, table, maximize=True), abs=1e-9
        )
        assert sparse_mean_lower(p, table) == pytest.approx(
            linprog_transfer(p, table, maximize=False), abs=1e-9
        )


def test_mean_bounds_bracket_and_endpoints():
    table = build_region_table(2, 1, 0.15, 0.3)
    for p in np.linspace(0, 1, 21):
        lo = sparse_mean_lower(p, table)
        up = sparse_mean_upper(p, table)
        # One ulp of slack: the region masses themselves sum to 1 only
        # up to floating-point addition error.
        assert 0.0 <= lo <= p + 1e-12
        assert p - 1e-12 <= up <= 1.0 + 1e-12
    assert sparse_mean_upper(1.0, table) == pytest.approx(1.0, abs=1e-12)
    assert sparse_mean_lower(0.0, table) == pytest.approx(0.0, abs=1e-12)


def test_mean_bounds_monotone_in_budget():
    rng = substream(12, "budget-monotone")
    for _ in range(50):
        p0, p1 = rng.uniform(0.01, 0.6, 2)
        p = float(rng.uniform(0, 1))
        vals = {
            (a, d): sparse_mean_upper(p, build_region_table(a, d, p0, p1))
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


def test_cdf_bound_composes_per_edge_transfers(binary_dist):
    """The CDF route is one transfer per edge plus a partial summation."""
    table = build_region_table(2, 2, 0.1, 0.1)
    edges = binary_dist.grid.edges
    worst = np.array([sparse_mean_lower(float(v), table) for v in binary_dist.cdf])
    expect = edges[-1] - np.sum(worst * (edges[2:] - edges[1:-1]))
    assert sparse_cdf_upper(binary_dist, table) == pytest.approx(expect, abs=1e-12)
    best = np.array([sparse_mean_upper(float(v), table) for v in binary_dist.cdf])
    expect = edges[-2] - np.sum(best * (edges[1:-1] - edges[:-2]))
    assert sparse_cdf_lower(binary_dist, table) == pytest.approx(expect, abs=1e-12)


def test_cdf_route_never_looser_than_mean_route(binary_dist):
    empty = build_region_table(0, 0, 0.1, 0.1)
    base_up = sparse_cdf_upper(binary_dist, empty)
    base_lo = sparse_cdf_lower(binary_dist, empty)
    assert base_lo <= binary_dist.mean <= base_up
    for a, d in ((1, 0), (1, 1), (2, 2)):
        table = build_region_table(a, d, 0.1, 0.1)
        assert sparse_cdf_upper(binary_dist, table) <= sparse_mean_upper(
            base_up, table
        ) + 1e-12
        assert sparse_cdf_lower(binary_dist, table) >= sparse_mean_lower(
            base_lo, table
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
        sparse_mean_upper(1.5, table)


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
