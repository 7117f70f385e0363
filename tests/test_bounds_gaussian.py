"""Worst-case smoothed-score bounds under Gaussian noise.

The mean bounds have a closed form in terms of the standard normal CDF;
an independent high-precision oracle (mpmath at 50 digits) pins them
down to 1e-9.  The CDF-based bounds are checked against a hand-rolled
binned stochastic-dominance sum at radius zero and structurally
(bracketing, monotonicity, dominance over the mean route) elsewhere.
"""

import mpmath
import numpy as np
import pytest

from robustcp.bounds import L2Ball, bound_for_clean, gaussian_transfer
from robustcp.smoothing import BinGrid, GaussianNoise, substream, summarize_samples

mpmath.mp.dps = 50


def _phi(z):
    return (1 + mpmath.erf(mpmath.mpf(z) / mpmath.sqrt(2))) / 2


def _phi_inv(p):
    return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


def _oracle_upper(p, radius, sigma):
    return float(_phi(_phi_inv(p) + mpmath.mpf(radius) / mpmath.mpf(sigma)))


def _cdf_bound(dist, direction, radius, sigma):
    return bound_for_clean(dist, L2Ball(radius), GaussianNoise(sigma), direction, "cdf")


CASES = [
    (0.5, 1.0, 1.0),
    (0.5, 0.25, 0.25),
    (0.1, 0.5, 0.25),
    (0.9, 0.125, 0.25),
    (0.731, 0.3, 0.17),
    (0.0001, 2.0, 0.5),
    (0.9999, 2.0, 0.5),
]


@pytest.mark.parametrize("p,radius,sigma", CASES)
def test_mean_upper_matches_high_precision_oracle(p, radius, sigma):
    assert gaussian_transfer(p, radius, sigma, increase=True) == pytest.approx(
        _oracle_upper(p, radius, sigma), abs=1e-9
    )


@pytest.mark.parametrize("p,radius,sigma", CASES)
def test_mean_lower_matches_high_precision_oracle(p, radius, sigma):
    oracle = float(_phi(_phi_inv(p) - mpmath.mpf(radius) / mpmath.mpf(sigma)))
    assert gaussian_transfer(p, radius, sigma, increase=False) == pytest.approx(
        oracle, abs=1e-9
    )


def test_mean_upper_phi_one_special_case():
    # Shift by exactly one noise standard deviation from the median.
    assert gaussian_transfer(0.5, 0.25, 0.25, increase=True) == pytest.approx(
        float(_phi(1)), abs=1e-9
    )


def test_zero_radius_is_identity():
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert gaussian_transfer(p, 0.0, 0.3, increase=True) == p
        assert gaussian_transfer(p, 0.0, 0.3, increase=False) == p


def test_mean_bounds_bracket_and_round_trip():
    for p, radius, sigma in CASES:
        up = gaussian_transfer(p, radius, sigma, increase=True)
        lo = gaussian_transfer(p, radius, sigma, increase=False)
        assert lo <= p <= up
        # The maps are inverses of each other wherever the intermediate
        # value is well conditioned (ndtri loses digits within ~1e-13 of
        # the endpoints, which is a property of doubles, not the bound).
        if 1e-9 < up < 1 - 1e-9:
            assert gaussian_transfer(up, radius, sigma, increase=False) == pytest.approx(
                p, abs=1e-9
            )
        if 1e-9 < lo < 1 - 1e-9:
            assert gaussian_transfer(lo, radius, sigma, increase=True) == pytest.approx(
                p, abs=1e-9
            )


def test_mean_upper_monotone_in_radius():
    radii = np.linspace(0.0, 2.0, 21)
    values = [gaussian_transfer(0.4, r, 0.5, increase=True) for r in radii]
    assert np.all(np.diff(values) >= 0)
    values = [gaussian_transfer(0.4, r, 0.5, increase=False) for r in radii]
    assert np.all(np.diff(values) <= 0)


def test_extreme_probabilities_stay_in_unit_interval():
    assert gaussian_transfer(1.0, 0.5, 0.25, increase=True) == 1.0
    assert gaussian_transfer(0.0, 0.5, 0.25, increase=False) == 0.0
    assert 0.0 <= gaussian_transfer(1e-300, 1.0, 0.1, increase=True) <= 1.0


@pytest.fixture(scope="module")
def beta_dist():
    rng = substream(3, "gauss-bounds")
    samples = np.clip(rng.beta(2, 5, 500), 0.0, 1.0)
    return summarize_samples(samples, BinGrid.uniform(51))


def test_cdf_bounds_at_zero_radius_equal_binned_dominance(beta_dist):
    """r = 0 reduces the shifted sum to the plain binned envelope of the mean."""
    grid = beta_dist.grid
    edges = np.concatenate(([0.0], grid.inner_edges, [1.0]))
    widths = np.diff(edges)
    at_left = np.concatenate(([0.0], beta_dist.cdf))
    at_right = np.concatenate((beta_dist.cdf, [1.0]))
    upper = float(np.sum(widths * (1.0 - at_left)))
    lower = float(np.sum(widths * (1.0 - at_right)))
    assert _cdf_bound(beta_dist, "upper", 0.0, 0.25) == pytest.approx(upper, abs=1e-12)
    assert _cdf_bound(beta_dist, "lower", 0.0, 0.25) == pytest.approx(lower, abs=1e-12)
    assert lower <= beta_dist.mean <= upper


def test_cdf_bounds_bracket_mean_for_positive_radius(beta_dist):
    for radius in (0.05, 0.1, 0.25):
        up = _cdf_bound(beta_dist, "upper", radius, 0.25)
        lo = _cdf_bound(beta_dist, "lower", radius, 0.25)
        assert lo <= beta_dist.mean <= up


def test_cdf_route_never_looser_than_mean_route(beta_dist):
    """Using the whole distribution beats collapsing it to its mean.

    The mean route must first round the mean onto the conservative side
    of the binned grid, so the comparison point is the r = 0 envelope,
    not the raw sample mean.
    """
    base_up = _cdf_bound(beta_dist, "upper", 0.0, 0.25)
    base_lo = _cdf_bound(beta_dist, "lower", 0.0, 0.25)
    for radius in (0.05, 0.1, 0.25):
        assert _cdf_bound(beta_dist, "upper", radius, 0.25) <= gaussian_transfer(
            base_up, radius, 0.25, increase=True
        ) + 1e-12
        assert _cdf_bound(beta_dist, "lower", radius, 0.25) >= gaussian_transfer(
            base_lo, radius, 0.25, increase=False
        ) - 1e-12


def test_cdf_bounds_monotone_in_radius(beta_dist):
    radii = np.linspace(0.0, 0.5, 11)
    ups = [_cdf_bound(beta_dist, "upper", r, 0.25) for r in radii]
    los = [_cdf_bound(beta_dist, "lower", r, 0.25) for r in radii]
    assert np.all(np.diff(ups) >= -1e-12)
    assert np.all(np.diff(los) <= 1e-12)


def test_dispatcher_routes_by_kind(beta_dist):
    model = L2Ball(radius=0.1)
    scheme = GaussianNoise(sigma=0.25)
    # The CDF route pushes every edge's CDF value down, then sums by parts.
    edges = beta_dist.grid.edges
    worst = gaussian_transfer(beta_dist.cdf, 0.1, 0.25, increase=False)
    assert bound_for_clean(beta_dist, model, scheme, "upper", "cdf") == pytest.approx(
        edges[-1] - np.sum(worst * (edges[2:] - edges[1:-1]))
    )
    assert bound_for_clean(beta_dist, model, scheme, "lower", "mean") == pytest.approx(
        gaussian_transfer(beta_dist.mean, 0.1, 0.25, increase=False)
    )
    # The L2 ball is symmetric: it is its own reversal, so bounding from
    # an observed (perhaps perturbed) point is the same.
    assert model.reversed() == model
    assert model.reversed().reversed() == model
    for direction in ("upper", "lower"):
        for kind in ("mean", "cdf"):
            assert bound_for_clean(
                beta_dist, model.reversed(), scheme, direction, kind
            ) == bound_for_clean(beta_dist, model, scheme, direction, kind)


def test_dispatcher_rejects_unknown_kind(beta_dist):
    with pytest.raises(ValueError):
        bound_for_clean(beta_dist, L2Ball(0.1), GaussianNoise(0.25), "upper", "median")
