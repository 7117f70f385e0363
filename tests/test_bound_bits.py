"""Frozen bits of every certified bound route.

Each entry of ``PINNED`` is ``bound_for_clean`` of a fixed single
summary, written as ``float.hex``.  Any change to a bit of them is a
change to the certificates, so a refactor of the bounds must keep them
all.  They cover both
families, both kinds and both directions, forward and reversed balls, a
zero radius and an empty flip ball, and ``p0 != p1``.  At a zero radius
the mean route returns the mean itself while the CDF route still takes
each edge through ``ndtr(ndtri(.))``, which moves some of the bits.
"""

import numpy as np
import pytest

from robustcp.bounds import (
    BinaryBall,
    L2Ball,
    bound_for_clean,
    build_region_table,
    gaussian_transfer,
    sparse_transfer,
)
from robustcp.smoothing import BinGrid, GaussianNoise, ScoreBatch, SparseFlipNoise

# Summaries of 7, 8, 10 and 12 draws, stored exactly as the summary writes them.
SUMMARIES = {
    "uniform": ScoreBatch(
        n_samples=7, mean=0.4371428571428571, variance=0.10245714285714287,
        grid=BinGrid.uniform(11), cdf=np.array([1, 2, 2, 4, 4, 5, 5, 6, 6]) / 7,
    ),
    "ragged": ScoreBatch(
        n_samples=8, mean=0.56875, variance=0.20924107142857143,
        grid=BinGrid(np.array([0.0, 0.05, 0.2, 0.2, 0.5, 0.9, 1.0])),
        cdf=np.array([2, 3, 3, 4, 5]) / 8,
    ),
    "low": ScoreBatch(
        n_samples=10, mean=0.034999999999999996, variance=0.01225,
        grid=BinGrid.uniform(6), cdf=np.array([9, 10, 10, 10]) / 10,
    ),
    "twelve": ScoreBatch(
        n_samples=12, mean=0.41250000000000003, variance=0.028438636363636364,
        grid=BinGrid.uniform(21),
        cdf=np.array([0, 0, 1, 1, 3, 3, 5, 6, 7, 9, 10, 10, 11, 11, 12, 12, 12, 12, 12]) / 12,
    ),
}
GAUSSIAN = GaussianNoise(0.25)
SPARSE = SparseFlipNoise(0.1, 0.2)
BALLS = {
    "L2Ball(0.0)": (L2Ball(0.0), GAUSSIAN),
    "L2Ball(0.125)": (L2Ball(0.125), GAUSSIAN),
    "L2Ball(0.125).reversed()": (L2Ball(0.125).reversed(), GAUSSIAN),
    "BinaryBall(0, 0)": (BinaryBall(0, 0), SPARSE),
    "BinaryBall(2, 1)": (BinaryBall(2, 1), SPARSE),
    "BinaryBall(2, 1).reversed()": (BinaryBall(2, 1).reversed(), SPARSE),
}

PINNED = {
    ("uniform", "L2Ball(0.0)", "upper", "mean"): "0x1.bfa2608c6f2d5p-2",
    ("uniform", "L2Ball(0.0)", "upper", "cdf"): "0x1.0000000000000p-1",
    ("uniform", "L2Ball(0.0)", "lower", "mean"): "0x1.bfa2608c6f2d5p-2",
    ("uniform", "L2Ball(0.0)", "lower", "cdf"): "0x1.999999999999bp-2",
    ("uniform", "L2Ball(0.125)", "upper", "mean"): "0x1.4479f177afb3cp-1",
    ("uniform", "L2Ball(0.125)", "upper", "cdf"): "0x1.48e66cbdb4eccp-1",
    ("uniform", "L2Ball(0.125)", "lower", "mean"): "0x1.0552f7fb92d2ep-2",
    ("uniform", "L2Ball(0.125)", "lower", "cdf"): "0x1.1122cb4ee5de0p-2",
    ("uniform", "L2Ball(0.125).reversed()", "upper", "mean"): "0x1.4479f177afb3cp-1",
    ("uniform", "L2Ball(0.125).reversed()", "upper", "cdf"): "0x1.48e66cbdb4eccp-1",
    ("uniform", "L2Ball(0.125).reversed()", "lower", "mean"): "0x1.0552f7fb92d2ep-2",
    ("uniform", "L2Ball(0.125).reversed()", "lower", "cdf"): "0x1.1122cb4ee5de0p-2",
    ("uniform", "BinaryBall(0, 0)", "upper", "mean"): "0x1.bfa2608c6f2d5p-2",
    ("uniform", "BinaryBall(0, 0)", "upper", "cdf"): "0x1.0000000000000p-1",
    ("uniform", "BinaryBall(0, 0)", "lower", "mean"): "0x1.bfa2608c6f2d5p-2",
    ("uniform", "BinaryBall(0, 0)", "lower", "cdf"): "0x1.999999999999bp-2",
    ("uniform", "BinaryBall(2, 1)", "upper", "mean"): "0x1.fe389994fa05dp-1",
    ("uniform", "BinaryBall(2, 1)", "upper", "cdf"): "0x1.f85389c5b1f94p-1",
    ("uniform", "BinaryBall(2, 1)", "lower", "mean"): "0x1.61afb494e2e7bp-9",
    ("uniform", "BinaryBall(2, 1)", "lower", "cdf"): "0x1.42d352c11e640p-7",
    ("uniform", "BinaryBall(2, 1).reversed()", "upper", "mean"): "0x1.feffd663cca35p-1",
    ("uniform", "BinaryBall(2, 1).reversed()", "upper", "cdf"): "0x1.f9e43cfc21adap-1",
    ("uniform", "BinaryBall(2, 1).reversed()", "lower", "mean"): "0x1.8de5ab277f44ap-10",
    ("uniform", "BinaryBall(2, 1).reversed()", "lower", "cdf"): "0x1.0b9af72015d00p-7",
    ("ragged", "L2Ball(0.0)", "upper", "mean"): "0x1.2333333333333p-1",
    ("ragged", "L2Ball(0.0)", "upper", "cdf"): "0x1.2cccccccccccdp-1",
    ("ragged", "L2Ball(0.0)", "lower", "mean"): "0x1.2333333333333p-1",
    ("ragged", "L2Ball(0.0)", "lower", "cdf"): "0x1.b99999999999ap-2",
    ("ragged", "L2Ball(0.125)", "upper", "mean"): "0x1.7fc9f33a07b6bp-1",
    ("ragged", "L2Ball(0.125)", "upper", "cdf"): "0x1.81f44d99f83dcp-1",
    ("ragged", "L2Ball(0.125)", "lower", "mean"): "0x1.7cd522e29313cp-2",
    ("ragged", "L2Ball(0.125)", "lower", "cdf"): "0x1.1241c5ab3b4a6p-2",
    ("ragged", "L2Ball(0.125).reversed()", "upper", "mean"): "0x1.7fc9f33a07b6bp-1",
    ("ragged", "L2Ball(0.125).reversed()", "upper", "cdf"): "0x1.81f44d99f83dcp-1",
    ("ragged", "L2Ball(0.125).reversed()", "lower", "mean"): "0x1.7cd522e29313cp-2",
    ("ragged", "L2Ball(0.125).reversed()", "lower", "cdf"): "0x1.1241c5ab3b4a6p-2",
    ("ragged", "BinaryBall(0, 0)", "upper", "mean"): "0x1.2333333333333p-1",
    ("ragged", "BinaryBall(0, 0)", "upper", "cdf"): "0x1.2cccccccccccdp-1",
    ("ragged", "BinaryBall(0, 0)", "lower", "mean"): "0x1.2333333333333p-1",
    ("ragged", "BinaryBall(0, 0)", "lower", "cdf"): "0x1.b99999999999ap-2",
    ("ragged", "BinaryBall(2, 1)", "upper", "mean"): "0x1.fea314dbf86a5p-1",
    ("ragged", "BinaryBall(2, 1)", "upper", "cdf"): "0x1.feb240795ceb2p-1",
    ("ragged", "BinaryBall(2, 1)", "lower", "mean"): "0x1.cc2afb93476d4p-9",
    ("ragged", "BinaryBall(2, 1)", "lower", "cdf"): "0x1.ed57275dfae00p-9",
    ("ragged", "BinaryBall(2, 1).reversed()", "upper", "mean"): "0x1.ff3bbbbbbbbbep-1",
    ("ragged", "BinaryBall(2, 1).reversed()", "upper", "cdf"): "0x1.fef6371185934p-1",
    ("ragged", "BinaryBall(2, 1).reversed()", "lower", "mean"): "0x1.02d82d82d82d7p-9",
    ("ragged", "BinaryBall(2, 1).reversed()", "lower", "cdf"): "0x1.c3ece2a534700p-9",
    ("low", "L2Ball(0.0)", "upper", "mean"): "0x1.1eb851eb851ebp-5",
    ("low", "L2Ball(0.0)", "upper", "cdf"): "0x1.c28f5c28f5c28p-3",
    ("low", "L2Ball(0.0)", "lower", "mean"): "0x1.1eb851eb851ebp-5",
    ("low", "L2Ball(0.0)", "lower", "cdf"): "0x1.47ae147ae1480p-6",
    ("low", "L2Ball(0.125)", "upper", "mean"): "0x1.8432ef613c560p-4",
    ("low", "L2Ball(0.125)", "upper", "cdf"): "0x1.f294c4c2f519cp-3",
    ("low", "L2Ball(0.125)", "lower", "mean"): "0x1.548091bf8dabap-7",
    ("low", "L2Ball(0.125)", "lower", "cdf"): "0x1.ea5b234a5ef00p-8",
    ("low", "L2Ball(0.125).reversed()", "upper", "mean"): "0x1.8432ef613c560p-4",
    ("low", "L2Ball(0.125).reversed()", "upper", "cdf"): "0x1.f294c4c2f519cp-3",
    ("low", "L2Ball(0.125).reversed()", "lower", "mean"): "0x1.548091bf8dabap-7",
    ("low", "L2Ball(0.125).reversed()", "lower", "cdf"): "0x1.ea5b234a5ef00p-8",
    ("low", "BinaryBall(0, 0)", "upper", "mean"): "0x1.1eb851eb851ebp-5",
    ("low", "BinaryBall(0, 0)", "upper", "cdf"): "0x1.c28f5c28f5c28p-3",
    ("low", "BinaryBall(0, 0)", "lower", "mean"): "0x1.1eb851eb851ebp-5",
    ("low", "BinaryBall(0, 0)", "lower", "cdf"): "0x1.47ae147ae1480p-6",
    ("low", "BinaryBall(2, 1)", "upper", "mean"): "0x1.ae147ae147ae2p-1",
    ("low", "BinaryBall(2, 1)", "upper", "cdf"): "0x1.8d4fdf3b645a0p-2",
    ("low", "BinaryBall(2, 1)", "lower", "mean"): "0x1.c516a10f0b403p-13",
    ("low", "BinaryBall(2, 1)", "lower", "cdf"): "0x1.02e85c0898000p-13",
    ("low", "BinaryBall(2, 1).reversed()", "upper", "mean"): "0x1.9333333333334p-1",
    ("low", "BinaryBall(2, 1).reversed()", "upper", "cdf"): "0x1.90e5604189372p-2",
    ("low", "BinaryBall(2, 1).reversed()", "lower", "mean"): "0x1.fdb97530eca84p-14",
    ("low", "BinaryBall(2, 1).reversed()", "lower", "cdf"): "0x1.23456789a8000p-14",
    ("twelve", "L2Ball(0.0)", "upper", "mean"): "0x1.a666666666667p-2",
    ("twelve", "L2Ball(0.0)", "upper", "cdf"): "0x1.b777777777776p-2",
    ("twelve", "L2Ball(0.0)", "lower", "mean"): "0x1.a666666666667p-2",
    ("twelve", "L2Ball(0.0)", "lower", "cdf"): "0x1.8444444444444p-2",
    ("twelve", "L2Ball(0.125)", "upper", "mean"): "0x1.383be78d72fc7p-1",
    ("twelve", "L2Ball(0.125)", "upper", "cdf"): "0x1.0580b0d8fad50p-1",
    ("twelve", "L2Ball(0.125)", "lower", "mean"): "0x1.e222f535b490ep-3",
    ("twelve", "L2Ball(0.125)", "lower", "cdf"): "0x1.340db51d6f038p-2",
    ("twelve", "L2Ball(0.125).reversed()", "upper", "mean"): "0x1.383be78d72fc7p-1",
    ("twelve", "L2Ball(0.125).reversed()", "upper", "cdf"): "0x1.0580b0d8fad50p-1",
    ("twelve", "L2Ball(0.125).reversed()", "lower", "mean"): "0x1.e222f535b490ep-3",
    ("twelve", "L2Ball(0.125).reversed()", "lower", "cdf"): "0x1.340db51d6f038p-2",
    ("twelve", "BinaryBall(0, 0)", "upper", "mean"): "0x1.a666666666667p-2",
    ("twelve", "BinaryBall(0, 0)", "upper", "cdf"): "0x1.b777777777778p-2",
    ("twelve", "BinaryBall(0, 0)", "lower", "mean"): "0x1.a666666666667p-2",
    ("twelve", "BinaryBall(0, 0)", "lower", "cdf"): "0x1.8444444444446p-2",
    ("twelve", "BinaryBall(2, 1)", "upper", "mean"): "0x1.fe24a9670837cp-1",
    ("twelve", "BinaryBall(2, 1)", "upper", "cdf"): "0x1.79665b9cb7e60p-1",
    ("twelve", "BinaryBall(2, 1)", "lower", "mean"): "0x1.4dbf86a314dbfp-9",
    ("twelve", "BinaryBall(2, 1)", "lower", "cdf"): "0x1.c175cc44df9c0p-4",
    ("twelve", "BinaryBall(2, 1).reversed()", "upper", "mean"): "0x1.fe3d70a3d70a5p-1",
    ("twelve", "BinaryBall(2, 1).reversed()", "upper", "cdf"): "0x1.7b250405286ddp-1",
    ("twelve", "BinaryBall(2, 1).reversed()", "lower", "mean"): "0x1.7777777777777p-10",
    ("twelve", "BinaryBall(2, 1).reversed()", "lower", "cdf"): "0x1.b75f31aed6a90p-4",
}


def test_every_route_keeps_its_frozen_bits():
    assert len(PINNED) == len(SUMMARIES) * len(BALLS) * 4
    moved = []
    for (summary, ball, direction, kind), want in PINNED.items():
        model, scheme = BALLS[ball]
        got = bound_for_clean(SUMMARIES[summary], model, scheme, direction, kind)
        if float(got).hex() != want:
            moved.append((summary, ball, direction, kind, float(got).hex(), want))
    assert moved == []


def test_zero_radius_keeps_the_mean_but_round_trips_the_cdf():
    """The asymmetry the frozen bits hold, seen directly."""
    dist = SUMMARIES["twelve"]
    edges = dist.grid.edges
    # The partial sums of the CDF as measured, with no round trip.
    kept = {
        "upper": edges[-1] - np.sum(dist.cdf * (edges[2:] - edges[1:-1])),
        "lower": edges[-2] - np.sum(dist.cdf * (edges[1:-1] - edges[:-2])),
    }
    for direction in ("upper", "lower"):
        assert bound_for_clean(dist, L2Ball(0.0), GAUSSIAN, direction, "mean") == dist.mean
        cdf_bound = bound_for_clean(dist, L2Ball(0.0), GAUSSIAN, direction, "cdf")
        assert cdf_bound != kept[direction]
        assert cdf_bound == pytest.approx(kept[direction], abs=1e-15)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_transfer_kernels_are_elementwise(shape):
    p = np.random.default_rng(8).uniform(0.0, 1.0, shape)
    table = build_region_table(2, 1, 0.1, 0.2)
    for increase in (True, False):
        kernels = (
            lambda q: gaussian_transfer(q, 0.125, 0.25, increase),
            lambda q: sparse_transfer(q, table, increase),
        )
        for kernel in kernels:
            out = kernel(p)
            assert np.shape(out) == shape
            if shape == ():
                assert isinstance(out, np.float64)
            for index in np.ndindex(shape):
                assert kernel(float(p[index])) == np.asarray(out)[index]


def test_mean_route_is_the_family_kernel_at_the_mean():
    for name, dist in SUMMARIES.items():
        for increase, direction in ((True, "upper"), (False, "lower")):
            for radius in (0.0, 0.125):
                assert bound_for_clean(
                    dist, L2Ball(radius), GAUSSIAN, direction, "mean"
                ) == gaussian_transfer(dist.mean, radius, 0.25, increase)
            for ball in (BinaryBall(0, 0), BinaryBall(2, 1), BinaryBall(1, 2)):
                table = build_region_table(ball.additions, ball.deletions, 0.1, 0.2)
                assert bound_for_clean(
                    dist, ball, SPARSE, direction, "mean"
                ) == sparse_transfer(dist.mean, table, increase)


def test_transfer_kernels_reject_bad_input():
    table = build_region_table(1, 1, 0.2, 0.2)
    for p in (-0.1, 1.5, np.nan, np.array([0.5, 1.5])):
        with pytest.raises(ValueError):
            gaussian_transfer(p, 0.1, 0.25, True)
    with pytest.raises(ValueError):
        gaussian_transfer(0.5, -0.1, 0.25, True)
    with pytest.raises(ValueError):
        gaussian_transfer(0.5, 0.1, 0.0, True)
    for p in (-0.1, 1.5, np.array([0.5, 1.5])):
        with pytest.raises(ValueError):
            sparse_transfer(p, table, False)
