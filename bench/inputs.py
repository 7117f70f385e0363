"""Seeded inputs for the benchmark workloads, made with plain numpy.

The score tensors are smoothed softmax scores of a fixed 10-class
linear model: every point is perturbed ``samples`` times with the noise
of its smoothing scheme, and entry ``[p, c, s]`` is the model's softmax
probability of class ``c`` under the ``s``-th draw.  Gaussian noise acts
on continuous inputs, bit flips on binary ones.  Calibration and test
points are exchangeable draws of one data distribution whose class
clusters overlap, so conformal sets of several sizes occur.

Nothing here imports ``robustcp`` except the set-up entry point, which
imports it only so that set-up time counts the package import.

Set-up entry point (run from the checkout root)::

    python3 bench/inputs.py --workload cli-tensors --seed 1 --out bench/.work/x
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

N_CLASSES = 10
ALPHA = 0.1
# The model is fixed; only the data points depend on the workload seed.
MODEL_SEED = 20240709

# (a) and (c): Gaussian smoothing of continuous inputs.
GAUSS_DIM = 8
GAUSS_SEPARATION = 1.4
GAUSS_SPREAD = 1.0
GAUSS_SIGMA = 0.25
GAUSS_RADIUS = 0.125
# (b): bit-flip smoothing of binary inputs.
BINARY_DIM = 32
BINARY_STRENGTH = 0.2
FLIP_P = 0.1
FLIPS = (2, 2)
# (c): corrected calibration-time mode.
ETA = 0.01
# (d): feature poisoning certificate.
POISON_BUDGET = 50


@dataclass(frozen=True)
class CliSizes:
    """Shapes of the cli-tensors inputs as (points, samples) per tensor."""

    gauss_cal: tuple[int, int] = (1000, 1000)
    gauss_test: tuple[int, int] = (1000, 1000)
    sparse_cal: tuple[int, int] = (1000, 1000)
    sparse_test: tuple[int, int] = (1000, 1000)
    corrected_cal: tuple[int, int] = (10_000, 100)
    corrected_test: tuple[int, int] = (1000, 100)
    bounds_rows: int = 100_000


SIZES = {
    "full": CliSizes(),
    "tiny": CliSizes(
        gauss_cal=(60, 50), gauss_test=(40, 50), sparse_cal=(60, 50),
        sparse_test=(40, 50), corrected_cal=(300, 40), corrected_test=(40, 40),
        bounds_rows=500,
    ),
}

# Evasion trials at the acceptance-suite settings; only the seed varies.
EVASION_SUITES = {
    "evasion-gaussian": {
        "task": {"kind": "gaussian-mixture", "n_classes": 3, "dim": 4,
                 "separation": 2.0, "noise": 1.0, "task_seed": 7,
                 "n_cal": 100, "n_test": 20},
        "alpha": ALPHA, "score_kind": "tps", "sigma": 0.5,
        "radii": [0.125, 0.25, 0.5], "n_samples": 10_000, "attack_samples": 256,
    },
    "evasion-binary": {
        "task": {"kind": "binary-linear", "n_classes": 3, "dim": 64,
                 "strength": 0.25, "task_seed": 7, "n_cal": 100, "n_test": 20},
        "alpha": ALPHA, "score_kind": "tps", "p0": FLIP_P, "p1": FLIP_P,
        "flips": [list(FLIPS)], "n_samples": 4000, "attack_samples": 256,
    },
}
TINY_EVASION = {"n_samples": 200, "attack_samples": 16, "n_cal": 20, "n_test": 4}

TENSOR_MAGIC = b"RCPT"
TENSOR_VERSION = 1
_CHUNK_POINTS = 50


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def _softmax(logits: np.ndarray) -> np.ndarray:
    logits = logits - logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


class _TensorWriter:
    """Streams a (points, classes, samples) float32 tensor in the .bin layout."""

    def __init__(self, path: Path, n_points: int, n_samples: int):
        self.handle = open(path, "wb")
        self.handle.write(
            TENSOR_MAGIC
            + struct.pack("<HIII", TENSOR_VERSION, n_points, N_CLASSES, n_samples)
        )

    def write(self, block: np.ndarray) -> None:
        self.handle.write(np.ascontiguousarray(block, dtype="<f4").tobytes())

    def close(self) -> None:
        self.handle.close()


def _write_labels(path: Path, labels: np.ndarray) -> None:
    lines = ["point_id,label"]
    lines.extend(f"{p},{int(y)}" for p, y in enumerate(labels))
    path.write_text("\n".join(lines) + "\n")


def _gauss_model():
    rng = _rng(MODEL_SEED, 1)
    means = rng.standard_normal((N_CLASSES, GAUSS_DIM))
    means *= GAUSS_SEPARATION / np.linalg.norm(means, axis=1, keepdims=True)
    # Bayes posterior of the isotropic mixture: softmax-linear in x.
    weights = means / GAUSS_SPREAD**2
    bias = -0.5 * np.sum(means**2, axis=1) / GAUSS_SPREAD**2
    return means, weights.astype(np.float32), bias.astype(np.float32)


def _binary_model():
    rng = _rng(MODEL_SEED, 2)
    theta = 0.5 + BINARY_STRENGTH * rng.choice((-1.0, 1.0), (N_CLASSES, BINARY_DIM))
    weights = np.log(theta) - np.log1p(-theta)
    bias = np.log1p(-theta).sum(axis=1)
    return theta, weights.astype(np.float32), bias.astype(np.float32)


def gaussian_tensor(path: Path, labels_path: Path, seed: int, tag: int,
                    n_points: int, n_samples: int) -> None:
    """Gaussian-smoothed scores of continuous points drawn from the mixture."""
    means, weights, bias = _gauss_model()
    rng = _rng(seed, tag)
    labels = rng.integers(0, N_CLASSES, n_points)
    x = (means[labels] + GAUSS_SPREAD * rng.standard_normal((n_points, GAUSS_DIM)))
    x = x.astype(np.float32)
    writer = _TensorWriter(path, n_points, n_samples)
    try:
        for start in range(0, n_points, _CHUNK_POINTS):
            block = x[start:start + _CHUNK_POINTS]
            noise = rng.standard_normal(
                (block.shape[0], n_samples, GAUSS_DIM), dtype=np.float32
            )
            noisy = block[:, None, :] + GAUSS_SIGMA * noise
            probs = _softmax(noisy @ weights.T + bias)
            writer.write(probs.transpose(0, 2, 1))
    finally:
        writer.close()
    _write_labels(labels_path, labels)


def sparse_tensor(path: Path, labels_path: Path, seed: int, tag: int,
                  n_points: int, n_samples: int) -> None:
    """Bit-flip-smoothed scores of binary points drawn from the Bernoulli task."""
    theta, weights, bias = _binary_model()
    rng = _rng(seed, tag)
    labels = rng.integers(0, N_CLASSES, n_points)
    x = rng.random((n_points, BINARY_DIM)) < theta[labels]
    writer = _TensorWriter(path, n_points, n_samples)
    try:
        for start in range(0, n_points, _CHUNK_POINTS):
            block = x[start:start + _CHUNK_POINTS]
            flips = rng.random(
                (block.shape[0], n_samples, BINARY_DIM), dtype=np.float32
            ) < FLIP_P
            noisy = (block[:, None, :] ^ flips).astype(np.float32)
            probs = _softmax(noisy @ weights.T + bias)
            writer.write(probs.transpose(0, 2, 1))
    finally:
        writer.close()
    _write_labels(labels_path, labels)


def feature_bounds(path: Path, seed: int, n_rows: int) -> None:
    """Smooth scores next to Gaussian closed-form lower bounds (radius / sigma = 0.5)."""
    rng = _rng(seed, 7)
    scores = rng.beta(2.0, 2.0, n_rows)
    # Phi(Phi^-1(p) - r / sigma), written out through the normal quantile.
    lower = np.minimum(ndtr(ndtri(scores) - 0.5), scores)
    lines = ["point_id,score,lower_bound"]
    lines.extend(f"{p},{s!r},{lo!r}" for p, s, lo in
                 zip(range(n_rows), scores.tolist(), lower.tolist()))
    path.write_text("\n".join(lines) + "\n")


def make_cli_inputs(out: Path, seed: int, scale: str) -> dict:
    sizes = SIZES[scale]
    out.mkdir(parents=True, exist_ok=True)
    gaussian_tensor(out / "gauss-cal.bin", out / "gauss-cal-labels.csv", seed, 11,
                    *sizes.gauss_cal)
    gaussian_tensor(out / "gauss-test.bin", out / "gauss-test-labels.csv", seed, 12,
                    *sizes.gauss_test)
    sparse_tensor(out / "sparse-cal.bin", out / "sparse-cal-labels.csv", seed, 21,
                  *sizes.sparse_cal)
    sparse_tensor(out / "sparse-test.bin", out / "sparse-test-labels.csv", seed, 22,
                  *sizes.sparse_test)
    gaussian_tensor(out / "corr-cal.bin", out / "corr-cal-labels.csv", seed, 31,
                    *sizes.corrected_cal)
    gaussian_tensor(out / "corr-test.bin", out / "corr-test-labels.csv", seed, 32,
                    *sizes.corrected_test)
    feature_bounds(out / "bounds.csv", seed, sizes.bounds_rows)
    return {"workload": "cli-tensors", "seed": seed, "scale": scale,
            "sizes": asdict(sizes)}


def make_evasion_inputs(out: Path, workload: str, seed: int, scale: str) -> dict:
    suite = json.loads(json.dumps(EVASION_SUITES[workload]))
    if scale == "tiny":
        suite["n_samples"] = TINY_EVASION["n_samples"]
        suite["attack_samples"] = TINY_EVASION["attack_samples"]
        suite["task"]["n_cal"] = TINY_EVASION["n_cal"]
        suite["task"]["n_test"] = TINY_EVASION["n_test"]
    out.mkdir(parents=True, exist_ok=True)
    return {"workload": workload, "seed": seed, "scale": scale, "suite": suite}


def make_inputs(out: Path, workload: str, seed: int, scale: str) -> None:
    if workload == "cli-tensors":
        spec = make_cli_inputs(out, seed, scale)
    else:
        spec = make_evasion_inputs(out, workload, seed, scale)
    (out / "inputs.json").write_text(json.dumps(spec, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)
    # Set-up time includes importing the package under test.
    sys.path.insert(0, "src")
    import robustcp  # noqa: F401

    make_inputs(Path(args.out), args.workload, args.seed, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
