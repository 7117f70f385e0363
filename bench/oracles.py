"""Independent checks of the program's outputs.

Nothing here calls ``robustcp``.  Bounds are re-derived from first
principles (mpmath for the Gaussian closed form, an LP over every noise
outcome for bit flips), conformal thresholds and sets are recomputed
with plain numpy from the tensors, and poisoning witnesses are replayed.
Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath import mp
from scipy.optimize import linprog

BOUND_TOLERANCE = 1e-9
# Classes whose score lies this close to a threshold are not compared.
TIE_TOLERANCE = 1e-9
# Thresholds and means recomputed in float64 must match to this.
VALUE_TOLERANCE = 1e-12


def order_index(alpha: float, n: int) -> int:
    """floor(alpha * (n + 1)) in exact rational arithmetic."""
    return math.floor(Fraction(repr(alpha)) * (n + 1))


def kth_smallest(values: np.ndarray, alpha: float) -> float:
    k = order_index(alpha, values.size)
    return -math.inf if k == 0 else float(np.sort(values)[k - 1])


# ------------------------------------------------------------------ bounds --


class BoundProbe:
    """Records a deterministic sample of ``bounds.bound_for_clean`` calls.

    Installed as a trace hook.  Calls are grouped by route: the caller
    outside ``bounds`` that asked for the bound, the smoothing scheme,
    the bound kind and its direction.  Per route the first ``head``
    calls and every ``every``-th call after them are kept, up to ``cap``.
    """

    def __init__(self, head: int = 2, every: int = 1009, cap: int = 4):
        self.head, self.every, self.cap = head, every, cap
        self.calls = 0
        self.route_calls: dict[tuple, int] = {}
        self.samples: list[dict] = []

    def __call__(self, tracer, idx, args, kwargs, result) -> None:
        self.calls += 1
        names = ("dist", "model", "scheme", "direction", "kind")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        caller = tracer.parent[idx]
        while caller >= 0 and tracer.names[tracer.name[caller]].startswith("bounds."):
            caller = tracer.parent[caller]
        route = (
            tracer.names[tracer.name[caller]] if caller >= 0 else "",
            type(bound["scheme"]).__name__, bound["kind"], bound["direction"],
        )
        seen = self.route_calls.get(route, 0) + 1
        self.route_calls[route] = seen
        if seen > self.head and seen % self.every:
            return
        if sum(s["route"] == route for s in self.samples) >= self.cap:
            return
        dist = bound["dist"]
        self.samples.append({
            "op": int(tracer.op[idx]),
            "route": route,
            "mean": float(dist.mean),
            "cdf": np.array(dist.cdf, dtype=float),
            "edges": np.array(dist.grid.edges, dtype=float),
            "model": bound["model"],
            "scheme": bound["scheme"],
            "direction": bound["direction"],
            "kind": bound["kind"],
            "value": float(result),
        })


def _phi(z):
    return (1 + mp.erf(z / mp.sqrt(2))) / 2


def _phi_inv(p):
    return mp.sqrt(2) * mp.erfinv(2 * p - 1)


def _gaussian_shift(p: float, shift) -> object:
    """Phi(Phi^-1(p) + shift) in high precision, exact at p in {0, 1}."""
    if p <= 0.0 or p >= 1.0:
        return mp.mpf(p)
    return _phi(_phi_inv(mp.mpf(p)) + shift)


def _mean_from_cdf(edges: np.ndarray, inner_cdf, upper: bool):
    """Mean bound of a score whose CDF at the inner edges is ``inner_cdf``.

    Upper bound: the mass of each bin sits at its right edge; lower
    bound: at its left edge.
    """
    cdf = [mp.mpf(0)] + list(inner_cdf) + [mp.mpf(1)]
    total = mp.mpf(0)
    for j in range(len(edges) - 1):
        at = edges[j + 1] if upper else edges[j]
        total += mp.mpf(at) * (cdf[j + 1] - cdf[j])
    return total


def gaussian_reference(sample: dict) -> float:
    mp.dps = 40
    shift = mp.mpf(sample["model"].radius) / mp.mpf(sample["scheme"].sigma)
    upper = sample["direction"] == "upper"
    if sample["kind"] == "mean":
        return float(_gaussian_shift(sample["mean"], shift if upper else -shift))
    # Worst CDF at an edge: for an upper bound the largest reachable mass
    # above it, P(s > t) -> Phi(Phi^-1(P(s > t)) + r / sigma).
    worst = []
    for value in sample["cdf"]:
        above = 1 - mp.mpf(value)
        moved = _gaussian_shift(float(above), shift if upper else -shift)
        worst.append(1 - moved)
    return float(_mean_from_cdf(sample["edges"], worst, upper))


def _outcome_masses(additions: int, deletions: int, p0: float, p1: float):
    """Noise-outcome probabilities on the flipped coordinates, per centre.

    The perturbed point adds ``additions`` one-bits (clean 0, perturbed 1)
    and deletes ``deletions`` (clean 1, perturbed 0); other coordinates
    have the same law around both centres and cancel.
    """
    clean, adv = [], []
    for bits in itertools.product((0, 1), repeat=additions + deletions):
        pc = pa = 1.0
        for j, bit in enumerate(bits):
            if j < additions:
                pc *= p0 if bit else 1.0 - p0
                pa *= (1.0 - p1) if bit else p1
            else:
                pc *= (1.0 - p1) if bit else p1
                pa *= p0 if bit else 1.0 - p0
        clean.append(pc)
        adv.append(pa)
    return np.array(clean), np.array(adv)


def _transfer_lp(budget: float, clean: np.ndarray, adv: np.ndarray, maximize: bool) -> float:
    sign = -1.0 if maximize else 1.0
    result = linprog(
        sign * adv, A_eq=clean[None, :], b_eq=[budget],
        bounds=[(0.0, 1.0)] * clean.size, method="highs",
    )
    if result.status != 0:
        raise ArithmeticError(f"transfer LP failed: {result.message}")
    return float(sign * result.fun)


def sparse_reference(sample: dict) -> float:
    model, scheme = sample["model"], sample["scheme"]
    clean, adv = _outcome_masses(model.additions, model.deletions, scheme.p0, scheme.p1)
    upper = sample["direction"] == "upper"
    if sample["kind"] == "mean":
        return _transfer_lp(sample["mean"], clean, adv, maximize=upper)
    # Worst CDF at an edge: the least (upper) or most (lower) mass at or
    # below it that the perturbed point can carry.
    worst = [_transfer_lp(float(c), clean, adv, maximize=not upper) for c in sample["cdf"]]
    mp.dps = 40
    return float(_mean_from_cdf(sample["edges"], [mp.mpf(w) for w in worst], upper))


def check_bound_samples(samples: list[dict]) -> dict[int, list[str]]:
    """Re-derive every sampled bound; failures keyed by operation index."""
    failures: dict[int, list[str]] = {}
    for sample in samples:
        scheme = type(sample["scheme"]).__name__
        if scheme == "GaussianNoise":
            want = gaussian_reference(sample)
        else:
            want = sparse_reference(sample)
        err = abs(want - sample["value"])
        if not err <= BOUND_TOLERANCE:
            failures.setdefault(sample["op"], []).append(
                f"{scheme} {sample['kind']} {sample['direction']} bound "
                f"{sample['value']!r} vs reference {want!r} (error {err:.2e})"
            )
    return failures


# ------------------------------------------------------------ cli outputs --


def tensor_means(path: Path, chunk_points: int = 100) -> np.ndarray:
    """Per-slice means of a packed score tensor, read in chunks."""
    with open(path, "rb") as handle:
        head = handle.read(18)
    if head[:4] != b"RCPT":
        raise ValueError(f"{path}: not a packed score tensor")
    n_points, n_classes, n_samples = np.frombuffer(head[6:18], dtype="<u4")
    data = np.memmap(path, dtype="<f4", mode="r", offset=18,
                     shape=(int(n_points), int(n_classes), int(n_samples)))
    means = np.empty((int(n_points), int(n_classes)))
    for start in range(0, int(n_points), chunk_points):
        block = np.asarray(data[start:start + chunk_points], dtype=float)
        means[start:start + chunk_points] = block.mean(axis=2)
    del data
    return means


def read_labels(path: Path) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return np.array([int(label) for _, label in rows], dtype=int)


def read_sets(path: Path, n_points: int) -> dict[str, list[set[int]]]:
    sets: dict[str, list[set[int]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for point, method, cls in reader:
            if method not in sets:
                sets[method] = [set() for _ in range(n_points)]
            sets[method][int(point)].add(int(cls))
    return sets


def coverage_floor(alpha: float, n_cal: int, n_test: int, n_runs: int = 1) -> float:
    """1 - alpha minus five standard deviations of the mean coverage.

    Coverage of split conformal sets given the calibration draw is
    Beta(n + 1 - l, l) with l = floor(alpha (n + 1)); a test batch adds
    binomial noise.  ``n_runs`` independent batches shrink the spread.
    """
    l = order_index(alpha, n_cal)
    a, b = n_cal + 1 - l, l
    mean = a / (a + b)
    var_beta = a * b / ((a + b) ** 2 * (a + b + 1))
    var = var_beta + (mean - var_beta - mean**2) / n_test
    return 1.0 - alpha - 5.0 * math.sqrt(var / n_runs)


def check_calibration(artifact_path: Path, cal_means: np.ndarray, labels: np.ndarray,
                      alpha: float, eta: float) -> list[str]:
    """Artifact thresholds against numpy recomputations and their order."""
    bad = []
    payload = json.loads(artifact_path.read_text())
    thresholds = payload["thresholds"]
    points = payload["points"]
    true_means = cal_means[np.arange(labels.size), labels]
    stored = np.array([p["mean"] for p in points])
    if stored.shape != true_means.shape or np.max(np.abs(stored - true_means)) > VALUE_TOLERANCE:
        bad.append("artifact means differ from the tensor's true-label slice means")
    want = kth_smallest(true_means, alpha)
    if abs(thresholds["vanilla"] - want) > VALUE_TOLERANCE:
        bad.append(f"vanilla threshold {thresholds['vanilla']!r}, numpy gives {want!r}")
    lower = np.array([p["lower_bound"] for p in points])
    if np.any(lower > stored + VALUE_TOLERANCE):
        bad.append("a certified lower bound exceeds its smooth mean")
    if thresholds["calibration-time"] != kth_smallest(lower, alpha):
        bad.append("calibration-time threshold is not the quantile of the lower bounds")
    if not thresholds["calibration-time"] <= thresholds["vanilla"]:
        bad.append("calibration-time threshold above the vanilla one")
    if eta > 0.0:
        corrected = np.array([p["corrected_lower_bound"] for p in points])
        if np.any(corrected > lower + VALUE_TOLERANCE):
            bad.append("a corrected lower bound is less conservative than the plain one")
        if thresholds["corrected"] != kth_smallest(corrected, alpha - eta):
            bad.append("corrected threshold is not the alpha - eta quantile")
        if not thresholds["corrected"] <= thresholds["calibration-time"]:
            bad.append("corrected threshold above the calibration-time one")
    return bad


def _matches(got: set[int], scores: np.ndarray, threshold: float) -> bool:
    clear = np.abs(scores - threshold) > TIE_TOLERANCE
    want = {int(c) for c in np.nonzero(clear & (scores >= threshold))[0]}
    return {c for c in got if clear[c]} == want


def check_prediction(out_dir: Path, artifact_path: Path, test_means: np.ndarray,
                     labels: np.ndarray, alpha: float, n_cal: int,
                     mode: str) -> list[str]:
    """Sets against numpy recomputations, nesting, and reported coverage."""
    bad = []
    thresholds = json.loads(artifact_path.read_text())["thresholds"]
    n_points = test_means.shape[0]
    sets = read_sets(out_dir / "sets.csv", n_points)
    metrics = json.loads((out_dir / "metrics.json").read_text())["methods"]
    vanilla = sets.get("vanilla", [set() for _ in range(n_points)])
    robust = sets.get("robust", [set() for _ in range(n_points)])
    wrong = sum(
        not _matches(vanilla[p], test_means[p], thresholds["vanilla"])
        for p in range(n_points)
    )
    if wrong:
        bad.append(f"{wrong} vanilla sets differ from the numpy recomputation")
    if mode == "calibration-time":
        wrong = sum(
            not _matches(robust[p], test_means[p], thresholds["calibration-time"])
            for p in range(n_points)
        )
        if wrong:
            bad.append(f"{wrong} calibration-time sets differ from the numpy recomputation")
    for method, method_sets in sets.items():
        if method == "vanilla":
            continue
        outside = sum(not vanilla[p] <= method_sets[p] for p in range(n_points))
        if outside:
            bad.append(f"{outside} vanilla sets not inside the {method} sets")
    for method, method_sets in sets.items():
        covered = np.mean([labels[p] in method_sets[p] for p in range(n_points)])
        if abs(metrics[method]["coverage"] - covered) > VALUE_TOLERANCE:
            bad.append(f"{method} coverage {metrics[method]['coverage']} != {covered}")
    sizes = {len(s) for s in vanilla}
    if len(sizes) < 2:
        bad.append(f"vanilla sets all have size {sizes}; the check would be vacuous")
    floor = coverage_floor(alpha, n_cal, n_points)
    if metrics["vanilla"]["coverage"] < floor:
        bad.append(f"vanilla coverage {metrics['vanilla']['coverage']} below {floor:.4f}")
    return bad


def check_witness(witness_path: Path, scores: np.ndarray, lower: np.ndarray,
                  budget: int, alpha: float) -> list[str]:
    """Replay the poisoning witness and show no smaller value is reachable."""
    bad = []
    payload = json.loads(witness_path.read_text())
    threshold = payload["threshold"]
    indices = payload["witness"]["indices"]
    values = payload["witness"]["values"]
    if len(indices) > budget or len(set(indices)) != len(indices):
        bad.append(f"witness alters {len(indices)} points at budget {budget}")
    if any(v != lower[i] for i, v in zip(indices, values)):
        bad.append("a witness value is not its point's lower bound")
    replayed = scores.copy()
    replayed[indices] = lower[indices]
    if kth_smallest(replayed, alpha) != threshold:
        bad.append("replaying the witness does not give the certified threshold")
    # Reaching a value v needs k points at or below it: those already
    # there plus up to ``budget`` whose lower bound is at or below v.
    k = order_index(alpha, scores.size)
    candidates = np.unique(np.concatenate([scores, lower]))
    below = candidates[candidates < threshold]
    if below.size:
        v = below[-1]
        reach = np.sum(scores <= v) + min(budget, int(np.sum((lower <= v) & (scores > v))))
        if reach >= k:
            bad.append(f"value {v!r} below the certified threshold is reachable")
    return bad


def read_feature_bounds(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1].copy(), data[:, 2].copy()
