"""Synthetic tasks, attack simulation, and the desk-scale experiment runner.

A trial samples fresh calibration and test splits from a fixed
closed-form task, runs one pipeline (plain conformal, evasion defenses,
poisoning defenses, or the finite-sample corrected variants), and
reports per-method coverage and set sizes.  ``run_experiment`` fans
trials out over seeded substreams (optionally across processes), writes
``trials.jsonl``, ``aggregate.csv``, and ``plotdata/*.csv``, and keeps
going when an individual trial fails.

Attacks here are best-effort stressors: certificates hold against any
perturbation in the threat model, the attacks only witness how far the
unprotected pipeline degrades.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .attacks import evade, poison_features_attack, poison_labels_attack
from .bounds import BinaryBall, L2Ball, ThreatModel, bound_batch
from .errors import ConfigurationError
from .evasion import (
    EvasionConfig,
    calibrate_smooth,
    class_distributions,
    predict,
    vanilla_worst_case_coverage,
)
from .formats import _write_table, atomic_write_text
from .poisoning import (
    corrected_feature_poison_threshold,
    feature_poison_threshold,
    label_poison_threshold,
)
from .scores import conformal_quantile, evaluate_sets
from .smoothing import BinGrid, GaussianNoise, SparseFlipNoise, subseed, substream
from .tasks import make_binary_task, make_gaussian_mixture, oracle_for

__all__ = [
    "TaskSpec",
    "ExperimentConfig",
    "TrialResult",
    "TrialFailure",
    "ExperimentSummary",
    "generate_task",
    "scheme_for",
    "models_for",
    "marginal_trial",
    "evasion_trial",
    "label_poison_trial",
    "feature_poison_trial",
    "corrected_trial",
    "run_experiment",
    "worker_count",
]

EXPERIMENT_KINDS = ("marginal", "evasion", "label-poison", "feature-poison", "corrected")


@dataclass(frozen=True)
class TaskSpec:
    """Recipe for a synthetic task and the size of its per-trial splits.

    ``separation`` and ``noise`` shape the gaussian-mixture task,
    ``strength`` the binary-linear one; the unused fields are ignored.
    The classifier is fixed by ``task_seed`` while data splits are
    resampled per trial, so trials are exchangeable draws from one task.
    """

    kind: str = "gaussian-mixture"
    n_classes: int = 3
    dim: int = 4
    separation: float = 2.0
    noise: float = 1.0
    strength: float = 0.25
    task_seed: int = 7
    n_cal: int = 100
    n_test: int = 20

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian-mixture", "binary-linear"):
            raise ConfigurationError(f"unknown task kind {self.kind!r}")
        if self.n_cal < 10 or self.n_test < 1:
            raise ConfigurationError("need n_cal >= 10 and n_test >= 1")
        try:  # the task makers hold the supported sizes and strengths
            build_task(self)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc


def build_task(spec: TaskSpec):
    """Closed-form classifier for a spec (no training involved)."""
    if spec.kind == "gaussian-mixture":
        return make_gaussian_mixture(
            n_classes=spec.n_classes,
            dim=spec.dim,
            separation=spec.separation,
            noise=spec.noise,
            seed=spec.task_seed,
        )
    return make_binary_task(
        n_classes=spec.n_classes,
        dim=spec.dim,
        strength=spec.strength,
        seed=spec.task_seed,
    )


def generate_task(spec: TaskSpec, seed: int):
    """Task plus fresh, exchangeable calibration and test splits."""
    task = build_task(spec)
    x_cal, y_cal = task.sample(spec.n_cal, substream(seed, "cal-data"))
    x_test, y_test = task.sample(spec.n_test, substream(seed, "test-data"))
    return task, (x_cal, y_cal), (x_test, y_test)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, independent of output paths."""

    kind: str
    task: TaskSpec = field(default_factory=TaskSpec)
    alpha: float = 0.1
    score_kind: str = "tps"
    sigma: float = 0.25
    p0: float = 0.1
    p1: float = 0.1
    radii: tuple[float, ...] = (0.125,)
    flips: tuple[tuple[int, int], ...] = ((2, 2),)
    budgets: tuple[int, ...] = (0, 1, 2)
    alphas: tuple[float, ...] = ()
    bound_kind: str = "cdf"
    eta: float = 0.01
    n_samples: int = 10_000
    attack_samples: int = 256
    grid_edges: int = 51
    n_trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")
        if self.kind == "corrected" and not 0.0 < self.eta < self.alpha:
            raise ConfigurationError("the corrected experiment needs 0 < eta < alpha")
        if self.score_kind not in ("tps", "aps"):
            raise ConfigurationError(f"unknown score kind {self.score_kind!r}")
        if self.n_trials < 1:
            raise ConfigurationError("need at least one trial")
        if self.kind == "marginal" and not all(0.0 < a < 1.0 for a in self.alphas):
            raise ConfigurationError("alphas must lie in (0, 1)")
        poisoning = self.kind in ("label-poison", "feature-poison", "corrected")
        if poisoning and any(k < 0 for k in self.budgets):
            raise ConfigurationError("poisoning budgets must be nonnegative")
        if self.kind in ("evasion", "feature-poison") and self.attack_samples < 1:
            raise ConfigurationError("attack_samples must be at least 1")
        if self.kind in ("evasion", "feature-poison", "corrected"):
            # Refuse a scheme, ball, grid, bound kind or sample count before any trial runs.
            try:
                if not models_for(self):
                    raise ConfigurationError("need at least one threat model (radii or flips)")
                _evasion_config(self, bound_kind=self.bound_kind)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc


def scheme_for(config: ExperimentConfig):
    """Smoothing scheme matched to the task's feature space."""
    if config.task.kind == "gaussian-mixture":
        return GaussianNoise(sigma=config.sigma)
    return SparseFlipNoise(p0=config.p0, p1=config.p1)


def models_for(config: ExperimentConfig) -> list[ThreatModel]:
    """Threat models swept by the run, matched to the task."""
    if config.task.kind == "gaussian-mixture":
        return [L2Ball(radius=r) for r in config.radii]
    return [BinaryBall(additions=a, deletions=d) for a, d in config.flips]


def _radius_value(model: ThreatModel) -> float:
    if isinstance(model, L2Ball):
        return float(model.radius)
    return float(model.additions + model.deletions)


def _metrics(masks, labels) -> dict[str, float]:
    report = evaluate_sets(masks, labels)
    return {
        "coverage": report.empirical_coverage,
        "size": report.average_set_size,
        "singleton": report.singleton_hit_ratio,
    }


def _evasion_config(config: ExperimentConfig, **fields) -> EvasionConfig:
    """Smoothing settings of a trial against its first threat model."""
    return EvasionConfig(
        scheme=scheme_for(config), model=models_for(config)[0],
        n_samples=config.n_samples, grid=BinGrid.uniform(config.grid_edges), **fields,
    )


@dataclass
class TrialResult:
    """Per-trial metrics rows plus the thresholds that produced them.

    ``runtime`` stays in memory only; serialized records exclude it so
    result files are byte-identical across re-runs.
    """

    trial: int
    seed: int
    rows: list[dict]
    thresholds: dict[str, float]
    runtime: float

    def __post_init__(self) -> None:
        for row in self.rows:
            cov = row.get("coverage")
            if cov is not None and not 0.0 <= cov <= 1.0:
                raise ValueError(f"coverage outside [0, 1] in row {row!r}")
            beta = row.get("beta")
            if beta is not None and not 0.0 <= beta <= 1.0:
                raise ValueError(f"beta outside [0, 1] in row {row!r}")

    def record(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "thresholds": self.thresholds,
            "rows": self.rows,
        }


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    error: str

    def record(self) -> dict:
        return {"trial": self.trial, "error": self.error}


# ------------------------------------------------------------------- trials --


def marginal_trial(config: ExperimentConfig, index: int) -> TrialResult:
    """Plain split conformal on fresh data, swept over miscoverage levels."""
    t0 = time.perf_counter()
    ts = subseed(config.seed, "trial", index)
    task, (x_cal, y_cal), (x_test, y_test) = generate_task(config.task, ts)
    plain = oracle_for(task, config.score_kind)
    cal_matrix = plain(x_cal, substream(ts, "plain", "cal"))
    test_matrix = plain(x_test, substream(ts, "plain", "test"))
    cal_scores = cal_matrix[np.arange(len(y_cal)), y_cal]
    alphas = config.alphas or (config.alpha,)
    rows = []
    thresholds = {}
    for alpha in alphas:
        q = conformal_quantile(cal_scores, alpha)
        rows.append(
            {"alpha": alpha, "method": "vanilla", **_metrics(test_matrix >= q, y_test)}
        )
        thresholds[f"alpha={alpha:g}"] = q
    return TrialResult(index, ts, rows, thresholds, time.perf_counter() - t0)


def evasion_trial(config: ExperimentConfig, index: int) -> TrialResult:
    """Evasion pipeline: one smooth calibration, attacks per threat radius.

    For each radius the attacked test points are scored three ways with
    shared Monte-Carlo draws: plain smooth means (vanilla), certified
    upper bounds from the mean-only bound, and from the binned-CDF
    bound.  Each certified method also reports its worst-case coverage
    floor ``beta`` for the vanilla set at that radius.
    """
    t0 = time.perf_counter()
    ts = subseed(config.seed, "trial", index)
    task, (x_cal, y_cal), (x_test, y_test) = generate_task(config.task, ts)
    oracle = oracle_for(task, config.score_kind)
    base = _evasion_config(config, mode="test-time", bound_kind="mean")
    calibration = calibrate_smooth(oracle, x_cal, y_cal, config.alpha, base, seed=ts)
    threshold = calibration.thresholds["vanilla"]
    rows = []
    thresholds = {"clean": threshold}

    models = models_for(config)
    versions = [x_test]
    for model in models:
        r = _radius_value(model)
        versions.append([
            evade(
                oracle, x_test[i], int(y_test[i]), model, base.scheme,
                substream(ts, "attack", f"r={r:g}", i), config.attack_samples, maximize=False,
            )
            for i in range(len(y_test))
        ])
    # Each test point's clean and attacked versions share its one noise block.
    per_version = class_distributions(oracle, np.stack(versions, axis=1), base, ts)

    # Calibration-time mode needs no bounds; only its vanilla sets are used.
    clean_sets = predict(per_version[:, 0], calibration, replace(base, mode="calibration-time"))
    rows.append(
        {"radius": 0.0, "method": "vanilla", **_metrics(clean_sets["vanilla"], y_test)}
    )

    for j, model in enumerate(models, start=1):
        r = _radius_value(model)
        per_test = per_version[:, j]
        for kind in ("mean", "cdf"):
            cfg = replace(base, model=model, bound_kind=kind)
            sets = predict(per_test, calibration, cfg)
            # calibrate_smooth already bounded the calibration under the base config.
            lower = calibration.lower_bounds if cfg == base else bound_batch(
                calibration.distributions, model, cfg.scheme, "lower", kind
            )
            if kind == "mean":
                rows.append(
                    {"radius": r, "method": "vanilla", **_metrics(sets["vanilla"], y_test)}
                )
            rows.append(
                {
                    "radius": r, "method": f"{kind}-bound",
                    **_metrics(sets["robust"], y_test),
                    "beta": vanilla_worst_case_coverage(threshold, lower),
                }
            )
    return TrialResult(index, ts, rows, thresholds, time.perf_counter() - t0)


def label_poison_trial(config: ExperimentConfig, index: int) -> TrialResult:
    """Label flipping against plain conformal, swept over budgets.

    The attacker flips the labels the maximizing rank search picks; the
    defender sees the poisoned labels and calibrates with the
    minimizing search at the same budget.
    """
    t0 = time.perf_counter()
    ts = subseed(config.seed, "trial", index)
    task, (x_cal, y_cal), (x_test, y_test) = generate_task(config.task, ts)
    plain = oracle_for(task, config.score_kind)
    cal_matrix = plain(x_cal, substream(ts, "plain", "cal"))
    test_matrix = plain(x_test, substream(ts, "plain", "test"))
    rows = []
    thresholds = {}
    n = len(y_cal)
    for k in config.budgets:
        poisoned, _ = poison_labels_attack(cal_matrix, y_cal, k, config.alpha)
        observed = cal_matrix[np.arange(n), poisoned]
        q_vanilla = conformal_quantile(observed, config.alpha)
        conservative = label_poison_threshold(cal_matrix, poisoned, k, config.alpha)
        rows.append(
            {"budget": k, "method": "vanilla", **_metrics(test_matrix >= q_vanilla, y_test)}
        )
        rows.append(
            {
                "budget": k, "method": "robust",
                **_metrics(test_matrix >= conservative.threshold, y_test),
            }
        )
        thresholds[f"vanilla-k{k}"] = q_vanilla
        thresholds[f"robust-k{k}"] = conservative.threshold
    return TrialResult(index, ts, rows, thresholds, time.perf_counter() - t0)


def feature_poison_trial(config: ExperimentConfig, index: int) -> TrialResult:
    """Feature poisoning against the smoothed pipeline, swept over budgets.

    The attacker perturbs its rank-search pick of calibration points
    inside the threat ball; the defender re-estimates on what it
    received and deflates with certified lower bounds at the reversed
    ball before running the minimizing search.
    """
    t0 = time.perf_counter()
    ts = subseed(config.seed, "trial", index)
    task, (x_cal, y_cal), (x_test, y_test) = generate_task(config.task, ts)
    oracle = oracle_for(task, config.score_kind)
    cfg = _evasion_config(config, mode="calibration-time", bound_kind=config.bound_kind)
    # The defender's calibrations hold lower bounds over the reversed ball, the
    # ball around a received point that holds its clean point.
    defender = replace(cfg, model=cfg.model.reversed())
    calibration = calibrate_smooth(oracle, x_cal, y_cal, config.alpha, defender, seed=ts)
    per_test = class_distributions(oracle, x_test, cfg, ts)
    test_means = per_test.mean
    rows = []
    thresholds = {}
    for k in config.budgets:
        if k == 0:
            calibration_k = calibration
        else:
            received, _ = poison_features_attack(
                oracle, x_cal, y_cal, calibration, k, config.alpha, cfg,
                seed=subseed(ts, "attack", k), n_samples=config.attack_samples,
            )
            calibration_k = calibrate_smooth(
                oracle, received, y_cal, config.alpha, defender,
                seed=subseed(ts, "defender", k),
            )
        conservative = feature_poison_threshold(
            calibration_k.smooth_means, calibration_k.lower_bounds, k, config.alpha
        )
        vanilla = calibration_k.thresholds["vanilla"]
        rows.append(
            {"budget": k, "method": "vanilla", **_metrics(test_means >= vanilla, y_test)}
        )
        rows.append(
            {
                "budget": k, "method": "robust",
                **_metrics(test_means >= conservative.threshold, y_test),
            }
        )
        thresholds[f"vanilla-k{k}"] = vanilla
        thresholds[f"robust-k{k}"] = conservative.threshold
    return TrialResult(index, ts, rows, thresholds, time.perf_counter() - t0)


def corrected_trial(config: ExperimentConfig, index: int) -> TrialResult:
    """Finite-sample corrected pipelines on clean data.

    Covers both corrected procedures: calibration-time sets whose
    Monte-Carlo error is budgeted through a ledger, and conservative
    poisoning thresholds computed from corrected lower bounds.  The
    uncorrected counterparts run on the same draws so per-trial
    threshold dominance can be checked exactly.
    """
    t0 = time.perf_counter()
    ts = subseed(config.seed, "trial", index)
    task, (x_cal, y_cal), (x_test, y_test) = generate_task(config.task, ts)
    oracle = oracle_for(task, config.score_kind)
    cfg = _evasion_config(
        config, mode="calibration-time", bound_kind=config.bound_kind, eta=config.eta
    )
    calibration = calibrate_smooth(oracle, x_cal, y_cal, config.alpha, cfg, seed=ts)
    per_test = class_distributions(oracle, x_test, cfg, ts)
    test_means = per_test.mean
    sets = predict(per_test, calibration, cfg)
    rows = [
        {"method": "corrected-sets", **_metrics(sets["corrected"], y_test)},
        {"method": "uncorrected-sets", **_metrics(sets["robust"], y_test)},
    ]
    thresholds = {
        "corrected": calibration.thresholds["corrected"],
        "uncorrected": calibration.thresholds["calibration-time"],
    }

    lower_plain = np.minimum(
        bound_batch(
            calibration.distributions, cfg.model.reversed(), cfg.scheme, "lower", cfg.bound_kind
        ),
        calibration.smooth_means,
    )
    for k in config.budgets:
        conservative, _ = corrected_feature_poison_threshold(
            calibration.distributions, cfg.model, cfg.scheme, k, config.alpha, config.eta,
            bound_kind=config.bound_kind,
        )
        plain = feature_poison_threshold(calibration.smooth_means, lower_plain, k, config.alpha)
        rows.append(
            {
                "budget": k, "method": "corrected-threshold",
                **_metrics(test_means >= conservative.threshold, y_test),
            }
        )
        thresholds[f"corrected-k{k}"] = conservative.threshold
        thresholds[f"uncorrected-k{k}"] = plain.threshold
    return TrialResult(index, ts, rows, thresholds, time.perf_counter() - t0)


_TRIAL_FUNCTIONS: dict[str, Callable[[ExperimentConfig, int], TrialResult]] = {
    "marginal": marginal_trial,
    "evasion": evasion_trial,
    "label-poison": label_poison_trial,
    "feature-poison": feature_poison_trial,
    "corrected": corrected_trial,
}


# ------------------------------------------------------------------- runner --


def worker_count() -> int:
    """Worker processes requested via the ROBUSTCP_WORKERS variable."""
    raw = os.environ.get("ROBUSTCP_WORKERS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise ConfigurationError(f"ROBUSTCP_WORKERS must be an integer, got {raw!r}")
    if count < 1:
        raise ConfigurationError("ROBUSTCP_WORKERS must be at least 1")
    return count


def _run_one(config: ExperimentConfig, index: int) -> TrialResult | TrialFailure:
    try:
        return _TRIAL_FUNCTIONS[config.kind](config, index)
    except Exception as exc:  # noqa: BLE001 - partial-failure policy
        return TrialFailure(index, f"{type(exc).__name__}: {exc}")


@dataclass
class ExperimentSummary:
    results: list[TrialResult]
    failures: list[TrialFailure]
    aggregate: list[dict]


_COORDINATES = ("radius", "alpha", "budget")


def _group_key(row: dict):
    for name in _COORDINATES:
        if name in row:
            return (name, row[name], row["method"])
    return ("", "", row["method"])


def _sort_key(key: tuple) -> tuple:
    name, value, method = key
    return (name, float(value) if value != "" else -1.0, method)


def aggregate_rows(results: Sequence[TrialResult]) -> list[dict]:
    """Mean and standard deviation of every metric per (coordinate, method)."""
    groups: dict[tuple, list[dict]] = {}
    for result in results:
        for row in result.rows:
            groups.setdefault(_group_key(row), []).append(row)
    out = []
    for (name, value, method), rows in sorted(groups.items(), key=lambda kv: _sort_key(kv[0])):
        entry: dict[str, object] = {
            "x_name": name,
            "x_value": value,
            "method": method,
            "trials": len(rows),
        }
        for metric in ("coverage", "size", "singleton", "beta"):
            values = [row[metric] for row in rows if row.get(metric) is not None]
            if values:
                entry[f"{metric}_mean"] = float(np.mean(values))
                entry[f"{metric}_std"] = float(np.std(values))
        out.append(entry)
    return out


_AGGREGATE_COLUMNS = [
    "x_name", "x_value", "method", "trials",
    "coverage_mean", "coverage_std", "size_mean", "size_std",
    "singleton_mean", "singleton_std", "beta_mean", "beta_std",
]


def _write_rows(path: Path, columns: list[str], rows: list[dict]) -> None:
    """One CSV row per dict; object columns keep ints as ints, a missing key is empty."""
    _write_table(
        path, columns, [np.array([row.get(c, "") for row in rows], dtype=object) for c in columns]
    )


def _plot_rows(aggregate: list[dict], coordinate: str, metric: str) -> list[dict]:
    rows = []
    for entry in aggregate:
        if entry["x_name"] == coordinate and f"{metric}_mean" in entry:
            rows.append(
                {
                    coordinate: entry["x_value"],
                    "method": entry["method"],
                    metric: entry[f"{metric}_mean"],
                }
            )
    return sorted(rows, key=lambda r: (r[coordinate], r["method"]))


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> ExperimentSummary:
    """Run all trials, write result files, and return the summary.

    A failing trial is recorded in ``trials.jsonl`` with its error and
    excluded from aggregation; the run itself keeps going.
    """
    out = Path(out_dir)
    plot_dir = out / "plotdata"
    plot_dir.mkdir(parents=True, exist_ok=True)
    workers = worker_count()
    indices = range(config.n_trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_run_one, config), indices))
    else:
        outcomes = [_run_one(config, i) for i in indices]

    results = [o for o in outcomes if isinstance(o, TrialResult)]
    failures = [o for o in outcomes if isinstance(o, TrialFailure)]
    lines = [json.dumps(o.record(), sort_keys=True) for o in outcomes]
    atomic_write_text(out / "trials.jsonl", "\n".join(lines) + "\n")

    aggregate = aggregate_rows(results)
    _write_rows(out / "aggregate.csv", _AGGREGATE_COLUMNS, aggregate)

    plots = {
        "coverage_vs_radius.csv": ("radius", "coverage"),
        "size_vs_radius.csv": ("radius", "size"),
        "size_vs_alpha.csv": ("alpha", "size"),
        "coverage_vs_budget.csv": ("budget", "coverage"),
        "size_vs_budget.csv": ("budget", "size"),
    }
    for filename, (coordinate, metric) in plots.items():
        rows = _plot_rows(aggregate, coordinate, metric)
        _write_rows(plot_dir / filename, [coordinate, "method", metric], rows)
    return ExperimentSummary(results=results, failures=failures, aggregate=aggregate)
