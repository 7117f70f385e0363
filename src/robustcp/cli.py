"""Command-line surface: calibrate, predict, certify-poisoning, simulate.

The CLI reads score tensors produced by any ML stack, so smoothing has
already happened upstream; configuration arrives as a flat ``key =
value`` file plus ``--set`` overrides, and every run writes its fully
resolved configuration next to its outputs.

Exit codes: 0 success, 2 malformed input, 3 invariant or assertion
failure, 4 configuration conflict.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .bounds import BinaryBall, L2Ball
from .errors import ConfigurationError, InputError
from .evasion import EvasionConfig, calibrate, predict
from .experiments import ExperimentConfig, TaskSpec, run_experiment
from . import formats
from .poisoning import (
    brute_force_feature_threshold,
    brute_force_label_threshold,
    feature_poison_threshold,
    label_poison_threshold,
    replay_feature_witness,
    replay_label_witness,
)
from .scores import evaluate_sets
from .smoothing import BinGrid, GaussianNoise, SparseFlipNoise, summarize_blocks

__all__ = ["main", "CONFIG_SCHEMA"]

_F = formats.ConfigField

# One flat schema shared by all commands; each command reads the keys it
# needs.  Types and defaults are documented in docs/formats.md.
CONFIG_SCHEMA: dict[str, formats.ConfigField] = {
    "alpha": _F("float", 0.1),
    "eta": _F("float", 0.0),
    "scheme": _F("str", "gaussian"),
    "sigma": _F("float", 0.25),
    "p0": _F("float", 0.1),
    "p1": _F("float", 0.1),
    "radius": _F("float", 0.0),
    "additions": _F("int", 0),
    "deletions": _F("int", 0),
    "bound_kind": _F("str", "cdf"),
    "mode": _F("str", "test-time"),
    "grid_edges": _F("int", 51),
    "seed": _F("int", 0),
    "poison_kind": _F("str", "feature"),
    "poison_budget": _F("int", 0),
    "experiment": _F("str", "evasion"),
    "task": _F("str", "gaussian-mixture"),
    "n_classes": _F("int", 3),
    "dim": _F("int", 4),
    "separation": _F("float", 2.0),
    "noise": _F("float", 1.0),
    "strength": _F("float", 0.25),
    "task_seed": _F("int", 7),
    "n_cal": _F("int", 100),
    "n_test": _F("int", 20),
    "n_trials": _F("int", 100),
    "n_samples": _F("int", 10_000),
    "attack_samples": _F("int", 256),
    "score_kind": _F("str", "tps"),
    "radii": _F("str", "0.125"),
    "flips": _F("str", "2:2"),
    "budgets": _F("str", "0,1,2"),
    "alphas": _F("str", ""),
}


# What a calibration artifact certifies: predict takes these keys from the
# artifact's config echo and refuses settings that contradict them.
_ARTIFACT_KEYS = (
    "scheme", "sigma", "p0", "p1", "radius", "additions", "deletions",
    "bound_kind", "alpha", "eta", "grid_edges",
)


def _load_config(args, artifact_config=None) -> dict:
    text = None
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise InputError(f"{path}: no such config file")
        text = path.read_text()
    inherited = {
        key: CONFIG_SCHEMA[key].parse(key, str(value))
        for key, value in (artifact_config or {}).items() if key in _ARTIFACT_KEYS
    }
    cfg = formats.resolve_config(CONFIG_SCHEMA, text, args.set or (), base=inherited)
    conflicts = [f"{key}={value!r}" for key, value in inherited.items() if cfg[key] != value]
    if conflicts:
        raise ConfigurationError(f"the calibration artifact fixes {', '.join(conflicts)}")
    return cfg


def _validate_common(cfg: dict) -> None:
    if not 0.0 < cfg["alpha"] < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if cfg["eta"] < 0.0:
        raise ConfigurationError("eta must be nonnegative")
    if cfg["eta"] > 0.0 and cfg["eta"] >= cfg["alpha"]:
        raise ConfigurationError("eta must be smaller than alpha when correction is on")
    if cfg["bound_kind"] not in ("mean", "cdf"):
        raise ConfigurationError(f"unknown bound_kind {cfg['bound_kind']!r}")
    if cfg["mode"] not in ("test-time", "calibration-time"):
        raise ConfigurationError(f"unknown mode {cfg['mode']!r}")


def _evasion_config(cfg: dict) -> EvasionConfig:
    """Cross-validated smoothing scheme and threat model pair, with bound settings.

    A value the scheme, ball or grid refuses (``sigma=0``, ``radius=-1``,
    ``grid_edges=1``, ...) is a configuration error.
    """
    try:
        if cfg["scheme"] == "gaussian":
            if cfg["additions"] or cfg["deletions"]:
                raise ConfigurationError("gaussian smoothing pairs with an L2 ball, not flips")
            scheme, model = GaussianNoise(sigma=cfg["sigma"]), L2Ball(radius=cfg["radius"])
        elif cfg["scheme"] == "sparse":
            if cfg["radius"]:
                raise ConfigurationError(
                    "sparse smoothing pairs with flip budgets, not an L2 radius"
                )
            scheme = SparseFlipNoise(p0=cfg["p0"], p1=cfg["p1"])
            model = BinaryBall(additions=cfg["additions"], deletions=cfg["deletions"])
        else:
            raise ConfigurationError(f"unknown scheme {cfg['scheme']!r}")
        grid = BinGrid.uniform(cfg["grid_edges"])
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    return EvasionConfig(
        scheme=scheme, model=model, mode=cfg["mode"], bound_kind=cfg["bound_kind"],
        grid=grid, eta=cfg["eta"],
    )


def _write_resolved(out_dir: Path, cfg: dict) -> None:
    formats.atomic_write_text(out_dir / "resolved-config.cfg", formats.render_config(cfg))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------- commands --


def _check_samples(path: str, shape: tuple[int, int, int]) -> None:
    if shape[2] < 2:
        raise InputError(f"{path}: need at least 2 samples per (point, class) entry")


def _check_labels(labels: np.ndarray, shape: tuple[int, ...]) -> None:
    if labels.size != shape[0]:
        raise InputError("scores and labels disagree on the number of points")
    if labels.min() < 0 or labels.max() >= shape[1]:
        raise InputError("labels must index classes of the scores")


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    _validate_common(cfg)
    config = _evasion_config(cfg)
    out = _out_dir(args)
    shape, blocks = formats.read_score_blocks(args.scores)
    labels = formats.read_labels_csv(args.labels)
    if shape[0] == 0:
        raise InputError("calibration requires at least one point")
    _check_samples(args.scores, shape)
    _check_labels(labels, shape)

    calibration = calibrate(summarize_blocks(blocks, config.grid, labels), cfg["alpha"], config)
    formats.write_calibration_artifact(out / "calibration.json", calibration, cfg)
    _write_resolved(out, cfg)
    print(f"calibrated {labels.size} points; thresholds: " + ", ".join(
        f"{k}={v:.6g}" for k, v in sorted(calibration.thresholds.items())
    ))
    return 0


def cmd_predict(args) -> int:
    calibration, artifact_config = formats.read_calibration_artifact(args.artifact)
    thresholds = calibration.thresholds
    cfg = _load_config(args, artifact_config)
    _validate_common(cfg)
    config = _evasion_config(cfg)
    # The stored thresholds must be the quantiles of the stored columns.
    derived = calibration.quantiles(cfg["alpha"], cfg["eta"])
    if derived.keys() != thresholds.keys():
        raise InputError(
            f"{args.artifact}: thresholds name {sorted(thresholds)}, not {sorted(derived)}"
        )
    if derived != thresholds:
        raise ValueError(
            f"artifact thresholds {thresholds} do not match its points, which give {derived}"
        )
    out = _out_dir(args)
    shape, blocks = formats.read_score_blocks(args.scores)
    labels = formats.read_labels_csv(args.labels) if args.labels else None

    if shape[0] == 0:
        formats.write_sets_csv(out / "sets.csv", {})
        formats.write_metrics_json(
            out / "metrics.json",
            {"format": "robustcp-metrics", "version": 1, "methods": {},
             "thresholds": thresholds},
        )
        _write_resolved(out, cfg)
        print("no test points; wrote empty outputs")
        return 0
    _check_samples(args.scores, shape)
    if labels is not None:
        _check_labels(labels, shape)

    summaries = summarize_blocks(blocks, calibration.distributions.grid)
    named = predict(summaries, calibration, config)

    formats.write_sets_csv(out / "sets.csv", named)
    methods = {}
    for name, masks in named.items():
        sizes = masks.sum(axis=1)
        entry: dict[str, object] = {
            "n_points": len(masks),
            "average_size": float(np.mean(sizes)),
            "histogram": {str(k): int(v) for k, v in
                          zip(*np.unique(sizes, return_counts=True))},
        }
        if labels is not None:
            report = evaluate_sets(masks, labels)
            entry["coverage"] = report.empirical_coverage
            entry["singleton_hit_ratio"] = report.singleton_hit_ratio
        methods[name] = entry
    formats.write_metrics_json(
        out / "metrics.json",
        {"format": "robustcp-metrics", "version": 1, "methods": methods,
         "thresholds": thresholds},
    )
    _write_resolved(out, cfg)
    print(f"predicted {shape[0]} points with methods: " + ", ".join(sorted(named)))
    return 0


def cmd_certify_poisoning(args) -> int:
    cfg = _load_config(args)
    _validate_common(cfg)
    out = _out_dir(args)
    alpha, budget, kind = cfg["alpha"], cfg["poison_budget"], cfg["poison_kind"]
    if budget < 0:
        raise ConfigurationError("poison_budget must be nonnegative")
    if kind == "feature":
        scores, lower = formats.read_feature_bounds_csv(args.input)
        n, oracle_limit = scores.size, None if scores.size <= 12 else "at most 12 points"
        result = feature_poison_threshold(scores, lower, budget, alpha)
        replayed = replay_feature_witness(scores, result.witness, alpha)
        oracle = partial(brute_force_feature_threshold, scores, lower, budget, alpha)
    elif kind == "label":
        if not args.labels:
            raise InputError("label poisoning needs --labels")
        matrix = formats.read_score_matrix_csv(args.input)
        labels = formats.read_labels_csv(args.labels)
        _check_labels(labels, matrix.shape)
        n = matrix.shape[0]
        small = n <= 12 and matrix.shape[1] <= 6
        oracle_limit = None if small else "at most 12 points and 6 classes"
        result = label_poison_threshold(matrix, labels, budget, alpha)
        replayed = replay_label_witness(matrix, labels, result.witness, alpha)
        oracle = partial(brute_force_label_threshold, matrix, labels, budget, alpha)
    else:
        raise ConfigurationError(f"unknown poison_kind {kind!r}")
    # The threshold must replay from its witness and, on request, match
    # the exhaustive oracle exactly.
    found = {"witness replay": replayed}
    if args.check_oracle:
        if oracle_limit is not None:
            raise ConfigurationError(f"--check-oracle supports {oracle_limit}")
        found["brute-force oracle"] = oracle()
    wrong = [
        f"{name} gives {value!r}" for name, value in found.items() if value != result.threshold
    ]
    if wrong:
        raise AssertionError(f"threshold {result.threshold!r}, but {'; '.join(wrong)}")
    formats.write_witness_json(
        out / "witness.json", kind, alpha, budget, n, result.threshold, result.rank,
        result.witness.indices, values=result.witness.values, labels=result.witness.labels,
    )
    _write_resolved(out, cfg)
    print(
        f"certified {kind} poisoning for {n} points at budget {budget}: "
        f"threshold {result.threshold:.6g} (rank {result.rank})"
    )
    return 0


def _flip_budget(part: str) -> tuple[int, int]:
    pieces = part.split(":")
    if len(pieces) != 2:
        raise ValueError("entries look like additions:deletions")
    return int(pieces[0]), int(pieces[1])


def _parse_list(cfg: dict, key: str, parse) -> tuple:
    """A comma-separated config value, item by item; a bad item is malformed input."""
    try:
        return tuple(parse(part.strip()) for part in cfg[key].split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"config key {key!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    _validate_common(cfg)
    spec = TaskSpec(
        kind=cfg["task"],
        n_classes=cfg["n_classes"],
        dim=cfg["dim"],
        separation=cfg["separation"],
        noise=cfg["noise"],
        strength=cfg["strength"],
        task_seed=cfg["task_seed"],
        n_cal=cfg["n_cal"],
        n_test=cfg["n_test"],
    )
    experiment = ExperimentConfig(
        kind=cfg["experiment"],
        task=spec,
        alpha=cfg["alpha"],
        score_kind=cfg["score_kind"],
        sigma=cfg["sigma"],
        p0=cfg["p0"],
        p1=cfg["p1"],
        radii=_parse_list(cfg, "radii", float),
        flips=_parse_list(cfg, "flips", _flip_budget),
        budgets=_parse_list(cfg, "budgets", int),
        alphas=_parse_list(cfg, "alphas", float),
        bound_kind=cfg["bound_kind"],
        eta=cfg["eta"],
        n_samples=cfg["n_samples"],
        attack_samples=cfg["attack_samples"],
        grid_edges=cfg["grid_edges"],
        n_trials=cfg["n_trials"],
        seed=cfg["seed"],
    )
    out = _out_dir(args)
    summary = run_experiment(experiment, out)
    _write_resolved(out, cfg)
    print(
        f"ran {cfg['n_trials']} {cfg['experiment']} trials: "
        f"{len(summary.results)} ok, {len(summary.failures)} failed"
    )
    if summary.failures:
        for failure in summary.failures:
            print(f"trial {failure.trial} failed: {failure.error}", file=sys.stderr)
        return 3
    return 0


# ------------------------------------------------------------------ parsing --


def _add_common(sub) -> None:
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcp",
        description="Conformal prediction sets with certified robustness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit thresholds from a calibration score tensor")
    p.add_argument("--scores", required=True, help="score tensor (.csv or .bin)")
    p.add_argument("--labels", required=True, help="calibration labels csv")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="prediction sets for a test score tensor")
    p.add_argument("--artifact", required=True, help="calibration artifact json")
    p.add_argument("--scores", required=True, help="test score tensor (.csv or .bin)")
    p.add_argument("--labels", help="optional test labels csv for coverage metrics")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "certify-poisoning", help="conservative threshold under a poisoning budget"
    )
    p.add_argument("--input", required=True, help="scores-and-bounds csv (or score matrix)")
    p.add_argument("--labels", help="labels csv (label poisoning only)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--check-oracle", action="store_true",
        help="cross-check against the exhaustive oracle (small instances only)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_certify_poisoning)

    p = sub.add_parser("simulate", help="run a synthetic experiment suite")
    p.add_argument("--out", required=True, help="results directory")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
