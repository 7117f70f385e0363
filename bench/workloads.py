"""The benchmark's workloads: what one round runs and how its outputs are checked.

Each workload is a closed loop with one caller in one process.  A round
is a fixed list of operations; ``check`` judges one operation's outputs
(a failed check fails that operation) and ``finish`` judges the run as a
whole.  Modules of ``robustcp`` are always reached through their module
attribute at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import oracles
from inputs import ALPHA, ETA, FLIP_P, FLIPS, GAUSS_RADIUS, GAUSS_SIGMA, POISON_BUDGET


class EvasionWorkload:
    """One evasion trial per round, at consecutive trial indices."""

    def __init__(self, spec: dict, work_dir: Path):
        from robustcp import experiments

        self.experiments = experiments
        suite = spec["suite"]
        task = experiments.TaskSpec(**suite["task"])
        fields = {k: v for k, v in suite.items() if k not in ("task", "radii", "flips")}
        if "radii" in suite:
            fields["radii"] = tuple(suite["radii"])
        if "flips" in suite:
            fields["flips"] = tuple(tuple(f) for f in suite["flips"])
        self.config = experiments.ExperimentConfig(
            kind="evasion", task=task, n_trials=1, seed=spec["seed"], **fields
        )
        self.ops_per_round = 1
        self.op_names = ["trial"]
        self.results = []

    def round(self, k: int):
        return [("trial", lambda: self.experiments.evasion_trial(self.config, k))]

    def check(self, name: str, result) -> list[str]:
        bad = []
        rows = result.rows
        by_key = {(row["radius"], row["method"]): row for row in rows}
        radii = sorted({row["radius"] for row in rows if row["radius"] > 0.0})
        if (0.0, "vanilla") not in by_key or not radii:
            return [f"trial {result.trial}: missing clean or attacked rows"]
        for radius in radii:
            vanilla = by_key[(radius, "vanilla")]
            for method in ("mean-bound", "cdf-bound"):
                row = by_key.get((radius, method))
                if row is None:
                    bad.append(f"radius {radius}: no {method} row")
                    continue
                if row["coverage"] < vanilla["coverage"] or row["size"] < vanilla["size"]:
                    bad.append(f"radius {radius}: {method} sets do not contain vanilla sets")
                if not 0.0 <= row["beta"] <= 1.0:
                    bad.append(f"radius {radius}: {method} beta {row['beta']} outside [0, 1]")
        if not bad:
            self.results.append(result)
        return [f"trial {result.trial}: {msg}" for msg in bad]

    def finish(self) -> list[str]:
        """Mean certified coverage at every radius clears 1 - alpha minus a slack."""
        if not self.results:
            return []
        task = self.config.task
        floor = oracles.coverage_floor(
            self.config.alpha, task.n_cal, task.n_test, len(self.results)
        )
        bad = []
        radii = sorted({r["radius"] for r in self.results[0].rows if r["radius"] > 0.0})
        for radius in radii:
            for method in ("mean-bound", "cdf-bound"):
                cov = np.mean([
                    row["coverage"] for res in self.results for row in res.rows
                    if row["radius"] == radius and row["method"] == method
                ])
                if cov < floor:
                    bad.append(
                        f"radius {radius} {method}: mean coverage {cov:.4f} "
                        f"over {len(self.results)} trials below {floor:.4f}"
                    )
        return bad


_GAUSS_SET = ["--set", f"sigma={GAUSS_SIGMA}", "--set", f"radius={GAUSS_RADIUS}"]
_SPARSE_SET = [
    "--set", "scheme=sparse", "--set", f"p0={FLIP_P}", "--set", f"p1={FLIP_P}",
    "--set", f"additions={FLIPS[0]}", "--set", f"deletions={FLIPS[1]}",
]
_CORRECTED_SET = _GAUSS_SET + ["--set", f"eta={ETA}", "--set", "mode=calibration-time"]


# (name, tensor prefix, --set flags, mode, eta) of the calibrate/predict pairs.
PIPELINES = (
    ("gaussian", "gauss", _GAUSS_SET, "test-time", 0.0),
    ("sparse", "sparse", _SPARSE_SET, "test-time", 0.0),
    ("corrected", "corr", _CORRECTED_SET, "calibration-time", ETA),
)
CLI_OPS = tuple(
    f"{name}_{step}" for name, *_ in PIPELINES for step in ("calibrate", "predict")
) + ("certify",)


class CliWorkload:
    """The seven CLI commands (a)-(d), in order, in-process through ``cli.main``."""

    def __init__(self, spec: dict, work_dir: Path):
        from robustcp import cli

        self.cli = cli
        self.inputs = work_dir
        self.out = work_dir / "out"
        self.op_names = list(CLI_OPS)
        self.expected = {}
        for name, prefix, _, _, _ in PIPELINES:
            cal = self.inputs / f"{prefix}-cal.bin"
            test = self.inputs / f"{prefix}-test.bin"
            cal_labels = oracles.read_labels(self.inputs / f"{prefix}-cal-labels.csv")
            self.expected[name] = {
                "cal_means": oracles.tensor_means(cal),
                "cal_labels": cal_labels,
                "test_means": oracles.tensor_means(test),
                "test_labels": oracles.read_labels(self.inputs / f"{prefix}-test-labels.csv"),
            }
        self.bounds = oracles.read_feature_bounds(self.inputs / "bounds.csv")
        self.ops_per_round = len(self.op_names)

    def _argv(self, op: str) -> list[str]:
        if op == "certify":
            return [
                "certify-poisoning", "--input", str(self.inputs / "bounds.csv"),
                "--out", str(self.out / "certify"), "--set", "poison_kind=feature",
                "--set", f"poison_budget={POISON_BUDGET}", "--set", f"alpha={ALPHA}",
            ]
        name, step = op.rsplit("_", 1)
        _, prefix, flags, _, _ = next(p for p in PIPELINES if p[0] == name)
        cal_dir = self.out / name
        if step == "calibrate":
            return [
                "calibrate", "--scores", str(self.inputs / f"{prefix}-cal.bin"),
                "--labels", str(self.inputs / f"{prefix}-cal-labels.csv"),
                "--out", str(cal_dir), "--set", f"alpha={ALPHA}", *flags,
            ]
        return [
            "predict", "--artifact", str(cal_dir / "calibration.json"),
            "--scores", str(self.inputs / f"{prefix}-test.bin"),
            "--labels", str(self.inputs / f"{prefix}-test-labels.csv"),
            "--out", str(cal_dir / "predict"), "--set", f"alpha={ALPHA}", *flags,
        ]

    def _command(self, argv: list[str]):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)

        return run

    def round(self, k: int):
        return [(op, self._command(self._argv(op))) for op in self.op_names]

    def check(self, op: str, code) -> list[str]:
        if code != 0:
            return [f"{op}: exit code {code}"]
        if op == "certify":
            scores, lower = self.bounds
            return [f"certify: {msg}" for msg in oracles.check_witness(
                self.out / "certify" / "witness.json", scores, lower, POISON_BUDGET, ALPHA
            )]
        name, step = op.rsplit("_", 1)
        _, _, _, mode, eta = next(p for p in PIPELINES if p[0] == name)
        want = self.expected[name]
        artifact = self.out / name / "calibration.json"
        if step == "calibrate":
            bad = oracles.check_calibration(
                artifact, want["cal_means"], want["cal_labels"], ALPHA, eta
            )
        else:
            bad = oracles.check_prediction(
                self.out / name / "predict", artifact, want["test_means"],
                want["test_labels"], ALPHA, want["cal_labels"].size, mode,
            )
        return [f"{op}: {msg}" for msg in bad]

    def finish(self) -> list[str]:
        return []


WORKLOADS = {
    "evasion-gaussian": EvasionWorkload,
    "evasion-binary": EvasionWorkload,
    "cli-tensors": CliWorkload,
}


def load(workload: str, work_dir: Path):
    spec = json.loads((work_dir / "inputs.json").read_text())
    if spec["workload"] != workload:
        raise ValueError(f"inputs in {work_dir} are for {spec['workload']}")
    return WORKLOADS[workload](spec, work_dir)
