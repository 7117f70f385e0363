"""Smoke test of the benchmark: every workload at a tiny size, no timing asserted.

Run from the repository root::

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_form():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # The declared metrics are exactly the ones the runs print.
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["evasion-gaussian", "evasion-binary", "cli-tensors"])
def test_workload_runs_and_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = _spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    machine = next(line for line in lines if line.startswith("machine "))
    assert {"nproc", "python", "numpy", "scipy", "git"} <= set(json.loads(machine[8:]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = _run(tmp_path, "evasion-gaussian", 0)
    assert proc.returncode != 0
    assert '"attempted"' not in proc.stdout


# ------------------------------------------- the checks catch bad outputs --


def test_bound_references_reject_wrong_values():
    from robustcp.bounds import BinaryBall, L2Ball, bound_for_clean
    from robustcp.smoothing import BinGrid, GaussianNoise, ScoreDistribution, SparseFlipNoise

    dist = ScoreDistribution(
        n_samples=10, mean=0.4, variance=0.1, grid=BinGrid.uniform(5),
        cdf=np.array([0.1, 0.5, 0.9]),
    )
    pairs = [
        (GaussianNoise(sigma=0.25), L2Ball(radius=0.125)),
        (SparseFlipNoise(p0=0.1, p1=0.2), BinaryBall(additions=2, deletions=1)),
    ]
    for scheme, model in pairs:
        for kind in ("mean", "cdf"):
            for direction in ("upper", "lower"):
                value = bound_for_clean(dist, model, scheme, direction, kind)
                sample = {
                    "op": 7, "mean": dist.mean, "cdf": dist.cdf,
                    "edges": dist.grid.edges, "model": model, "scheme": scheme,
                    "direction": direction, "kind": kind, "value": value,
                }
                assert oracles.check_bound_samples([sample]) == {}
                sample["value"] = value + 1e-6
                assert 7 in oracles.check_bound_samples([sample])


def test_witness_check_rejects_a_tampered_witness(tmp_path):
    rng = np.random.default_rng(5)
    scores = rng.uniform(0.2, 1.0, 200)
    lower = scores - rng.uniform(0.0, 0.2, 200)
    from robustcp.cli import main

    (tmp_path / "bounds.csv").write_text(
        "point_id,score,lower_bound\n"
        + "".join(f"{i},{s!r},{lo!r}\n" for i, (s, lo) in
                  enumerate(zip(scores.tolist(), lower.tolist())))
    )
    argv = ["certify-poisoning", "--input", str(tmp_path / "bounds.csv"), "--out",
            str(tmp_path / "cert"), "--set", "poison_budget=5"]
    assert main(argv) == 0
    path = tmp_path / "cert" / "witness.json"
    assert oracles.check_witness(path, scores, lower, 5, 0.1) == []
    payload = json.loads(path.read_text())
    payload["witness"]["indices"] = payload["witness"]["indices"][:-1]
    payload["witness"]["values"] = payload["witness"]["values"][:-1]
    path.write_text(json.dumps(payload))
    assert oracles.check_witness(path, scores, lower, 5, 0.1)
