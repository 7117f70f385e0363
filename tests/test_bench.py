"""The benchmark harness runs against the package at a tiny size.

``bench/`` is outside this suite's test paths, so this runs its entry
point in subprocesses: traced on the evasion workloads, where spans wrap
every public function and every oracle factory of ``robustcp.tasks``,
and untraced on the CLI workload.  Each run checks its own outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace",
    [("evasion-gaussian", 1), ("evasion-binary", 1), ("cli-tensors", 0)],
)
def test_benchmark_runs_and_its_checks_pass(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr[-2000:]
