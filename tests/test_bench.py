"""The benchmark harness runs against the package at a tiny size.

``bench/`` is outside this suite's test paths, so this runs its entry
point in subprocesses: traced on every workload, where spans wrap every
public function and every oracle factory of ``robustcp.tasks``, and
untraced on the CLI workload.  Each run checks its own outputs.  The
traced run's bound probe samples ``bound_for_clean`` calls, which the
library no longer makes, so it re-derives no bounds;
``tests/test_bound_batch.py`` re-derives sampled entries of every bound
route with the benchmark's references instead.  The benchmark's own
bound-reference test runs the same way.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace",
    [("evasion-gaussian", 1), ("evasion-binary", 1), ("cli-tensors", 0), ("cli-tensors", 1)],
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


def test_benchmark_bound_references_accept_a_single_summary():
    """The benchmark builds one summary as ``smoothing.ScoreDistribution``
    and hands its ``mean`` to mpmath, which takes a numpy scalar but not
    a 0-d array; this pins both the name and the scalar."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/test_smoke.py", "-k", "bound_references"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "1 passed" in proc.stdout
