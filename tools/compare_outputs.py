"""Check that two source trees of robustcp write byte-identical result files.

Usage::

    python3 tools/compare_outputs.py SRC_A SRC_B

``SRC_A`` and ``SRC_B`` are directories holding a ``robustcp`` package,
such as the ``src`` directory of two checkouts.  For each tree the script
starts one fresh interpreter with that directory first on ``PYTHONPATH``
and ``ROBUSTCP_WORKERS=1``, which runs a fixed set of commands through
``robustcp.cli.main``:

* ``simulate`` for every experiment kind at ``n_trials=2, n_cal=20,
  n_test=6, n_samples=400, attack_samples=32``, with TPS and APS scores,
  Gaussian and bit-flip tasks, and asymmetric flips (``1:2``,
  ``p0 != p1``), and evasion at 10 Gaussian and 9 bit-flip classes,
  where the posterior's row sums go pairwise; the poisoning kinds also at
  both ends of the rank search, the rank-0 sentinel (``alpha=0.04``) and
  budget 19 of 20 (every budget stays at most ``n_cal``, so no clamp
  warning prints a tree's own path);
* ``calibrate`` then ``predict`` on seeded 200x4x60 score tensors, for
  Gaussian test-time, sparse asymmetric test-time, sparse mean-route
  calibration-time and corrected settings, one of them read from CSV;
* the same for Gaussian test-time and corrected settings on CSV tensors
  whose scores often sit exactly on the default grid's edges, at 0 or at
  1, with 300 calibration points and 150x4 test slices: more rows than
  one 256-row summary chunk, and no multiple of it;
* the same for test-time pipelines at the schema defaults: Gaussian at
  radius 0 with the mean and with the CDF route, and bit flips with no
  flips;
* the same for Gaussian test-time settings on 4400x4x60 ``.bin`` tensors:
  1,056,000 scores, more than one 2^20-value read block, so the reader
  and the summaries go block by block and end on a partial block, and
  more calibration points than one piece of the artifact writer;
* the same on 3x2x300,000 ``.bin`` tensors at ``alpha=0.5``: each point
  holds more than half a read block, so every block is one point, the
  block shape the Monte-Carlo estimators hand the same summarizer;
* ``certify-poisoning`` for feature and label poisoning, and for feature
  poisoning on bounds tied at a few values, ``-0.0`` beside ``0.0``,
  where more points could move than the budget allows, so the witness
  records which tied points the search chose.

It then runs each of the tree's own demos (``SRC/../demos/*.py``) in a
fresh interpreter and records its exit code and standard output, so a
demo edited alongside the package must still print the same thing.

Every output file, plus each command's exit code and printed output, goes
under one directory per tree.  The two directories are then compared
byte for byte.  The script prints every difference and exits 1 if there
is one, leaving both directories in place for inspection; it exits 0 and
removes them when every file is identical.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIMULATE_SIZE = [
    "n_trials=2", "n_cal=20", "n_test=6", "n_samples=400", "attack_samples=32",
]
BINARY_TASK = ["task=binary-linear", "dim=16", "p0=0.1", "p1=0.2"]

# Run name -> extra `--set` values for `simulate`.
SIMULATIONS = {
    "marginal-tps": ["experiment=marginal", "alphas=0.1,0.2"],
    "marginal-aps-binary": ["experiment=marginal", "score_kind=aps", *BINARY_TASK],
    "evasion-gaussian": ["experiment=evasion", "radii=0.125,0.25"],
    "evasion-gaussian-aps": ["experiment=evasion", "score_kind=aps", "radii=0.125"],
    "evasion-binary": ["experiment=evasion", "flips=1:2,2:2", *BINARY_TASK],
    "evasion-binary-aps": ["experiment=evasion", "score_kind=aps", "flips=1:2", *BINARY_TASK],
    # Eight or more classes: the posterior's row sums take numpy's pairwise order.
    "evasion-gaussian-10-classes": ["experiment=evasion", "radii=0.125", "n_classes=10"],
    "evasion-binary-9-classes": ["experiment=evasion", "flips=1:2", "n_classes=9", *BINARY_TASK],
    "label-poison": ["experiment=label-poison", "budgets=0,1,2"],
    "label-poison-aps": ["experiment=label-poison", "score_kind=aps", "budgets=0,2"],
    # Both ends of the mirrored rank search: floor(0.04 * 21) = 0 is the
    # sentinel rank, and a budget of 19 of 20 points is near-total control.
    "label-poison-sentinel": ["experiment=label-poison", "alpha=0.04"],
    "label-poison-near-total": ["experiment=label-poison", "budgets=0,2,19"],
    "feature-poison-near-total": ["experiment=feature-poison", "budgets=0,2,19"],
    "feature-poison-gaussian": ["experiment=feature-poison", "budgets=0,1,2"],
    "feature-poison-binary-aps": [
        "experiment=feature-poison", "score_kind=aps", "flips=1:2", "budgets=0,1,2",
        *BINARY_TASK,
    ],
    "corrected-cdf": ["experiment=corrected", "eta=0.01"],
    "corrected-mean-aps": [
        "experiment=corrected", "eta=0.02", "bound_kind=mean", "score_kind=aps",
    ],
    "corrected-binary": ["experiment=corrected", "eta=0.01", "flips=1:2", *BINARY_TASK],
}

# Pipeline name -> (`--set` values shared by calibrate and predict, tensor
# file suffix: ".bin" and ".csv" hold the same tensors, "-edges.csv",
# "-large.bin" and "-wide.bin" others).
PIPELINES = {
    "gaussian-test-time": (
        ["scheme=gaussian", "sigma=0.25", "radius=0.125", "mode=test-time"], ".bin",
    ),
    "sparse-asymmetric-test-time": (
        ["scheme=sparse", "p0=0.1", "p1=0.2", "additions=2", "deletions=1",
         "mode=test-time"], ".bin",
    ),
    "sparse-mean-calibration-time": (
        ["scheme=sparse", "p0=0.1", "p1=0.1", "additions=1", "deletions=1",
         "bound_kind=mean", "mode=calibration-time"], ".csv",
    ),
    "corrected": (
        ["scheme=gaussian", "sigma=0.25", "radius=0.125", "eta=0.01",
         "mode=calibration-time"], ".bin",
    ),
    "gaussian-grid-edges": (
        ["scheme=gaussian", "sigma=0.25", "radius=0.125", "mode=test-time"], "-edges.csv",
    ),
    "corrected-grid-edges": (
        ["scheme=gaussian", "sigma=0.25", "radius=0.125", "eta=0.01",
         "mode=calibration-time"], "-edges.csv",
    ),
    # Schema defaults: a zero radius, where the mean route returns the
    # mean itself while the CDF route still round-trips each edge
    # through Phi^-1, and a ball of no flips.
    "gaussian-radius-0-mean": (["scheme=gaussian", "bound_kind=mean"], ".bin"),
    "gaussian-radius-0-cdf": (["scheme=gaussian", "bound_kind=cdf"], ".bin"),
    "sparse-zero-flips": (["scheme=sparse"], ".bin"),
    "gaussian-multi-block": (
        ["scheme=gaussian", "sigma=0.25", "radius=0.125", "mode=test-time"], "-large.bin",
    ),
    "gaussian-one-point-blocks": (
        ["scheme=gaussian", "sigma=0.25", "radius=0.125", "mode=test-time", "alpha=0.5"],
        "-wide.bin",
    ),
}


def _run(main, name: str, argv: list[str], out: Path) -> None:
    """Run one CLI command, recording its exit code and printed output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    (out / f"{name}.log").write_text(
        f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    )


def _score_tensor(rng, n_points: int, n_classes: int, n_samples: int):
    """Smooth-score samples in [0, 1] whose level depends on the point's label."""
    labels = rng.integers(0, n_classes, n_points)
    centre = rng.uniform(0.05, 0.5, (n_points, n_classes))
    centre[range(n_points), labels] += 0.4
    noise = rng.normal(0.0, 0.15, (n_points, n_classes, n_samples))
    return (centre[:, :, None] + noise).clip(0.0, 1.0), labels


def _edge_tensor(rng, n_points: int, n_classes: int, n_samples: int):
    """A :func:`_score_tensor` with scores moved onto grid edges, 0 and 1.

    Half the scores snap to the nearest edge of the default 51-edge grid
    (the edges of ``BinGrid.uniform(51)``), and one in ten more become
    exactly 0 or 1, so ties and values on an edge are everywhere.
    """
    import numpy as np

    tensor, labels = _score_tensor(rng, n_points, n_classes, n_samples)
    edges = np.linspace(0.0, 1.0, 51)
    snap = rng.random(tensor.shape) < 0.5
    tensor[snap] = edges[np.rint(tensor[snap] * 50).astype(int)]
    ends = rng.random(tensor.shape) < 0.1
    tensor[ends] = rng.integers(0, 2, ends.sum()).astype(float)
    return tensor, labels


def write_outputs(out: Path) -> None:
    """Write every compared output of the importable robustcp tree under ``out``."""
    import numpy as np

    from robustcp import formats
    from robustcp.cli import main

    out.mkdir(parents=True)
    for name, settings in SIMULATIONS.items():
        sets = [f"--set={item}" for item in (*SIMULATE_SIZE, *settings)]
        _run(main, f"simulate-{name}", ["simulate", "--out", str(out / name), *sets], out)

    inputs = out / "inputs"
    inputs.mkdir()
    rng = np.random.default_rng(20240)
    for split in ("cal", "test"):
        tensor, labels = _score_tensor(rng, 200, 4, 60)
        for suffix in (".bin", ".csv"):
            formats.write_score_tensor(inputs / f"{split}{suffix}", tensor)
        formats.write_labels_csv(inputs / f"{split}-labels.csv", labels)
    edge_rng = np.random.default_rng(20241)
    for split, n_points in (("cal", 300), ("test", 150)):
        tensor, labels = _edge_tensor(edge_rng, n_points, 4, 60)
        formats.write_score_tensor(inputs / f"{split}-edges.csv", tensor)
        formats.write_labels_csv(inputs / f"{split}-edges-labels.csv", labels)
    large_rng = np.random.default_rng(20242)
    for split in ("cal", "test"):
        tensor, labels = _score_tensor(large_rng, 4400, 4, 60)
        formats.write_score_tensor(inputs / f"{split}-large.bin", tensor)
        formats.write_labels_csv(inputs / f"{split}-large-labels.csv", labels)
    wide_rng = np.random.default_rng(20244)
    for split in ("cal", "test"):
        tensor, labels = _score_tensor(wide_rng, 3, 2, 300_000)
        formats.write_score_tensor(inputs / f"{split}-wide.bin", tensor)
        formats.write_labels_csv(inputs / f"{split}-wide-labels.csv", labels)
    for name, (settings, suffix) in PIPELINES.items():
        sets = [f"--set={item}" for item in settings]
        labels = suffix.rsplit(".", 1)[0] + "-labels.csv"
        cal_out, pred_out = out / f"{name}-calibrate", out / f"{name}-predict"
        _run(main, f"calibrate-{name}", [
            "calibrate", "--scores", str(inputs / f"cal{suffix}"),
            "--labels", str(inputs / f"cal{labels}"), "--out", str(cal_out), *sets,
        ], out)
        _run(main, f"predict-{name}", [
            "predict", "--artifact", str(cal_out / "calibration.json"),
            "--scores", str(inputs / f"test{suffix}"),
            "--labels", str(inputs / f"test{labels}"), "--out", str(pred_out), *sets,
        ], out)

    scores = rng.uniform(0.2, 1.0, 40)
    lower = scores * rng.uniform(0.5, 1.0, 40)
    formats.write_feature_bounds_csv(inputs / "bounds.csv", scores, lower)
    formats.write_score_matrix_csv(inputs / "matrix.csv", rng.dirichlet(np.ones(4), 40))
    formats.write_labels_csv(inputs / "matrix-labels.csv", rng.integers(0, 4, 40))
    _run(main, "certify-feature", [
        "certify-poisoning", "--input", str(inputs / "bounds.csv"),
        "--out", str(out / "certify-feature"), "--set=poison_budget=3",
    ], out)
    tie_rng = np.random.default_rng(20243)
    formats.write_feature_bounds_csv(
        inputs / "bounds-ties.csv",
        tie_rng.choice([0.6, 0.8, 1.0], 40), tie_rng.choice([-0.0, 0.0, 0.3], 40),
    )
    _run(main, "certify-feature-ties", [
        "certify-poisoning", "--input", str(inputs / "bounds-ties.csv"),
        "--out", str(out / "certify-feature-ties"), "--set=poison_budget=6",
    ], out)
    _run(main, "certify-label", [
        "certify-poisoning", "--input", str(inputs / "matrix.csv"),
        "--labels", str(inputs / "matrix-labels.csv"), "--out", str(out / "certify-label"),
        "--set=poison_kind=label", "--set=poison_budget=2",
    ], out)


def run_demos(src: Path, out: Path, env: dict) -> None:
    """Record the exit code and standard output of every demo beside ``src``."""
    logs = out / "demos"
    logs.mkdir()
    for demo in sorted((src.parent / "demos").glob("*.py")):
        result = subprocess.run(
            [sys.executable, str(demo)], env=env, cwd=out, capture_output=True, text=True,
        )
        (logs / f"{demo.stem}.log").write_text(
            f"exit {result.returncode}\n--- stdout\n{result.stdout}"
        )


def _differences(a: Path, b: Path, prefix: str = "") -> list[str]:
    cmp = filecmp.dircmp(a, b)
    found = [f"only in A: {prefix}{name}" for name in cmp.left_only]
    found += [f"only in B: {prefix}{name}" for name in cmp.right_only]
    for name in cmp.common_files:
        if not filecmp.cmp(a / name, b / name, shallow=False):
            found.append(f"differs: {prefix}{name}")
    for name in cmp.common_dirs:
        found += _differences(a / name, b / name, f"{prefix}{name}/")
    return found


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--write":
        write_outputs(Path(argv[1]))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="robustcp-compare-"))
    outs = []
    for label, src in zip("AB", argv):
        src = Path(src).resolve()
        if not (src / "robustcp" / "__init__.py").exists():
            print(f"{src}: no robustcp package here", file=sys.stderr)
            return 2
        out = work / label
        env = {**os.environ, "PYTHONPATH": str(src), "ROBUSTCP_WORKERS": "1"}
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--write", str(out)],
            env=env, cwd=work, check=True,
        )
        run_demos(src, out, env)
        outs.append(out)
    found = _differences(*outs)
    n_files = sum(len(files) for _, _, files in os.walk(outs[0]))
    if found:
        print("\n".join(found))
        print(f"{len(found)} difference(s) in {n_files} files; outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    print(f"all {n_files} files byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
