"""File formats and the command-line surface.

Every format must round-trip losslessly, every command must be
deterministic given a seed, and errors must map onto the documented
exit codes (2 input, 3 invariant, 4 configuration).
"""

import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robustcp import formats
from robustcp.cli import main
from robustcp.correction import BudgetLedger
from robustcp.errors import ConfigurationError, InputError
from robustcp.experiments import ExperimentConfig
from robustcp.poisoning import PoisonWitness, replay_feature_witness
from robustcp.smoothing import substream

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def tensor():
    rng = substream(40, "cli-tensor")
    return rng.uniform(0, 1, (6, 3, 20)).astype(np.float32).astype(float)


# ------------------------------------------------------------------ formats --


def test_score_tensor_csv_round_trip(tmp_path, tensor):
    path = tmp_path / "t.csv"
    formats.write_score_tensor(path, tensor)
    np.testing.assert_array_equal(formats.read_score_tensor(path), tensor)


def test_score_tensor_binary_round_trip(tmp_path, tensor):
    path = tmp_path / "t.bin"
    formats.write_score_tensor(path, tensor)
    got = formats.read_score_tensor(path)
    # The packed format stores 32-bit floats.
    np.testing.assert_array_equal(got, tensor.astype(np.float32).astype(float))


def test_score_tensor_binary_read_in_blocks(tmp_path, tensor, monkeypatch):
    """A payload longer than one read block, with a partial last block, reads back whole."""
    path = tmp_path / "t.bin"
    formats.write_score_tensor(path, tensor)
    monkeypatch.setattr(formats, "_READ_BLOCK_VALUES", 7)  # under one 60-value point: 6 blocks
    got = formats.read_score_tensor(path)
    np.testing.assert_array_equal(got, tensor.astype(np.float32).astype(float))


def test_score_tensor_binary_rejects_malformed_files(tmp_path, tensor):
    path = tmp_path / "t.bin"
    formats.write_score_tensor(path, tensor)
    blob = path.read_bytes()
    bad_version = blob[:4] + (2).to_bytes(2, "little") + blob[6:]
    cases = {
        "bad magic": b"XXXX" + blob[4:],
        "short header": blob[:10],
        "unknown version": bad_version,
        "truncated payload": blob[:-4],
        "trailing bytes": blob + b"\0\0\0\0",
    }
    for data in cases.values():
        (tmp_path / "bad.bin").write_bytes(data)
        with pytest.raises(InputError):
            formats.read_score_tensor(tmp_path / "bad.bin")


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
def test_score_tensor_writer_takes_only_what_the_reader_takes(tmp_path, tensor, suffix):
    for value in (1.5, -0.25, np.nan, np.inf):
        bad = tensor.copy()
        bad[-1, -1, -1] = value
        with pytest.raises(InputError):
            formats.write_score_tensor(tmp_path / f"t{suffix}", bad)
        assert not (tmp_path / f"t{suffix}").exists()


def test_score_tensor_binary_layout(tmp_path, tensor):
    path = tmp_path / "t.bin"
    formats.write_score_tensor(path, tensor)
    blob = path.read_bytes()
    assert blob[:4] == b"RCPT"
    import struct

    version, p, c, s = struct.unpack_from("<HIII", blob, 4)
    assert (version, p, c, s) == (1, 6, 3, 20)
    payload = np.frombuffer(blob, dtype="<f4", offset=4 + struct.calcsize("<HIII"))
    np.testing.assert_array_equal(payload.reshape(6, 3, 20), tensor.astype("<f4"))


def test_unknown_binary_version_is_hard_error(tmp_path, tensor):
    path = tmp_path / "t.bin"
    formats.write_score_tensor(path, tensor)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="version"):
        formats.read_score_tensor(path)


def test_empty_tensor_csv(tmp_path):
    path = tmp_path / "e.csv"
    formats.atomic_write_text(path, "point_id,class_id,sample_id,score\n")
    got = formats.read_score_tensor(path)
    assert got.shape == (0, 0, 0)


def test_tensor_csv_rejects_missing_cells(tmp_path):
    path = tmp_path / "bad.csv"
    lines = ["point_id,class_id,sample_id,score", "0,0,0,0.5", "0,1,0,0.6"]
    formats.atomic_write_text(path, "\n".join(lines) + "\n")
    # Point 0 claims two classes but only one sample grid entry each is
    # insufficient to form a full (1, 2, 1) tensor only if ids skip; here
    # the grid is complete, so this parses fine.
    assert formats.read_score_tensor(path).shape == (1, 2, 1)
    lines = ["point_id,class_id,sample_id,score", "0,0,0,0.5", "0,1,1,0.6"]
    formats.atomic_write_text(path, "\n".join(lines) + "\n")
    with pytest.raises(InputError):
        formats.read_score_tensor(path)


_CSV_READERS = {
    "labels": (formats.read_labels_csv, "point_id,label", ["0,2", "1,0", "2,1"]),
    "matrix": (
        formats.read_score_matrix_csv, "point_id,class_id,score",
        ["0,0,0.25", "0,1,0.5", "1,0,0.75", "1,1,1.0"],
    ),
    "bounds": (
        formats.read_feature_bounds_csv, "point_id,score,lower_bound",
        ["0,0.5,0.25", "1,0.75,0.5", "2,1.0,0.125"],
    ),
    "tensor": (
        formats.read_score_tensor, "point_id,class_id,sample_id,score",
        ["0,0,0,0.25", "0,0,1,0.5", "0,1,0,0.75", "0,1,1,1.0"],
    ),
}


def _second_row(rows, row):
    return [rows[0], row, *rows[2:]]


def _last_cell(row, cell):
    return ",".join(row.split(",")[:-1] + [cell])


# Each case edits the clean data rows and picks the line ending; the file
# then reads back the clean arrays (None) or names its bad line: the second
# data row is line 3, after the header.
_CSV_CASES = {
    "wrong column count": (lambda rows: _second_row(rows, rows[1] + ",1"), "\n", 3),
    "non-numeric cell": (lambda rows: _second_row(rows, _last_cell(rows[1], "x")), "\n", 3),
    "1.0 as an id": (lambda rows: _second_row(rows, "1.0" + rows[1][1:]), "\n", 3),
    "quoted cells": (
        lambda rows: _second_row(rows, ",".join(f'"{c}"' for c in rows[1].split(","))),
        "\n", None,
    ),
    "crlf line endings": (lambda rows: rows, "\r\n", None),
    "blank line": (lambda rows: [rows[0], "", *rows[1:]], "\n", 3),
    "line starting with #": (lambda rows: _second_row(rows, "#" + rows[1]), "\n", 3),
    # Python's int() and float() read these as numbers; the columnar reader
    # does not (docs/formats.md, "CSV numbers").
    "underscored digits": (lambda rows: _second_row(rows, _last_cell(rows[1], "1_0")), "\n", 3),
    "non-ascii digits": (lambda rows: _second_row(rows, "\u0661" + rows[1][1:]), "\n", 3),
}


@pytest.mark.parametrize("reader", sorted(_CSV_READERS))
@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_csv_readers_on_malformed_and_unusual_rows(tmp_path, reader, case):
    """Every CSV reader either reads the clean arrays back or names the bad line (exit 2)."""
    read, head, rows = _CSV_READERS[reader]
    clean = tmp_path / "clean.csv"
    formats.atomic_write_text(clean, "\n".join([head, *rows]) + "\n")
    want = read(clean)
    edit, newline, bad_line = _CSV_CASES[case]
    path = tmp_path / "case.csv"
    formats.atomic_write_text(path, newline.join([head, *edit(rows)]) + newline)
    if bad_line is not None:
        with pytest.raises(InputError, match="^" + re.escape(f"{path}:{bad_line}:")):
            read(path)
        return
    got = read(path)
    if not isinstance(want, tuple):
        got, want = (got,), (want,)
    for got_part, want_part in zip(got, want, strict=True):
        np.testing.assert_array_equal(got_part, want_part)
        assert got_part.dtype == want_part.dtype


def test_labels_round_trip(tmp_path):
    path = tmp_path / "l.csv"
    labels = np.array([2, 0, 1, 1])
    formats.write_labels_csv(path, labels)
    np.testing.assert_array_equal(formats.read_labels_csv(path), labels)


def test_matrix_and_bounds_round_trip(tmp_path):
    rng = substream(41, "fmt")
    matrix = rng.uniform(0, 1, (5, 3))
    formats.write_score_matrix_csv(tmp_path / "m.csv", matrix)
    np.testing.assert_array_equal(
        formats.read_score_matrix_csv(tmp_path / "m.csv"), matrix
    )
    scores = rng.uniform(0, 1, 5)
    lower = scores / 2
    formats.write_feature_bounds_csv(tmp_path / "b.csv", scores, lower)
    got_s, got_l = formats.read_feature_bounds_csv(tmp_path / "b.csv")
    np.testing.assert_array_equal(got_s, scores)
    np.testing.assert_array_equal(got_l, lower)


def test_sets_csv_round_trip(tmp_path):
    scores = np.array([[0.7, 0.1, 0.5], [0.2, 0.3, 0.1], [0.1, 0.45, 0.9]])
    masks = {"vanilla": scores >= 0.5, "robust": scores >= 0.4}
    masks["robust"][0, 1] = True
    formats.write_sets_csv(tmp_path / "s.csv", masks)
    got = formats.read_sets_csv(tmp_path / "s.csv")
    assert got["vanilla"] == {0: frozenset({0, 2}), 2: frozenset({2})}
    # The all-False row of point 1 writes no rows, so the point is simply absent.
    assert got["robust"] == {0: frozenset({0, 1, 2}), 2: frozenset({1, 2})}
    # Rows run method by method, point by point, classes ascending.
    assert (tmp_path / "s.csv").read_text().splitlines() == [
        "point_id,method,class_id",
        "0,robust,0", "0,robust,1", "0,robust,2", "2,robust,1", "2,robust,2",
        "0,vanilla,0", "0,vanilla,2", "2,vanilla,2",
    ]


def _csv_rows(header, rows):
    """CSV text written row by row with ``csv.writer``, floats as ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def test_csv_writers_match_a_row_by_row_writer(tmp_path):
    rng = substream(50, "csv-writers")
    tensor = rng.uniform(0, 1, (3, 2, 4))
    tensor[0, 0, :3] = [0.0, 1.0, 0.1]
    tensor[2, 1, 3] = 1 / 3
    formats.write_score_tensor(tmp_path / "t.csv", tensor)
    assert (tmp_path / "t.csv").read_bytes() == _csv_rows(
        ["point_id", "class_id", "sample_id", "score"],
        [(p, c, s, float(tensor[p, c, s]))
         for p in range(3) for c in range(2) for s in range(4)],
    )
    labels = [2, 0, 1, 1]
    formats.write_labels_csv(tmp_path / "l.csv", labels)
    assert (tmp_path / "l.csv").read_bytes() == _csv_rows(
        ["point_id", "label"], list(enumerate(labels))
    )
    matrix = np.round(rng.uniform(0, 1, (4, 3)), 3)
    matrix[1, 2] = -0.0
    formats.write_score_matrix_csv(tmp_path / "m.csv", matrix)
    assert (tmp_path / "m.csv").read_bytes() == _csv_rows(
        ["point_id", "class_id", "score"],
        [(p, c, float(matrix[p, c])) for p in range(4) for c in range(3)],
    )
    scores = np.array([0.5, 1.0, 0.25, 0.0])
    lower = np.array([0.25, -0.0, 1e-17, 0.0])
    formats.write_feature_bounds_csv(tmp_path / "b.csv", scores, lower)
    assert (tmp_path / "b.csv").read_bytes() == _csv_rows(
        ["point_id", "score", "lower_bound"],
        [(p, float(scores[p]), float(lower[p])) for p in range(4)],
    )
    masks = {
        "vanilla": rng.random((5, 3)) < 0.5,
        "robust, wide": rng.random((5, 3)) < 0.7,
        'say "empty"': np.zeros((5, 3), dtype=bool),
    }
    formats.write_sets_csv(tmp_path / "s.csv", masks)
    assert (tmp_path / "s.csv").read_bytes() == _csv_rows(
        ["point_id", "method", "class_id"],
        [(p, method, c) for method in sorted(masks)
         for p in range(5) for c in range(3) if masks[method][p, c]],
    )
    assert '"robust, wide"' in (tmp_path / "s.csv").read_text()
    formats.write_sets_csv(tmp_path / "none.csv", {})
    assert (tmp_path / "none.csv").read_bytes() == _csv_rows(
        ["point_id", "method", "class_id"], []
    )


def test_config_text_round_trip(tmp_path):
    from robustcp.cli import CONFIG_SCHEMA

    text = "alpha = 0.2\nscheme = sparse\nadditions = 2\n"
    resolved = formats.resolve_config(CONFIG_SCHEMA, text, ["p0=0.15"])
    assert resolved["alpha"] == 0.2
    assert resolved["scheme"] == "sparse"
    assert resolved["additions"] == 2
    assert resolved["p0"] == 0.15
    rendered = formats.render_config(resolved)
    again = formats.resolve_config(CONFIG_SCHEMA, rendered, [])
    assert again == resolved


def test_config_unknown_and_duplicate_keys_rejected():
    from robustcp.cli import CONFIG_SCHEMA

    with pytest.raises(InputError, match="unknown"):
        formats.resolve_config(CONFIG_SCHEMA, "no_such_key = 1\n", [])
    with pytest.raises(InputError, match="duplicate"):
        formats.resolve_config(CONFIG_SCHEMA, "alpha = 0.1\nalpha = 0.2\n", [])
    with pytest.raises(InputError):
        formats.resolve_config(CONFIG_SCHEMA, "alpha = not_a_number\n", [])


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    formats.atomic_write_text(path, "first")
    formats.atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]


# ----------------------------------------------------------------- commands --


@pytest.fixture()
def workspace(tmp_path):
    """Calibration scores, labels, and a matching test tensor on disk."""
    rng = substream(42, "cli-ws")
    n, k, m = 25, 3, 150
    logits = rng.standard_normal((n, k)) * 2
    labels = logits.argmax(axis=1)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    tensor = np.clip(probs[:, :, None] + 0.05 * rng.standard_normal((n, k, m)), 0, 1)
    formats.write_score_tensor(tmp_path / "cal.csv", tensor)
    formats.write_labels_csv(tmp_path / "cal-labels.csv", labels)

    t_logits = rng.standard_normal((8, k)) * 2
    t_labels = t_logits.argmax(axis=1)
    t_probs = np.exp(t_logits) / np.exp(t_logits).sum(axis=1, keepdims=True)
    t_tensor = np.clip(
        t_probs[:, :, None] + 0.05 * rng.standard_normal((8, k, m)), 0, 1
    )
    formats.write_score_tensor(tmp_path / "test.csv", t_tensor)
    formats.write_labels_csv(tmp_path / "test-labels.csv", t_labels)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def calibrate(ws, out="calib", extra=()):
    code = run_cli(
        "calibrate",
        "--scores", str(ws / "cal.csv"),
        "--labels", str(ws / "cal-labels.csv"),
        "--out", str(ws / out),
        "--set", "sigma=0.25", "--set", "radius=0.125",
        *extra,
    )
    assert code == 0
    return ws / out / "calibration.json"


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _assert_same_calibration(got, want):
    """Every column, the sample count, the grid and the thresholds, bit for bit."""
    np.testing.assert_array_equal(got.point_ids, want.point_ids)
    assert got.point_ids.dtype.kind == want.point_ids.dtype.kind == "i"
    assert got.distributions.n_samples == want.distributions.n_samples
    _assert_same_bits(got.distributions.grid.edges, want.distributions.grid.edges)
    for name in ("mean", "variance", "cdf"):
        _assert_same_bits(getattr(got.distributions, name), getattr(want.distributions, name))
    _assert_same_bits(got.lower_bounds, want.lower_bounds)
    if want.corrected_lower_bounds is None:
        assert got.corrected_lower_bounds is None
    else:
        _assert_same_bits(got.corrected_lower_bounds, want.corrected_lower_bounds)
    names = sorted(want.thresholds)
    assert sorted(got.thresholds) == names
    _assert_same_bits([got.thresholds[k] for k in names], [want.thresholds[k] for k in names])


def test_calibrate_writes_artifact_that_round_trips(workspace):
    from robustcp.cli import _evasion_config
    from robustcp.evasion import calibrate as calibrate_points
    from robustcp.smoothing import summarize_samples

    tensor = formats.read_score_tensor(workspace / "cal.csv")
    labels = formats.read_labels_csv(workspace / "cal-labels.csv")
    for eta in (0.0, 0.02):
        extra = ["--set", f"eta={eta}", "--set", "mode=calibration-time"] if eta else []
        artifact = calibrate(workspace, out=f"calib-{eta}", extra=extra)
        calibration, config = formats.read_calibration_artifact(artifact)
        assert calibration.point_ids.shape == (25,)
        assert calibration.ledger is None
        thresholds = calibration.thresholds
        assert thresholds["calibration-time"] <= thresholds["vanilla"]
        assert ("corrected" in thresholds) == (eta > 0.0)
        # The artifact holds what calibrating the same tensor in memory gives.
        evasion_config = _evasion_config(config)
        want = calibrate_points(
            summarize_samples(tensor[np.arange(labels.size), labels], evasion_config.grid),
            config["alpha"], evasion_config,
        )
        _assert_same_calibration(calibration, want)
        # Written again with a -inf threshold, it reads back whole, and
        # writing what was read gives the same bytes.
        calibration.thresholds = {**thresholds, "none": -np.inf}
        again, third = workspace / f"again-{eta}.json", workspace / f"third-{eta}.json"
        formats.write_calibration_artifact(again, calibration, config)
        reread, reread_config = formats.read_calibration_artifact(again)
        assert reread_config == config
        _assert_same_calibration(reread, calibration)
        formats.write_calibration_artifact(third, reread, config)
        assert third.read_bytes() == again.read_bytes()


def _reference_artifact_text(calibration, config) -> str:
    """The artifact as one dict per point through ``json.dumps(indent=2)``."""
    points = []
    for i, dist in enumerate(calibration.distributions):
        entry = {
            "id": int(calibration.point_ids[i]),
            "n_samples": int(dist.n_samples),
            "mean": float(dist.mean),
            "variance": float(dist.variance),
            "cdf": [float(v) for v in dist.cdf],
            "lower_bound": float(calibration.lower_bounds[i]),
        }
        if calibration.corrected_lower_bounds is not None:
            entry["corrected_lower_bound"] = float(calibration.corrected_lower_bounds[i])
        points.append(entry)
    payload = {
        "format": "robustcp-calibration",
        "version": 1,
        "grid_edges": [float(e) for e in calibration.distributions.grid.edges],
        "thresholds": {k: float(v) for k, v in calibration.thresholds.items()},
        "config": dict(config),
        "points": points,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("eta", [0.0, 0.02])
def test_artifact_writer_matches_json_dumps(tmp_path, eta):
    from robustcp.bounds import L2Ball
    from robustcp.evasion import Calibration, EvasionConfig, calibrate as calibrate_points
    from robustcp.smoothing import BinGrid, GaussianNoise, ScoreBatch, summarize_samples

    rng = substream(47, "artifact-writer")
    samples = np.clip(rng.normal(rng.uniform(0, 1, (30, 1)), 0.2, (30, 40)), 0, 1)
    config = EvasionConfig(
        scheme=GaussianNoise(0.25), model=L2Ball(0.125), grid=BinGrid.uniform(21), eta=eta
    )
    calibration = calibrate_points(summarize_samples(samples, config.grid), 0.1, config)
    calibration.point_ids = calibration.point_ids * 7 - 3
    assert (calibration.corrected_lower_bounds is not None) == (eta > 0.0)
    # Non-finite thresholds, and config values that nest or hold newlines.
    thresholds = calibration.thresholds = {**calibration.thresholds, "none": -np.inf}
    echo = {"alpha": 0.1, "note": "two\nlines", "nested": {"b": [1, 2.5], "a": "x"}}
    formats.write_calibration_artifact(tmp_path / "a.json", calibration, echo)
    assert (tmp_path / "a.json").read_text() == _reference_artifact_text(calibration, echo)
    # A hand-built calibration whose columns repeat values and hold -0.0 beside
    # 0.0: a writer that formats each distinct value once must key on the
    # bits, since -0.0 == 0.0.
    cdf = np.array([
        [-0.0, 0.0, 0.25, 0.25, 1.0],
        [0.0, -0.0, -0.0, 0.25, 1.0],
        [0.0, 0.25, 0.25, 1.0, 1.0],
    ])
    calibration = Calibration(
        point_ids=np.array([4, 0, 4]),
        distributions=ScoreBatch(
            n_samples=4, mean=np.array([0.5, 0.0, -0.0]),
            variance=np.array([0.0, 0.0, 0.0625]), grid=BinGrid.uniform(7), cdf=cdf,
        ),
        lower_bounds=np.array([0.125, -0.0, 0.125]),
        corrected_lower_bounds=np.array([0.0, 0.0, -0.0]) if eta > 0.0 else None,
        thresholds=thresholds,
    )
    formats.write_calibration_artifact(tmp_path / "b.json", calibration, echo)
    text = (tmp_path / "b.json").read_text()
    assert text == _reference_artifact_text(calibration, echo)
    assert "-0.0" in text
    # Non-finite point columns take json.dumps's spellings, beside finite
    # values and each other.
    calibration.lower_bounds = np.array([-np.inf, np.inf, np.nan])
    if eta > 0.0:
        calibration.corrected_lower_bounds = np.array([np.nan, 0.125, -np.inf])
    formats.write_calibration_artifact(tmp_path / "c.json", calibration, echo)
    text = (tmp_path / "c.json").read_text()
    assert text == _reference_artifact_text(calibration, echo)
    for spelling in ('"lower_bound": -Infinity', '"lower_bound": Infinity', '"lower_bound": NaN'):
        assert spelling in text


@pytest.mark.parametrize("eta", [0.0, 0.02])
def test_artifact_writer_in_point_blocks(tmp_path, monkeypatch, eta):
    """The artifact is written a block of points at a time, with the same
    bytes at any block size and without ever holding its whole text."""
    import tracemalloc

    from robustcp.bounds import L2Ball
    from robustcp.evasion import EvasionConfig, calibrate as calibrate_points
    from robustcp.smoothing import BinGrid, GaussianNoise, summarize_samples

    rng = substream(50, "artifact-blocks")
    samples = np.clip(rng.normal(rng.uniform(0, 1, (1000, 1)), 0.2, (1000, 40)), 0, 1)
    config = EvasionConfig(
        scheme=GaussianNoise(0.25), model=L2Ball(0.125), grid=BinGrid.uniform(51), eta=eta
    )
    calibration = calibrate_points(summarize_samples(samples, config.grid), 0.1, config)
    echo = {"alpha": 0.1, "eta": eta}
    want = _reference_artifact_text(calibration, echo)
    for block_points in (1, 7, 16, 1000, 5000):
        monkeypatch.setattr(formats, "_WRITE_BLOCK_POINTS", block_points)
        path = tmp_path / f"a{block_points}.json"
        if block_points == 16:
            tracemalloc.start()
        try:
            formats.write_calibration_artifact(path, calibration, echo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == want, block_points
        if block_points == 16:
            assert peak < len(want) / 4, (peak, len(want))


def test_predict_rejects_malformed_artifact_points(workspace):
    """Any one bad point in an artifact is malformed input (exit 2)."""
    artifact = calibrate(workspace)
    payload = json.loads(artifact.read_text())
    n_edges = len(payload["points"][0]["cdf"])

    def edit_point(point, **fields):
        points = [dict(p) for p in payload["points"]]
        points[point].update(fields)
        return points

    cases = {
        "cdf not monotone": edit_point(3, cdf=[1.0] + [0.0] * (n_edges - 1)),
        "mean above 1": edit_point(7, mean=1.5),
        "mean below 0": edit_point(0, mean=-0.25),
        "variance over its cap": edit_point(11, variance=0.5),
        "every cdf one short": [
            {**p, "cdf": p["cdf"][:-1]} for p in payload["points"]
        ],
        "ragged cdf": edit_point(5, cdf=payload["points"][5]["cdf"] + [1.0]),
        "NaN in a cdf": edit_point(
            9, cdf=[float("nan") if i == n_edges // 2 else v
                    for i, v in enumerate(payload["points"][9]["cdf"])]
        ),
    }
    for name, points in cases.items():
        path = workspace / "malformed.json"
        path.write_text(json.dumps({**payload, "points": points}))
        assert predict(workspace, path, "malformed") == 2, name
    assert not (workspace / "malformed" / "sets.csv").exists()


def test_predict_rejects_artifact_without_one_sample_count(workspace):
    artifact = calibrate(workspace)
    payload = json.loads(artifact.read_text())
    mixed = [dict(p) for p in payload["points"]]
    mixed[2]["n_samples"] += 1
    for points in (mixed, []):
        path = workspace / "odd.json"
        path.write_text(json.dumps({**payload, "points": points}))
        assert predict(workspace, path, "odd") == 2


def test_calibrate_with_eta_adds_corrected_threshold(workspace):
    artifact = calibrate(workspace, out="calib-eta", extra=("--set", "eta=0.01"))
    thresholds = formats.read_calibration_artifact(artifact)[0].thresholds
    assert thresholds["corrected"] <= thresholds["calibration-time"]


def test_predict_outputs_and_nesting(workspace):
    artifact = calibrate(workspace)
    code = run_cli(
        "predict",
        "--artifact", str(artifact),
        "--scores", str(workspace / "test.csv"),
        "--labels", str(workspace / "test-labels.csv"),
        "--out", str(workspace / "pred"),
        "--set", "sigma=0.25", "--set", "radius=0.125",
    )
    assert code == 0
    sets = formats.read_sets_csv(workspace / "pred" / "sets.csv")
    assert set(sets) == {"vanilla", "robust"}
    for pid, members in sets["vanilla"].items():
        assert members <= sets["robust"].get(pid, frozenset())
    metrics = json.loads((workspace / "pred" / "metrics.json").read_text())
    assert set(metrics["methods"]) == {"vanilla", "robust"}
    for report in metrics["methods"].values():
        assert 0.0 <= report["coverage"] <= 1.0
    assert (workspace / "pred" / "resolved-config.cfg").exists()


def test_predict_is_byte_deterministic(workspace):
    artifact = calibrate(workspace)
    args = (
        "predict",
        "--artifact", str(artifact),
        "--scores", str(workspace / "test.csv"),
        "--labels", str(workspace / "test-labels.csv"),
        "--set", "sigma=0.25", "--set", "radius=0.125",
    )
    assert run_cli(*args, "--out", str(workspace / "p1")) == 0
    assert run_cli(*args, "--out", str(workspace / "p2")) == 0
    for name in ("sets.csv", "metrics.json", "resolved-config.cfg"):
        assert (workspace / "p1" / name).read_bytes() == (
            workspace / "p2" / name
        ).read_bytes()


def test_predict_empty_input_exits_zero(workspace):
    artifact = calibrate(workspace)
    formats.atomic_write_text(
        workspace / "empty.csv", "point_id,class_id,sample_id,score\n"
    )
    code = run_cli(
        "predict",
        "--artifact", str(artifact),
        "--scores", str(workspace / "empty.csv"),
        "--out", str(workspace / "pred-empty"),
        "--set", "sigma=0.25", "--set", "radius=0.125",
    )
    assert code == 0
    sets = formats.read_sets_csv(workspace / "pred-empty" / "sets.csv")
    assert all(len(v) == 0 for v in sets.values())


def predict(ws, artifact, out, *extra):
    return run_cli(
        "predict",
        "--artifact", str(artifact),
        "--scores", str(ws / "test.csv"),
        "--labels", str(ws / "test-labels.csv"),
        "--out", str(ws / out),
        *extra,
    )


def test_predict_takes_threat_model_from_artifact(workspace):
    artifact = calibrate(workspace)
    assert predict(workspace, artifact, "bare") == 0
    assert predict(
        workspace, artifact, "flagged", "--set", "sigma=0.25", "--set", "radius=0.125"
    ) == 0
    for name in ("sets.csv", "metrics.json", "resolved-config.cfg"):
        assert (workspace / "bare" / name).read_bytes() == (
            workspace / "flagged" / name
        ).read_bytes()


def test_predict_rejects_settings_that_contradict_the_artifact(workspace, tmp_path):
    artifact = calibrate(workspace)
    assert predict(workspace, artifact, "p", "--set", "radius=0.5") == 4
    assert predict(workspace, artifact, "p", "--set", "bound_kind=mean") == 4
    config = tmp_path / "run.cfg"
    config.write_text("sigma = 0.5\n")
    assert predict(workspace, artifact, "p", "--config", str(config)) == 4
    # mode is chosen at predict time: the artifact holds both thresholds.
    assert predict(workspace, artifact, "p", "--set", "mode=calibration-time") == 0


def test_predict_rechecks_artifact_thresholds(workspace):
    """Every stored threshold must be the quantile of the stored points, exactly."""
    artifact = calibrate(
        workspace, out="calib-eta",
        extra=("--set", "eta=0.01", "--set", "mode=calibration-time"),
    )
    mode = ("--set", "mode=calibration-time")
    assert predict(workspace, artifact, "trusted", *mode) == 0
    payload = json.loads(artifact.read_text())
    assert set(payload["thresholds"]) == {"vanilla", "calibration-time", "corrected"}

    def rewritten(thresholds):
        path = workspace / "edited.json"
        path.write_text(json.dumps({**payload, "thresholds": thresholds}))
        return path

    # Re-serialized but unchanged, the artifact predicts the same sets.
    assert predict(workspace, rewritten(payload["thresholds"]), "same", *mode) == 0
    for name in ("sets.csv", "metrics.json"):
        assert (workspace / "same" / name).read_bytes() == (
            workspace / "trusted" / name
        ).read_bytes()
    # Zeroed thresholds, or one float step down on any one threshold, are caught.
    edits = [{name: 0.0 for name in payload["thresholds"]}]
    for name, value in payload["thresholds"].items():
        edits.append({**payload["thresholds"], name: float(np.nextafter(value, -np.inf))})
    for edited in edits:
        assert predict(workspace, rewritten(edited), "tampered", *mode) == 3
    assert not (workspace / "tampered" / "sets.csv").exists()


def test_corrected_predict_spends_through_one_ledger_per_call(workspace, monkeypatch):
    artifact = calibrate(
        workspace, out="calib-eta",
        extra=("--set", "eta=0.01", "--set", "mode=calibration-time"),
    )
    spends = []
    original = BudgetLedger.spend

    def counted(self, label, amount):
        spends.append(label)
        return original(self, label, amount)

    monkeypatch.setattr(BudgetLedger, "spend", counted)
    assert predict(workspace, artifact, "pred-eta", "--set", "mode=calibration-time") == 0
    # One ledger for all 8 points: the calibration side, then the 3 classes.
    assert spends == ["calibration side"] + [f"class {c} mean radius" for c in range(3)]
    sets = formats.read_sets_csv(workspace / "pred-eta" / "sets.csv")
    assert set(sets) == {"vanilla", "robust", "corrected"}


# --------------------------------------------------- block reads and writes --


def _block_inputs(tmp_path, n_points=23, n_classes=3, n_samples=40):
    """A float32-exact tensor as .bin and .csv, labels, and a calibrated artifact."""
    rng = substream(48, "cli-blocks")
    labels = rng.integers(0, n_classes, n_points)
    centre = rng.uniform(0.05, 0.5, (n_points, n_classes))
    centre[range(n_points), labels] += 0.4
    noise = rng.normal(0.0, 0.15, (n_points, n_classes, n_samples))
    tensor = (centre[:, :, None] + noise).clip(0.0, 1.0).astype(np.float32).astype(float)
    for suffix in (".bin", ".csv"):
        formats.write_score_tensor(tmp_path / f"scores{suffix}", tensor)
    formats.write_labels_csv(tmp_path / "labels.csv", labels)
    return tensor


def _calibrate_predict(tmp_path, scores, out):
    flags = ("--set", "sigma=0.25", "--set", "radius=0.125")
    labels = str(tmp_path / "labels.csv")
    codes = (
        run_cli("calibrate", "--scores", str(scores), "--labels", labels,
                "--out", str(out), *flags),
        run_cli("predict", "--artifact", str(out / "calibration.json"),
                "--scores", str(scores), "--labels", labels,
                "--out", str(out / "predict"), *flags),
    )
    return codes, [
        (out / name).read_bytes()
        for name in ("calibration.json", "predict/sets.csv", "predict/metrics.json")
    ]


def test_block_reads_change_no_bits(tmp_path, monkeypatch):
    """Blocks smaller than a point, not dividing the points, or larger than
    the tensor: the outputs are those of the one-block CSV read."""
    tensor = _block_inputs(tmp_path)  # 23 points of 3 x 40 = 120 scores
    codes, want = _calibrate_predict(tmp_path, tmp_path / "scores.csv", tmp_path / "csv")
    assert codes == (0, 0)
    blob = (tmp_path / "scores.bin").read_bytes()
    whole = np.frombuffer(blob, dtype="<f4", offset=18).reshape(tensor.shape).astype(float)
    np.testing.assert_array_equal(whole, tensor)
    for block_values in (50, 4 * 120, 10**6):
        monkeypatch.setattr(formats, "_READ_BLOCK_VALUES", block_values)
        for suffix in (".bin", ".csv"):
            got = formats.read_score_tensor(tmp_path / f"scores{suffix}")
            np.testing.assert_array_equal(got, whole)
            out = tmp_path / f"run-{block_values}{suffix}"
            codes, outputs = _calibrate_predict(tmp_path, tmp_path / f"scores{suffix}", out)
            assert codes == (0, 0)
            assert outputs == want, (block_values, suffix)


def _edit_last_block(blob: bytes, offset_from_end: int, value: float) -> bytes:
    data = bytearray(blob)
    at = len(data) - 4 * offset_from_end
    data[at:at + 4] = np.array([value], dtype="<f4").tobytes()
    return bytes(data)


@pytest.mark.parametrize("case", ["nan in the last point", "1.5 in the last block",
                                  "truncated by 4 bytes"])
def test_late_block_failures_leave_no_outputs(tmp_path, monkeypatch, capsys, case):
    _block_inputs(tmp_path)
    codes, _ = _calibrate_predict(tmp_path, tmp_path / "scores.bin", tmp_path / "ok")
    assert codes == (0, 0)
    monkeypatch.setattr(formats, "_READ_BLOCK_VALUES", 4 * 120)
    blob = (tmp_path / "scores.bin").read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes({
        "nan in the last point": lambda: _edit_last_block(blob, 7, float("nan")),
        "1.5 in the last block": lambda: _edit_last_block(blob, 200, 1.5),
        "truncated by 4 bytes": lambda: blob[:-4],
    }[case]())
    labels = str(tmp_path / "labels.csv")
    flags = ("--set", "sigma=0.25", "--set", "radius=0.125")
    capsys.readouterr()
    assert run_cli("calibrate", "--scores", str(bad), "--labels", labels,
                   "--out", str(tmp_path / "cal"), *flags) == 2
    assert run_cli("predict", "--artifact", str(tmp_path / "ok" / "calibration.json"),
                   "--scores", str(bad), "--labels", labels,
                   "--out", str(tmp_path / "pred"), *flags) == 2
    for out in ("cal", "pred"):
        assert list((tmp_path / out).iterdir()) == []
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and errors[0] == errors[1], errors


def test_header_size_and_label_errors_come_before_the_payload(tmp_path, capsys):
    """A payload that is bad from its first score is never read when the
    header, the size or the labels are wrong already."""
    _block_inputs(tmp_path)
    blob = bytearray((tmp_path / "scores.bin").read_bytes())
    blob[18:22] = np.array([np.nan], dtype="<f4").tobytes()
    bad_version = bytes(blob[:4]) + (2).to_bytes(2, "little") + bytes(blob[6:])
    cases = {
        "version": (bad_version, "labels.csv"),
        "payload size": (bytes(blob) + b"\0\0\0\0", "labels.csv"),
        "number of points": (bytes(blob), "short-labels.csv"),
        "finite": (bytes(blob), "labels.csv"),
    }
    formats.write_labels_csv(tmp_path / "short-labels.csv", [0, 1])
    for want, (data, labels) in cases.items():
        (tmp_path / "bad.bin").write_bytes(data)
        code = run_cli("calibrate", "--scores", str(tmp_path / "bad.bin"),
                       "--labels", str(tmp_path / labels), "--out", str(tmp_path / "x"))
        assert code == 2
        assert want in capsys.readouterr().err, want


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_the_mode_open_would_give(tmp_path, umask, mode):
    _block_inputs(tmp_path)
    previous = os.umask(umask)
    try:
        codes, _ = _calibrate_predict(tmp_path, tmp_path / "scores.bin", tmp_path / "out")
    finally:
        os.umask(previous)
    assert codes == (0, 0)
    for name in ("calibration.json", "resolved-config.cfg", "predict/sets.csv",
                 "predict/metrics.json", "predict/resolved-config.cfg"):
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == mode, name


def test_calibrate_and_predict_never_hold_the_whole_tensor(tmp_path, monkeypatch):
    """numpy reports its buffers to tracemalloc: with small read blocks the
    traced peak stays below half of the tensor as float64."""
    import tracemalloc

    n_points, n_classes, n_samples = 100, 10, 1000
    rng = substream(49, "cli-memory")
    tensor = rng.uniform(0.0, 1.0, (n_points, n_classes, n_samples))
    formats.write_score_tensor(tmp_path / "scores.bin", tensor)
    formats.write_labels_csv(tmp_path / "labels.csv", rng.integers(0, n_classes, n_points))
    del tensor
    monkeypatch.setattr(formats, "_READ_BLOCK_VALUES", 1 << 16)
    scores, labels = str(tmp_path / "scores.bin"), str(tmp_path / "labels.csv")
    commands = {
        "calibrate": ["calibrate", "--scores", scores, "--labels", labels,
                      "--out", str(tmp_path / "cal")],
        "predict": ["predict", "--artifact", str(tmp_path / "cal" / "calibration.json"),
                    "--scores", scores, "--labels", labels, "--out", str(tmp_path / "pred")],
    }
    limit = n_points * n_classes * n_samples * 8 / 2
    for name, argv in commands.items():
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < limit, f"{name}: traced peak {peak} bytes, limit {limit:.0f}"


def test_certify_poisoning_feature_with_oracle(workspace):
    rng = substream(43, "certify")
    scores = rng.uniform(0.3, 1.0, 10)
    lower = scores - rng.uniform(0.0, 0.2, 10)
    formats.write_feature_bounds_csv(workspace / "fb.csv", scores, lower)
    code = run_cli(
        "certify-poisoning",
        "--input", str(workspace / "fb.csv"),
        "--out", str(workspace / "cert"),
        "--set", "poison_budget=2",
        "--check-oracle",
    )
    assert code == 0
    payload = formats.read_witness_json(workspace / "cert" / "witness.json")
    assert payload["budget"] == 2
    witness = PoisonWitness(
        indices=tuple(payload["witness"]["indices"]),
        values=tuple(payload["witness"].get("values", ())),
    )
    assert (
        replay_feature_witness(scores, witness, payload["alpha"])
        == payload["threshold"]
    )


def test_certify_poisoning_label_kind(workspace):
    rng = substream(44, "certify-label")
    matrix = rng.uniform(0, 1, (8, 3))
    labels = rng.integers(0, 3, 8)
    formats.write_score_matrix_csv(workspace / "m.csv", matrix)
    formats.write_labels_csv(workspace / "m-labels.csv", labels)
    code = run_cli(
        "certify-poisoning",
        "--input", str(workspace / "m.csv"),
        "--labels", str(workspace / "m-labels.csv"),
        "--out", str(workspace / "cert-l"),
        "--set", "poison_kind=label", "--set", "poison_budget=1",
        "--check-oracle",
    )
    assert code == 0


@pytest.mark.parametrize(
    "labels", [[0, 1, 2, 0, 1], [0, 1, 2, 7, 1, 0]], ids=["5-rows", "label-7"]
)
def test_certify_label_kind_refuses_labels_that_do_not_fit(workspace, labels, capsys):
    """A labels file that does not fit the 6x3 matrix is malformed input, as in calibrate."""
    formats.write_score_matrix_csv(
        workspace / "m.csv", substream(49, "certify-labels").uniform(0, 1, (6, 3))
    )
    formats.write_labels_csv(workspace / "m-labels.csv", labels)
    code = run_cli(
        "certify-poisoning",
        "--input", str(workspace / "m.csv"),
        "--labels", str(workspace / "m-labels.csv"),
        "--out", str(workspace / "cert-l"),
        "--set", "poison_kind=label", "--set", "poison_budget=1",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workspace / "cert-l" / "witness.json").exists()


def _one_sample_tensor(ws):
    formats.write_score_tensor(ws / "one.bin", substream(50, "one-sample").uniform(0, 1, (4, 3, 1)))
    formats.write_labels_csv(ws / "one-labels.csv", [0, 1, 2, 0])


def _feature_bound_above_score(ws):
    (ws / "b.csv").write_text("point_id,score,lower_bound\n0,0.5,0.6\n1,0.4,0.1\n2,0.9,0.2\n")


def _edited_thresholds(edit):
    """An input writer that rewrites the calibrated artifact's thresholds with ``edit``."""
    def write(ws):
        artifact = ws / "calib" / "calibration.json"
        payload = json.loads(artifact.read_text())
        artifact.write_text(json.dumps({**payload, "thresholds": edit(payload["thresholds"])}))
    return write


_PREDICT = ["predict", "--artifact", "{ws}/calib/calibration.json", "--scores",
            "{ws}/test.csv", "--labels", "{ws}/test-labels.csv", "--out", "{ws}/out"]

# Input files with a defect that only shows once they are read: each
# case writes its inputs, then names the command that reads them.
_DEFECTIVE_INPUTS = {
    "feature-lower-above-score": (
        _feature_bound_above_score,
        ["certify-poisoning", "--input", "{ws}/b.csv", "--out", "{ws}/out",
         "--set", "poison_kind=feature", "--set", "poison_budget=1"],
    ),
    "calibrate-one-sample": (
        _one_sample_tensor,
        ["calibrate", "--scores", "{ws}/one.bin", "--labels", "{ws}/one-labels.csv",
         "--out", "{ws}/out", "--set", "sigma=0.25", "--set", "radius=0.125"],
    ),
    "predict-one-sample": (
        _one_sample_tensor,
        ["predict", "--artifact", "{ws}/calib/calibration.json", "--scores", "{ws}/one.bin",
         "--labels", "{ws}/one-labels.csv", "--out", "{ws}/out",
         "--set", "sigma=0.25", "--set", "radius=0.125"],
    ),
    # The method names alone, as a list: the right names in the wrong type.
    "predict-thresholds-list": (_edited_thresholds(list), _PREDICT),
    "predict-thresholds-without-vanilla": (
        _edited_thresholds(lambda t: {k: v for k, v in t.items() if k != "vanilla"}), _PREDICT,
    ),
    # A corrected threshold on an artifact that stores no corrected bounds.
    "predict-thresholds-extra-corrected": (
        _edited_thresholds(lambda t: {**t, "corrected": t["calibration-time"]}), _PREDICT,
    ),
}


@pytest.mark.parametrize("case", sorted(_DEFECTIVE_INPUTS))
def test_defective_input_files_exit_2(workspace, case, capsys):
    """A defect of an input file is malformed input (exit 2), not an
    invariant violation (exit 3), and no output file is written."""
    write_inputs, argv = _DEFECTIVE_INPUTS[case]
    calibrate(workspace)
    write_inputs(workspace)
    capsys.readouterr()
    code = run_cli(*(arg.format(ws=workspace) for arg in argv))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any((workspace / "out").glob("*"))


_CALIBRATE = ["calibrate", "--scores", "{ws}/cal.csv", "--labels", "{ws}/cal-labels.csv",
              "--out", "{ws}/out"]
_SIMULATE = ["simulate", "--out", "{ws}/out", "--set", "n_trials=1", "--set", "n_cal=10",
             "--set", "n_test=2", "--set", "n_samples=50", "--set", "attack_samples=8"]

# Configuration values that the smoothing scheme, the threat model or the
# grid refuses: each case is a command line.
_DEFECTIVE_CONFIGS = {
    "calibrate-sigma-0": [*_CALIBRATE, "--set", "sigma=0"],
    "calibrate-radius-negative": [*_CALIBRATE, "--set", "radius=-1"],
    "calibrate-radius-nan": [*_CALIBRATE, "--set", "radius=nan"],
    "calibrate-additions-negative": [*_CALIBRATE, "--set", "scheme=sparse",
                                     "--set", "additions=-1"],
    "calibrate-p0-above-1": [*_CALIBRATE, "--set", "scheme=sparse", "--set", "p0=1.5"],
    "calibrate-grid-edges-1": [*_CALIBRATE, "--set", "grid_edges=1"],
    "simulate-evasion-sigma-0": [*_SIMULATE, "--set", "sigma=0"],
    "simulate-feature-poison-p1-1": [*_SIMULATE, "--set", "experiment=feature-poison",
                                     "--set", "task=binary-linear", "--set", "p1=1"],
    "simulate-corrected-flips-negative": [*_SIMULATE, "--set", "experiment=corrected",
                                          "--set", "eta=0.01", "--set", "task=binary-linear",
                                          "--set", "flips=1:-1"],
    "simulate-evasion-grid-edges-2": [*_SIMULATE, "--set", "grid_edges=2"],
    "simulate-corrected-n-samples-1": [*_SIMULATE, "--set", "experiment=corrected",
                                       "--set", "eta=0.01", "--set", "n_samples=1"],
    "simulate-evasion-radii-empty": [*_SIMULATE, "--set", "radii="],
    "simulate-feature-poison-flips-empty": [*_SIMULATE, "--set", "experiment=feature-poison",
                                            "--set", "task=binary-linear", "--set", "flips="],
    "simulate-label-poison-budget-negative": [*_SIMULATE, "--set", "experiment=label-poison",
                                              "--set", "budgets=-1,0"],
    "simulate-marginal-alphas-1.5": [*_SIMULATE, "--set", "experiment=marginal",
                                     "--set", "alphas=1.5"],
    "simulate-n-classes-1": [*_SIMULATE, "--set", "n_classes=1"],
    "simulate-noise-0": [*_SIMULATE, "--set", "noise=0"],
    "simulate-noise-inf": [*_SIMULATE, "--set", "noise=inf"],
    # Finite, but 1 / noise**2 underflows the square to 0 or overflows it.
    "simulate-noise-1e-170": [*_SIMULATE, "--set", "noise=1e-170"],
    "simulate-noise-1e200": [*_SIMULATE, "--set", "noise=1e200"],
    "simulate-binary-dim-100": [*_SIMULATE, "--set", "task=binary-linear", "--set", "dim=100"],
    "simulate-binary-strength-0.7": [*_SIMULATE, "--set", "task=binary-linear",
                                     "--set", "strength=0.7"],
    "simulate-evasion-attack-samples-0": [*_SIMULATE, "--set", "attack_samples=0"],
}


@pytest.mark.parametrize("case", sorted(_DEFECTIVE_CONFIGS))
def test_defective_configs_exit_4(workspace, case, capsys):
    """An out-of-range configuration value is a configuration error (exit
    4), not an invariant violation (exit 3), and nothing is written."""
    code = run_cli(*(arg.format(ws=workspace) for arg in _DEFECTIVE_CONFIGS[case]))
    assert code == 4
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (workspace / "out").exists()


def test_certify_oracle_refuses_large_instances(workspace):
    rng = substream(45, "certify-big")
    scores = rng.uniform(0, 1, 40)
    formats.write_feature_bounds_csv(workspace / "big.csv", scores, scores / 2)
    code = run_cli(
        "certify-poisoning",
        "--input", str(workspace / "big.csv"),
        "--out", str(workspace / "cert-big"),
        "--set", "poison_budget=2",
        "--check-oracle",
    )
    assert code == 4
    # Without the flag the same input certifies fine.
    code = run_cli(
        "certify-poisoning",
        "--input", str(workspace / "big.csv"),
        "--out", str(workspace / "cert-big"),
        "--set", "poison_budget=2",
    )
    assert code == 0


def test_simulate_small_run_and_rerun(workspace, monkeypatch):
    monkeypatch.setenv("ROBUSTCP_WORKERS", "1")
    args = (
        "simulate",
        "--set", "experiment=marginal",
        "--set", "n_trials=3",
        "--set", "n_cal=30",
        "--set", "n_test=30",
        "--set", "alphas=0.1,0.2",
    )
    assert run_cli(*args, "--out", str(workspace / "sim1")) == 0
    assert run_cli(*args, "--out", str(workspace / "sim2")) == 0
    for rel in ("trials.jsonl", "aggregate.csv", "resolved-config.cfg"):
        assert (workspace / "sim1" / rel).read_bytes() == (
            workspace / "sim2" / rel
        ).read_bytes()


def test_simulate_corrected_needs_a_positive_eta(workspace):
    # The schema's eta = 0 turns corrections off, so the corrected
    # experiment refuses it before running any trial.
    out = workspace / "corrected"
    args = ("simulate", "--out", str(out), "--set", "experiment=corrected")
    assert run_cli(*args, "--set", "n_trials=1") == 4
    assert not out.exists()
    for eta in (0.0, 0.1, 0.2):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kind="corrected", alpha=0.1, eta=eta)
    assert ExperimentConfig(kind="corrected", alpha=0.1, eta=0.01).eta == 0.01
    assert ExperimentConfig(kind="evasion", alpha=0.1, eta=0.0).eta == 0.0


def test_exit_code_input_error(workspace):
    code = run_cli(
        "calibrate",
        "--scores", str(workspace / "missing.csv"),
        "--labels", str(workspace / "cal-labels.csv"),
        "--out", str(workspace / "x"),
    )
    assert code == 2
    code = run_cli("simulate", "--out", str(workspace / "x"), "--set", "bogus=1")
    assert code == 2
    # A test label must index a class of the test tensor (here 3 classes).
    formats.write_labels_csv(workspace / "bad-labels.csv", [0, 1, 2, 3, 0, 1, 2, 0])
    code = run_cli(
        "predict",
        "--artifact", str(calibrate(workspace)),
        "--scores", str(workspace / "test.csv"),
        "--labels", str(workspace / "bad-labels.csv"),
        "--out", str(workspace / "x"),
    )
    assert code == 2


def test_exit_code_configuration_conflict(workspace):
    code = run_cli(
        "calibrate",
        "--scores", str(workspace / "cal.csv"),
        "--labels", str(workspace / "cal-labels.csv"),
        "--out", str(workspace / "x"),
        "--set", "scheme=sparse", "--set", "radius=0.5",
    )
    assert code == 4
    code = run_cli(
        "calibrate",
        "--scores", str(workspace / "cal.csv"),
        "--labels", str(workspace / "cal-labels.csv"),
        "--out", str(workspace / "x"),
        "--set", "alpha=1.5",
    )
    assert code == 4


def test_exit_code_invariant_violation(workspace):
    # eta must stay below alpha once corrections are on.
    code = run_cli(
        "calibrate",
        "--scores", str(workspace / "cal.csv"),
        "--labels", str(workspace / "cal-labels.csv"),
        "--out", str(workspace / "x"),
        "--set", "sigma=0.25", "--set", "radius=0.125",
        "--set", "alpha=0.05", "--set", "eta=0.2",
    )
    assert code == 4


# A solver that returns its threshold plus 0.01, run through the CLI.
_OFF_BY_A_BIT = """
import dataclasses, sys
from robustcp import poisoning
from robustcp.cli import main

solve = poisoning._rank_search

def off_by_a_bit(*args):
    result = solve(*args)
    return dataclasses.replace(result, threshold=result.threshold + 0.01)

poisoning._rank_search = off_by_a_bit
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("kind", ["feature", "label"])
def test_certify_checks_survive_optimized_mode(workspace, kind):
    """Under ``python -O`` a wrong threshold still fails its replay and oracle checks."""
    rng = substream(46, "certify-O", kind)
    if kind == "feature":
        scores = rng.uniform(0.3, 1.0, 10)
        formats.write_feature_bounds_csv(workspace / "in.csv", scores, scores - 0.1)
        inputs = ["--input", str(workspace / "in.csv")]
    else:
        formats.write_score_matrix_csv(workspace / "in.csv", rng.uniform(0, 1, (10, 3)))
        formats.write_labels_csv(workspace / "in-labels.csv", rng.integers(0, 3, 10))
        inputs = ["--input", str(workspace / "in.csv"),
                  "--labels", str(workspace / "in-labels.csv")]
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OFF_BY_A_BIT, "certify-poisoning", *inputs,
         "--out", str(workspace / "cert"), "--set", f"poison_kind={kind}",
         "--set", "poison_budget=2", "--check-oracle"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 3, result.stderr
    assert "witness replay gives" in result.stderr
    assert "brute-force oracle gives" in result.stderr
    assert not (workspace / "cert" / "witness.json").exists()


def test_package_has_no_assert_statements():
    """Invariant checks raise explicitly, so ``python -O`` cannot strip them."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "robustcp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
