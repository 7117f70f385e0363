"""On-disk formats: score tensors, labels, configs, artifacts, results.

Every writer is atomic (temp file + rename into place) and
deterministic: identical in-memory content always serializes to
identical bytes.  Every reader validates headers and versions and
raises :class:`~robustcp.errors.InputError` on anything malformed, so
the command-line layer can map bad files to a stable exit code.

Formats are documented field by field in ``docs/formats.md``.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError
from .smoothing import BinGrid, ScoreBatch

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "write_score_tensor",
    "read_score_blocks",
    "read_score_tensor",
    "write_labels_csv",
    "read_labels_csv",
    "write_score_matrix_csv",
    "read_score_matrix_csv",
    "write_feature_bounds_csv",
    "read_feature_bounds_csv",
    "ConfigField",
    "parse_config_text",
    "parse_override",
    "resolve_config",
    "render_config",
    "write_calibration_artifact",
    "read_calibration_artifact",
    "write_sets_csv",
    "read_sets_csv",
    "write_metrics_json",
    "write_witness_json",
    "read_witness_json",
]

SCORES_HEADER = ["point_id", "class_id", "sample_id", "score"]
TENSOR_MAGIC = b"RCPT"
TENSOR_VERSION = 1
ARTIFACT_FORMAT = "robustcp-calibration"
ARTIFACT_VERSION = 1
WITNESS_FORMAT = "robustcp-poisoning"
WITNESS_VERSION = 1
# float32 values read per block of a packed tensor, rounded down to whole
# points (at least one).
_READ_BLOCK_VALUES = 1 << 20
# Calibration points formatted per piece of a written artifact.
_WRITE_BLOCK_POINTS = 256


def _atomic_write(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` in order to ``path`` via a temp file in the same directory.

    The file gets the mode ``open()`` gives a new file, ``0o666`` less
    the umask; ``mkstemp`` alone would leave it owner-only.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file in the same directory."""
    _atomic_write(path, (data,))


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf8"))


def _parse_rows(lines, dtype: np.dtype) -> np.ndarray:
    """CSV rows as one record per row, in numpy's number grammar (blank lines skipped)."""
    with warnings.catch_warnings():
        # Text with no rows is an empty table here, not a warning.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            lines, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1
        )


def _read_table(path: Path, header: list[str], kinds: list[type]) -> list[np.ndarray]:
    """The columns of a CSV file with exactly ``header``, one array per column.

    ``kinds`` types each column, ``int`` or ``float``.  The rows are
    parsed in one numpy pass; only when that pass refuses them, or skips
    a blank line, does a per-line pass look for the bad line to name.
    """
    if not path.exists():
        raise InputError(f"{path}: no such file")
    dtype = np.dtype(list(zip(header, kinds)))
    with open(path) as handle:
        if next(csv.reader([handle.readline()]), None) != header:
            raise InputError(f"{path}: expected header {','.join(header)}")
        body = handle.tell()
        try:
            rows = _parse_rows(handle, dtype)
        except ValueError:
            rows = None
        handle.seek(body)
        # numpy skips blank lines, so a row count short of the line count finds them.
        if rows is None or rows.size != _count_lines(handle):
            handle.seek(body)
            raise _bad_line(path, handle, header, dtype)
    return [np.ascontiguousarray(rows[name]) for name in header]


def _write_table(path: str | Path, header: list[str], columns: Sequence) -> None:
    """Write a CSV file of ``header`` and one row per entry of the equal-length ``columns``.

    The twin of :func:`_read_table`.  A float column is written with
    ``float.__repr__``, any other column as its Python values; rows go
    through ``csv.writer``, which quotes a string cell as needed.
    """
    cells = [
        map(float.__repr__, column.tolist()) if column.dtype.kind == "f" else column.tolist()
        for column in map(np.asarray, columns)
    ]
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*cells))
    atomic_write_text(path, "".join(lines))


def _count_lines(handle) -> int:
    """Lines left in a text file, read in blocks; a last line needs no newline."""
    count, last = 0, "\n"
    for block in iter(lambda: handle.read(1 << 20), ""):
        count += block.count("\n")
        last = block[-1]
    return count + (last != "\n")


def _bad_line(path: Path, lines, header: list[str], dtype: np.dtype) -> InputError:
    """The error naming the first data line that is not one row on its own."""
    for lineno, line in enumerate(lines, start=2):
        if len(next(csv.reader([line]), [])) != len(header):
            return InputError(f"{path}:{lineno}: expected {len(header)} columns")
        try:
            _parse_rows([line], dtype)
        except ValueError as exc:
            return InputError(f"{path}:{lineno}: {exc}")
    # Every line is a row on its own, so a quote left open joins lines.
    return InputError(f"{path}: a quoted cell runs across lines")


# ------------------------------------------------------------ score tensors --


def _tensor_from_csv(path: Path) -> np.ndarray:
    *ids, scores = _read_table(path, SCORES_HEADER, [int, int, int, float])
    if not scores.size:
        return np.empty((0, 0, 0))
    shape = tuple(int(column.max()) + 1 for column in ids)
    if scores.size != shape[0] * shape[1] * shape[2]:
        raise InputError(f"{path}: ids must form a full grid starting at 0")
    tensor = np.full(shape, np.nan)
    tensor[tuple(ids)] = scores
    if np.isnan(tensor).any():
        raise InputError(f"{path}: duplicate or missing (point, class, sample) ids")
    return tensor


def _tensor_to_binary(tensor: np.ndarray) -> bytes:
    header = TENSOR_MAGIC + struct.pack("<HIII", TENSOR_VERSION, *tensor.shape)
    return header + np.ascontiguousarray(tensor, dtype="<f4").tobytes()


_HEAD_SIZE = len(TENSOR_MAGIC) + struct.calcsize("<HIII")


def _binary_shape(path: Path) -> tuple[int, int, int]:
    """The dims of a packed tensor whose header, version and payload size check out."""
    with open(path, "rb") as handle:
        head = handle.read(_HEAD_SIZE)
        if len(head) < _HEAD_SIZE or head[:4] != TENSOR_MAGIC:
            raise InputError(f"{path}: not a packed score tensor")
        version, n_points, n_classes, n_samples = struct.unpack("<HIII", head[4:])
        if version != TENSOR_VERSION:
            raise InputError(f"{path}: unsupported tensor version {version}")
        size = n_points * n_classes * n_samples
        if os.fstat(handle.fileno()).st_size - _HEAD_SIZE != 4 * size:
            raise InputError(f"{path}: payload size does not match the declared dims")
    return n_points, n_classes, n_samples


def _binary_blocks(path: Path, shape: tuple[int, int, int]):
    """The payload of a packed tensor in blocks of whole points, widened to float64."""
    n_points, n_classes, n_samples = shape
    per = max(1, _READ_BLOCK_VALUES // max(1, n_classes * n_samples))
    buffer = np.empty(min(n_points, per) * n_classes * n_samples, dtype="<f4")
    with open(path, "rb") as handle:
        handle.seek(_HEAD_SIZE)
        for start in range(0, n_points, per):
            part = slice(start, min(start + per, n_points))
            values = buffer[: (part.stop - start) * n_classes * n_samples]
            if handle.readinto(values) != values.nbytes:
                raise InputError(f"{path}: payload ended early")
            # Widening float32 to float64 is exact, so the float32 check is the float64 one.
            _check_scores(path, values)
            yield part, values.reshape(-1, n_classes, n_samples).astype(float)


def _check_scores(path: Path, values: np.ndarray) -> None:
    if not ((values >= 0.0) & (values <= 1.0)).all():
        if not np.isfinite(values).all():
            raise InputError(f"{path}: scores must be finite")
        raise InputError(f"{path}: scores must lie in [0, 1]")


def write_score_tensor(path: str | Path, tensor: np.ndarray) -> None:
    """Write a (points, classes, samples) score tensor; format by extension.

    ``.csv`` gives the interoperable text form, ``.bin`` the packed
    little-endian binary (magic, version, dims, row-major float32).
    """
    path = Path(path)
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != 3:
        raise InputError("score tensor must have shape (points, classes, samples)")
    _check_scores(path, tensor)
    if path.suffix == ".csv":
        ids = np.indices(tensor.shape).reshape(3, -1)
        _write_table(path, SCORES_HEADER, [*ids, tensor.ravel()])
    elif path.suffix == ".bin":
        atomic_write_bytes(path, _tensor_to_binary(tensor))
    else:
        raise InputError(f"{path}: unknown score tensor extension (use .csv or .bin)")


def read_score_blocks(path: str | Path):
    """The shape of a score tensor, and its scores as blocks of whole points.

    Returns ``(shape, blocks)``.  ``blocks`` yields ``(points, block)``
    pairs in point order: ``points`` is a slice of the point axis and
    ``block`` the float64 ``(points, classes, samples)`` scores there,
    each checked finite and in [0, 1].  A ``.bin`` block holds
    ``_READ_BLOCK_VALUES`` scores rounded down to whole points, and at
    least one point; the header, version and payload size are checked
    before this returns, and each block when it is read, so no payload
    is read until the blocks are.  A ``.csv`` tensor is parsed and
    checked here, and is one block.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    if path.suffix == ".csv":
        tensor = _tensor_from_csv(path)
        _check_scores(path, tensor)
        return tensor.shape, iter([(slice(0, len(tensor)), tensor)])
    if path.suffix == ".bin":
        shape = _binary_shape(path)
        return shape, _binary_blocks(path, shape)
    raise InputError(f"{path}: unknown score tensor extension (use .csv or .bin)")


def read_score_tensor(path: str | Path) -> np.ndarray:
    """A whole score tensor: the blocks of :func:`read_score_blocks`, joined."""
    shape, blocks = read_score_blocks(path)
    tensor = np.empty(shape)
    for points, block in blocks:
        tensor[points] = block
    return tensor


# ------------------------------------------------------------------- labels --


def write_labels_csv(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=int)
    _write_table(path, ["point_id", "label"], [np.arange(len(labels)), labels])


def read_labels_csv(path: str | Path) -> np.ndarray:
    path = Path(path)
    ids, labels = _read_table(path, ["point_id", "label"], [int, int])
    if not np.array_equal(ids, np.arange(ids.size)):
        raise InputError(f"{path}: point ids must be contiguous from 0")
    return labels


def write_score_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Per-class scores of each point (no Monte-Carlo sample axis)."""
    matrix = np.asarray(matrix, dtype=float)
    ids = np.indices(matrix.shape).reshape(2, -1)
    _write_table(path, ["point_id", "class_id", "score"], [*ids, matrix.ravel()])


def read_score_matrix_csv(path: str | Path) -> np.ndarray:
    path = Path(path)
    *ids, scores = _read_table(path, ["point_id", "class_id", "score"], [int, int, float])
    if not scores.size:
        raise InputError(f"{path}: no score rows")
    shape = tuple(int(column.max()) + 1 for column in ids)
    if scores.size != shape[0] * shape[1]:
        raise InputError(f"{path}: ids must form a full grid starting at 0")
    matrix = np.full(shape, np.nan)
    matrix[tuple(ids)] = scores
    if np.isnan(matrix).any():
        raise InputError(f"{path}: duplicate or missing (point, class) ids")
    return matrix


def write_feature_bounds_csv(
    path: str | Path, scores: np.ndarray, lower_bounds: np.ndarray
) -> None:
    """Observed calibration scores next to their certified lower bounds."""
    scores = np.asarray(scores, dtype=float)
    lower_bounds = np.asarray(lower_bounds, dtype=float)
    if scores.shape != lower_bounds.shape or scores.ndim != 1:
        raise InputError("scores and lower_bounds must be equal-length vectors")
    columns = [np.arange(scores.size), scores, lower_bounds]
    _write_table(path, ["point_id", "score", "lower_bound"], columns)


def read_feature_bounds_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    ids, scores, lower = _read_table(
        path, ["point_id", "score", "lower_bound"], [int, float, float]
    )
    if not ids.size:
        raise InputError(f"{path}: no rows")
    if not np.array_equal(ids, np.arange(ids.size)):
        raise InputError(f"{path}: point ids must be contiguous from 0")
    if np.any(lower > scores):
        raise InputError(f"{path}: a lower bound exceeds its point's score")
    return scores, lower


# ------------------------------------------------------------------- config --


class ConfigField:
    """One typed key in a flat key = value configuration file."""

    def __init__(self, kind: str, default: object):
        if kind not in ("int", "float", "str"):
            raise ValueError(f"unknown config field kind {kind!r}")
        self.kind = kind
        self.default = default

    def parse(self, key: str, raw: str) -> object:
        raw = raw.strip()
        try:
            if self.kind == "int":
                return int(raw)
            if self.kind == "float":
                return float(raw)
            return raw
        except ValueError as exc:
            raise InputError(f"config key {key!r}: {exc}") from exc


def parse_config_text(text: str, schema: Mapping[str, ConfigField]) -> dict:
    """Parse ``key = value`` lines against a schema; unknown keys are errors."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"config line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in schema:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = schema[key].parse(key, raw)
    return values


def parse_override(item: str, schema: Mapping[str, ConfigField]) -> tuple[str, object]:
    """Parse one ``--set key=value`` command-line override."""
    if "=" not in item:
        raise InputError(f"override {item!r}: expected key=value")
    key, raw = (part.strip() for part in item.split("=", 1))
    if key not in schema:
        raise InputError(f"override: unknown key {key!r}")
    return key, schema[key].parse(key, raw)


def resolve_config(
    schema: Mapping[str, ConfigField],
    text: str | None = None,
    overrides: Sequence[str] = (),
    base: Mapping[str, object] | None = None,
) -> dict:
    """Defaults, then ``base`` values, then config file values, then command-line overrides."""
    values = {key: f.default for key, f in schema.items()}
    values.update(base or {})
    if text is not None:
        values.update(parse_config_text(text, schema))
    for item in overrides:
        key, value = parse_override(item, schema)
        values[key] = value
    return values


def render_config(values: Mapping[str, object]) -> str:
    """Resolved config as sorted ``key = value`` lines."""
    lines = []
    for key in sorted(values):
        value = values[key]
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------- calibration artifact --


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it (``allow_nan`` on)."""
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_nested(value: object) -> str:
    """``value`` as ``json.dumps(indent=2)`` lays it out one level down."""
    # JSON strings never hold a raw newline, so re-indenting by line is exact.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _json_floats(values) -> list:
    """:func:`_json_float` of every element, as nested lists of the array's shape.

    Each distinct bit pattern is formatted once and the strings are
    gathered back, so ``-0.0`` stays apart from ``0.0``; a CDF over m
    draws holds at most m + 1 distinct values.  All are formatted by
    ``float.__repr__`` in one pass, then the few non-finite ones re-spelt.
    """
    values = np.ascontiguousarray(values, dtype=float)
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = keys.view(float)
    texts = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(distinct)):
        texts[i] = _json_float(distinct[i])
    return texts[inverse].reshape(values.shape).tolist()


def _artifact_points(calibration):
    """The artifact's ``points`` array as ``json.dumps(indent=2)`` lays it out, in pieces.

    Written from the calibration's columns rather than through one dict per
    point, ``_WRITE_BLOCK_POINTS`` points per piece; each point's keys
    are in sorted order.
    """
    dists = calibration.distributions
    if len(dists) == 0:
        yield "[]"
        return
    yield "[\n"
    for start in range(0, len(dists), _WRITE_BLOCK_POINTS):
        part = slice(start, start + _WRITE_BLOCK_POINTS)
        columns = [
            ['"cdf": [\n        ' + ",\n        ".join(row) + "\n      ]"
             for row in _json_floats(dists.cdf[part])],
        ]
        if calibration.corrected_lower_bounds is not None:
            columns.append(
                [f'"corrected_lower_bound": {v}'
                 for v in _json_floats(calibration.corrected_lower_bounds[part])]
            )
        ids = calibration.point_ids[part].tolist()
        columns += [
            [f'"id": {int(v)}' for v in ids],
            [f'"lower_bound": {v}' for v in _json_floats(calibration.lower_bounds[part])],
            [f'"mean": {v}' for v in _json_floats(dists.mean[part])],
            [f'"n_samples": {dists.n_samples}'] * len(ids),
            [f'"variance": {v}' for v in _json_floats(dists.variance[part])],
        ]
        points = (
            "    {\n      " + ",\n      ".join(fields) + "\n    }" for fields in zip(*columns)
        )
        yield (",\n" if start else "") + ",\n".join(points)
    yield "\n  ]"


def write_calibration_artifact(
    path: str | Path, calibration, config: Mapping[str, object]
) -> None:
    """Serialize a calibration's points and thresholds plus a config echo.

    The bytes are those of ``json.dumps(payload, sort_keys=True,
    indent=2)`` on the per-point dicts, written from the calibration's arrays
    a block of points at a time, so the whole text is never held.
    """
    members = {
        "config": [_json_nested(dict(config))],
        "format": [_json_nested(ARTIFACT_FORMAT)],
        "grid_edges": [_json_nested([float(e) for e in calibration.distributions.grid.edges])],
        "points": _artifact_points(calibration),
        "thresholds": [_json_nested({k: float(v) for k, v in calibration.thresholds.items()})],
        "version": [_json_nested(ARTIFACT_VERSION)],
    }

    def pieces():
        for i, key in enumerate(sorted(members)):
            yield ("{\n" if i == 0 else ",\n") + f'  "{key}": '
            yield from members[key]
        yield "\n}\n"

    _atomic_write(path, (piece.encode("utf8") for piece in pieces()))


def read_calibration_artifact(path: str | Path):
    """Load an artifact back into a :class:`~robustcp.evasion.Calibration` and config echo.

    The points become one :class:`~robustcp.smoothing.ScoreBatch`,
    validated once; every point must have the same ``n_samples``.  The
    calibration carries no ledger.
    """
    from .evasion import Calibration

    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != ARTIFACT_FORMAT:
        raise InputError(f"{path}: not a calibration artifact")
    if payload.get("version") != ARTIFACT_VERSION:
        raise InputError(f"{path}: unsupported artifact version {payload.get('version')}")
    try:
        grid = BinGrid(np.array(payload["grid_edges"], dtype=float))
        points = payload["points"]
        if not points:
            raise InputError(f"{path}: no calibration points")
        n_samples = {int(entry["n_samples"]) for entry in points}
        if len(n_samples) > 1:
            raise InputError(f"{path}: points disagree on n_samples")
        corrected = [
            float(entry["corrected_lower_bound"])
            for entry in points if "corrected_lower_bound" in entry
        ]
        if corrected and len(corrected) != len(points):
            raise InputError(f"{path}: corrected bounds on only some points")
        thresholds = payload["thresholds"]
        if not isinstance(thresholds, dict):
            raise InputError(f"{path}: thresholds must be an object")
        distributions = ScoreBatch(
            n_samples=n_samples.pop(),
            mean=np.array([float(entry["mean"]) for entry in points]),
            variance=np.array([float(entry["variance"]) for entry in points]),
            grid=grid,
            cdf=np.array([entry["cdf"] for entry in points], dtype=float),
        )
        calibration = Calibration(
            point_ids=np.array([int(entry["id"]) for entry in points], dtype=int),
            distributions=distributions,
            lower_bounds=np.array([float(entry["lower_bound"]) for entry in points]),
            corrected_lower_bounds=np.array(corrected) if corrected else None,
            thresholds={k: float(v) for k, v in thresholds.items()},
        )
        config = payload.get("config", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed artifact ({exc})") from exc
    return calibration, config


# ----------------------------------------------------------- sets & metrics --


def write_sets_csv(path: str | Path, named_masks: Mapping[str, np.ndarray]) -> None:
    """Boolean ``(points, classes)`` set masks as one row per (method, point, member class).

    Rows run point by point, classes ascending within a point.  Points
    with empty sets produce no rows; readers recover them from the
    accompanying labels file.
    """
    methods = sorted(named_masks)
    members = [np.argwhere(named_masks[method]) for method in methods]
    points, classes = np.concatenate([np.empty((0, 2), dtype=int), *members]).T
    names = np.repeat(methods, [len(m) for m in members])
    _write_table(path, ["point_id", "method", "class_id"], [points, names, classes])


def read_sets_csv(path: str | Path) -> dict[str, dict[int, frozenset[int]]]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["point_id", "method", "class_id"]:
            raise InputError(f"{path}: expected header point_id,method,class_id")
        out: dict[str, dict[int, set[int]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise InputError(f"{path}:{lineno}: expected 3 columns")
            try:
                p, method, c = int(row[0]), row[1], int(row[2])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            out.setdefault(method, {}).setdefault(p, set()).add(c)
    return {
        method: {p: frozenset(v) for p, v in points.items()}
        for method, points in out.items()
    }


def write_metrics_json(path: str | Path, payload: Mapping[str, object]) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_witness_json(
    path: str | Path,
    kind: str,
    alpha: float,
    budget: int,
    n: int,
    threshold: float,
    rank: int,
    indices: Iterable[int],
    values: Iterable[float] | None = None,
    labels: Iterable[int] | None = None,
) -> None:
    witness: dict[str, object] = {"indices": [int(i) for i in indices]}
    if values is not None:
        witness["values"] = [float(v) for v in values]
    if labels is not None:
        witness["labels"] = [int(c) for c in labels]
    payload = {
        "format": WITNESS_FORMAT,
        "version": WITNESS_VERSION,
        "kind": kind,
        "alpha": float(alpha),
        "budget": int(budget),
        "n": int(n),
        "threshold": float(threshold),
        "rank": int(rank),
        "witness": witness,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_witness_json(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise InputError(f"{path}: no such file")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != WITNESS_FORMAT:
        raise InputError(f"{path}: not a poisoning witness file")
    if payload.get("version") != WITNESS_VERSION:
        raise InputError(f"{path}: unsupported witness version {payload.get('version')}")
    return payload
