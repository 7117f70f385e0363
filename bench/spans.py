"""Spans around the calls into each ``robustcp`` module, installed from outside.

:func:`install` wraps every public function of every layer module (its
``__all__`` entries defined in that module), plus the budget ledger's
methods and the score oracles that ``tasks`` hands out.  A wrapper is put
wherever a module holds the function by name, including modules that
imported it with ``from .bounds import bound_for_clean``, so no call
escapes the trace.  :func:`uninstall` puts every original back.

Spans are kept in flat arrays in memory (name, start, end, parent, the
operation they belong to, and up to two amounts such as rows or bytes)
and written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "smoothing", "tasks", "bounds", "attacks", "evasion", "poisoning",
    "correction", "scores", "formats", "experiments", "cli",
)
_PACKAGE = "robustcp"
_LEDGER_METHODS = ("spend", "assert_within")


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.amount = array("d")
        self.amount2 = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.probes: dict[str, list] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.amount.append(0.0)
        self.amount2.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(start)
        )
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "amount": np.frombuffer(self.amount, dtype=float),
            "amount2": np.frombuffer(self.amount2, dtype=float),
            "self": duration - child,
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as one compressed .npz file."""
        data = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **data)


# ---------------------------------------------------------------- wrappers --


def _span(tracer: Tracer, fn, name: str, measure=None):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            measure(tracer, idx, args, kwargs, result)
        return result

    return wrapper


def _rows(tracer, idx, args, kwargs, result):
    tracer.amount[idx] = float(np.shape(result)[0])


def _file_size(tracer, idx, args, kwargs, result):
    path = args[0] if args else next(iter(kwargs.values()))
    tracer.amount[idx] = float(os.path.getsize(path))


def _data_size(tracer, idx, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.amount[idx] = float(len(data))


def _region_args(tracer, idx, args, kwargs, result):
    # Distinct argument tuples per round are counted from this record.
    key = tuple(args) + tuple(kwargs.items())
    tracer.probes.setdefault("region_args", []).append((idx, key))


def _oracle_factory(tracer: Tracer, factory, name: str):
    """Wrap an oracle factory so the oracles it returns are traced too."""
    oracle_id = tracer.name_id("tasks.oracle")

    @functools.wraps(factory)
    def make(task, *args, **kwargs):
        oracle = factory(task, *args, **kwargs)
        n_classes = task.n_classes

        @functools.wraps(oracle)
        def traced_oracle(points, class_index, rng):
            idx = tracer.open(oracle_id)
            try:
                scores = oracle(points, class_index, rng)
            finally:
                tracer.close(idx)
            rows = float(np.shape(points)[0])
            tracer.amount[idx] = rows
            tracer.amount2[idx] = rows * n_classes
            return scores

        return traced_oracle

    return _span(tracer, make, name)


def _measure_for(name: str):
    if name in ("smoothing.sample_gaussian", "smoothing.sample_sparse"):
        return _rows
    if name == "formats.atomic_write_bytes":
        return _data_size
    if name.startswith("formats.read_"):
        return _file_size
    if name == "bounds.build_region_table":
        return _region_args
    return None


def _modules():
    package = importlib.import_module(_PACKAGE)
    layers = {name: importlib.import_module(f"{_PACKAGE}.{name}") for name in LAYERS}
    return package, layers


def install(tracer: Tracer, hooks: dict | None = None) -> list[tuple]:
    """Wrap every public function of every layer where its callers look it up.

    ``hooks`` maps a span name to a callable ``(tracer, idx, args, kwargs,
    result)`` run after the call, for probes such as recording bound
    arguments for an independent re-derivation; it takes the place of
    the span's own amount measure.  Returns the replaced
    ``(owner, attribute, original)`` triples for :func:`uninstall`.
    """
    hooks = hooks or {}
    package, layers = _modules()
    wrappers: dict[int, object] = {}
    for layer, module in layers.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if layer == "tasks" and attr.endswith("_oracle"):
                wrappers[id(fn)] = _oracle_factory(tracer, fn, name)
                continue
            measure = hooks.get(name) or _measure_for(name)
            wrappers[id(fn)] = _span(tracer, fn, name, measure)

    replaced = []
    for module in (package, *layers.values()):
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)
    ledger = layers["correction"].BudgetLedger
    for method in _LEDGER_METHODS:
        original = ledger.__dict__[method]
        replaced.append((ledger, method, original))
        setattr(ledger, method, _span(tracer, original, f"correction.BudgetLedger.{method}"))
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)
    replaced.clear()


# ---------------------------------------------------------- layer metrics --

# Span names grouped into the sets each per-layer metric sums over.
_SAMPLERS = ("smoothing.sample_gaussian", "smoothing.sample_sparse")
_STREAMS = ("smoothing.substream", "smoothing.subseed")
_DISPATCH = ("bounds.bound_for_clean", "bounds.bound_for_observed")
_GAUSSIAN = (
    "bounds.gaussian_mean_upper", "bounds.gaussian_mean_lower",
    "bounds.gaussian_cdf_upper", "bounds.gaussian_cdf_lower",
)
_SPARSE = (
    "bounds.sparse_mean_upper", "bounds.sparse_mean_lower",
    "bounds.sparse_cdf_upper", "bounds.sparse_cdf_lower",
)
_EVADE = ("attacks.evade_l2", "attacks.evade_binary")
_CALIBRATE = ("evasion.calibrate_smooth", "evasion.corrected_calibrate")
_SETS = (
    "evasion.sets_from_distributions", "evasion.mean_set_from_distributions",
    "evasion.corrected_set_from_distributions", "evasion.test_time_sets",
    "evasion.smooth_mean_set",
)
_LEDGER = tuple(f"correction.BudgetLedger.{m}" for m in _LEDGER_METHODS)
_RANK_SEARCH = (
    "poisoning.feature_poison_threshold", "poisoning.label_poison_threshold",
    "poisoning.worst_case_feature_quantile", "poisoning.worst_case_label_quantile",
    "poisoning.corrected_feature_poison_threshold",
)

# Per-layer metric -> unit; README.md says what each one should move, and where.
LAYER_METRICS: dict[str, str] = {
    "smoothing.sample_calls": "count",
    "smoothing.noise_rows": "count",
    "smoothing.sample_s": "s",
    "smoothing.summarize_calls": "count",
    "smoothing.summarize_s": "s",
    "smoothing.substream_calls": "count",
    "smoothing.substream_s": "s",
    "smoothing.self_s": "s",
    "tasks.oracle_calls": "count",
    "tasks.oracle_rows": "count",
    "tasks.oracle_s": "s",
    "tasks.useful_column_ratio": "ratio",
    "bounds.bound_calls": "count",
    "bounds.bound_s": "s",
    "bounds.gaussian_s": "s",
    "bounds.region_tables_built": "count",
    "bounds.region_table_s": "s",
    "bounds.region_table_distinct_ratio": "ratio",
    "bounds.sparse_transfer_s": "s",
    "attacks.evade_calls": "count",
    "attacks.evade_s": "s",
    "attacks.oracle_rows": "count",
    "evasion.calibrate_s": "s",
    "evasion.class_distributions_s": "s",
    "evasion.sets_s": "s",
    "evasion.self_s": "s",
    "correction.ledger_spends": "count",
    "correction.ledger_s": "s",
    "correction.corrected_bound_calls": "count",
    "correction.corrected_bound_s": "s",
    "poisoning.rank_search_calls": "count",
    "poisoning.rank_search_s": "s",
    "scores.prediction_set_calls": "count",
    "scores.prediction_set_s": "s",
    "scores.self_s": "s",
    "formats.read_bytes": "bytes",
    "formats.read_s": "s",
    "formats.write_bytes": "bytes",
    "formats.write_s": "s",
    "experiments.trial_self_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(tracer: Tracer, ops_per_round: int) -> dict[str, float]:
    """Per-layer figures per round of the workload, as medians over rounds.

    Counts and self times are summed over the spans of one round (the
    operations ``[k * ops_per_round, (k + 1) * ops_per_round)``) and the
    median over rounds is reported; ratios are taken over the whole run.
    """
    a = tracer.arrays()
    # Name ids index these; the extra last entry stands for "no parent".
    names = np.array(tracer.names + [""])
    layers = np.array([n.split(".", 1)[0] for n in names])
    label = names[a["name"]]
    layer = layers[a["name"]]
    parent_layer = layers[np.where(a["parent"] >= 0, a["name"][a["parent"]], -1)]
    rounds = np.maximum(a["op"], 0) // ops_per_round
    n_rounds = int(rounds.max()) + 1 if len(tracer) else 1

    def per_round(mask: np.ndarray, values: np.ndarray) -> float:
        sums = np.bincount(rounds[mask], weights=values[mask], minlength=n_rounds)
        return float(np.median(sums))

    def count(mask):
        return per_round(mask, np.ones(len(label)))

    def self_s(mask):
        return per_round(mask, a["self"])

    def named(group):
        return np.isin(label, group)

    oracle = label == "tasks.oracle"
    attack_ops = _under(a["parent"], named(_EVADE))
    region = label == "bounds.build_region_table"
    distinct = {}
    for idx, key in tracer.probes.get("region_args", ()):
        distinct.setdefault(int(rounds[idx]), set()).add(key)
    distinct_ratio = [
        len(keys) / np.sum(region & (rounds == k)) for k, keys in distinct.items()
    ]
    computed = a["amount2"][oracle].sum()
    out = {
        "smoothing.sample_calls": count(named(_SAMPLERS)),
        "smoothing.noise_rows": per_round(named(_SAMPLERS), a["amount"]),
        "smoothing.sample_s": self_s(named(_SAMPLERS)),
        "smoothing.summarize_calls": count(label == "smoothing.distribution_from_samples"),
        "smoothing.summarize_s": self_s(label == "smoothing.distribution_from_samples"),
        "smoothing.substream_calls": count(named(_STREAMS)),
        "smoothing.substream_s": self_s(named(_STREAMS)),
        "smoothing.self_s": self_s(layer == "smoothing"),
        "tasks.oracle_calls": count(oracle),
        "tasks.oracle_rows": per_round(oracle, a["amount"]),
        "tasks.oracle_s": self_s(oracle),
        "tasks.useful_column_ratio": (
            float(a["amount"][oracle].sum() / computed) if computed else 0.0
        ),
        "bounds.bound_calls": count(named(_DISPATCH) & (parent_layer != "bounds")),
        "bounds.bound_s": self_s(layer == "bounds"),
        "bounds.gaussian_s": self_s(named(_GAUSSIAN)),
        "bounds.region_tables_built": count(region),
        "bounds.region_table_s": self_s(region),
        "bounds.region_table_distinct_ratio": (
            float(np.median(distinct_ratio)) if distinct_ratio else 0.0
        ),
        "bounds.sparse_transfer_s": self_s(named(_SPARSE)),
        "attacks.evade_calls": count(named(_EVADE)),
        "attacks.evade_s": self_s(layer == "attacks"),
        "attacks.oracle_rows": per_round(oracle & attack_ops, a["amount"]),
        "evasion.calibrate_s": self_s(named(_CALIBRATE)),
        "evasion.class_distributions_s": self_s(label == "evasion.class_distributions"),
        "evasion.sets_s": self_s(named(_SETS)),
        "evasion.self_s": self_s(layer == "evasion"),
        "correction.ledger_spends": count(label == "correction.BudgetLedger.spend"),
        "correction.ledger_s": self_s(named(_LEDGER)),
        "correction.corrected_bound_calls": count(label == "correction.corrected_bound"),
        "correction.corrected_bound_s": self_s(
            (layer == "correction") & ~named(_LEDGER)
        ),
        "poisoning.rank_search_calls": count(named(_RANK_SEARCH)),
        "poisoning.rank_search_s": self_s(named(_RANK_SEARCH)),
        "scores.prediction_set_calls": count(label == "scores.prediction_set"),
        "scores.prediction_set_s": self_s(label == "scores.prediction_set"),
        "scores.self_s": self_s(layer == "scores"),
        "formats.read_bytes": per_round(_startswith(label, "formats.read_"), a["amount"]),
        "formats.read_s": self_s(_startswith(label, "formats.read_")),
        "formats.write_bytes": per_round(
            label == "formats.atomic_write_bytes", a["amount"]
        ),
        "formats.write_s": self_s(
            _startswith(label, "formats.write_") | _startswith(label, "formats.atomic_")
        ),
        "experiments.trial_self_s": self_s(layer == "experiments"),
        "cli.self_s": self_s(layer == "cli"),
    }
    assert set(out) == set(LAYER_METRICS)
    return out


def _startswith(label: np.ndarray, prefix: str) -> np.ndarray:
    return np.char.startswith(label.astype(str), prefix)


def _under(parent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Spans that have a ``roots`` span among their ancestors."""
    inside = np.zeros(parent.size, dtype=bool)
    # Parents always precede their children, so one forward pass suffices.
    for idx in range(parent.size):
        p = parent[idx]
        if p >= 0 and (roots[p] or inside[p]):
            inside[idx] = True
    return inside
