"""robustcp benchmark: seeded workloads timed end to end, or traced per layer.

Run from the repository root::

    python3 bench/run.py --workload evasion-gaussian --seed 1 --seconds 25 --trace 0

The inputs are made from ``--seed`` by ``bench/inputs.py`` in a fresh
interpreter, three times (set-up time is the median of the three, and
includes importing the package).  Then rounds of the workload run until
``--seconds`` have passed, and every output is checked.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
same rounds run with spans around every call into ``robustcp`` and the
per-layer metrics are printed instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import os

# One caller, one thread: keep BLAS from spreading over the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ["ROBUSTCP_WORKERS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    import spans
    import workloads

    units = dict(spans.LAYER_METRICS)
    units.update({f"cli.{op}_s": "s" for op in workloads.CLI_OPS})
    units["trace.round_s"] = "s"
    units["trace.spans"] = "count"
    return units


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed Python-and-numpy loop, to read figures against.

    The same code on a busy shared host can run far slower; this number
    tells a slow run from a slow program.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 40_000).reshape(200, 200)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(5):
            np.exp(a @ a)
        times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


def machine_line(probe_ms: list[float]) -> str:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": _git_sha(),
        "host_probe_ms": [round(v, 2) for v in probe_ms],
    }
    return "machine " + json.dumps(info, sort_keys=True)


def set_up(workload: str, seed: int, work_dir: Path, scale: str) -> float:
    """Make the inputs in a fresh interpreter; returns the wall time it took."""
    argv = [
        sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(work_dir), "--scale", scale,
    ]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0


def _import_program():
    src = ROOT / "src"
    if not (src / "robustcp" / "__init__.py").is_file():
        raise SystemExit(f"error: no robustcp package under {src}")
    sys.path.insert(0, str(src))
    import robustcp

    if Path(robustcp.__file__).resolve().parent != (src / "robustcp").resolve():
        raise SystemExit(f"error: imported robustcp from {robustcp.__file__}, not {src}")


def _judge(workload, name: str, result) -> list[str]:
    """Failure messages for one operation: its exception, or its failed checks."""
    if isinstance(result, Exception):
        return [f"{name}: {type(result).__name__}: {result}"]
    try:
        return workload.check(name, result)
    except Exception as exc:  # noqa: BLE001 - unreadable output fails the operation
        return [f"{name}: output check raised {type(exc).__name__}: {exc}"]


def run(args) -> dict:
    sys.path.insert(0, str(BENCH))
    _import_program()
    import numpy as np

    import oracles
    import spans
    import workloads

    work_dir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    out_dir = BENCH / ".out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [
            set_up(args.workload, args.seed, work_dir, args.scale)
            for _ in range(SETUP_REPEATS)
        ]
        workload = workloads.load(args.workload, work_dir)

        tracer = probe = replaced = None
        if args.trace:
            tracer = spans.Tracer()
            probe = oracles.BoundProbe()
            replaced = spans.install(tracer, {"bounds.bound_for_clean": probe})

        probe_ms = [host_probe_ms()]
        op_times: dict[str, list[float]] = {name: [] for name in workload.op_names}
        round_times: list[float] = []
        failures: dict[int, list[str]] = {}
        attempted = 0
        start = time.perf_counter()
        k = 0
        try:
            while k == 0 or time.perf_counter() - start < args.seconds:
                round_total = 0.0
                for name, op in workload.round(k):
                    if tracer is not None:
                        tracer.current_op = attempted
                    t0 = time.perf_counter()
                    try:
                        result = op()
                    except Exception as exc:  # noqa: BLE001 - a failed operation
                        result = exc
                    elapsed = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.current_op = -1
                    round_total += elapsed
                    op_times[name].append(elapsed)
                    bad = _judge(workload, name, result)
                    if bad:
                        failures[attempted] = bad
                    attempted += 1
                round_times.append(round_total)
                k += 1
        finally:
            if replaced is not None:
                spans.uninstall(replaced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_ms.append(host_probe_ms())

        run_problems = workload.finish()
        if probe is not None:
            for op, bad in oracles.check_bound_samples(probe.samples).items():
                failures.setdefault(op, []).extend(bad)
        for op in sorted(failures):
            for msg in failures[op]:
                print(f"FAILED op {op}: {msg}", file=sys.stderr)
        for msg in run_problems:
            print(f"INCORRECT: {msg}", file=sys.stderr)

        if tracer is None:
            metrics = {
                "setup_s": float(np.median(setup)),
                "round_s": float(np.median(round_times)),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
            print("operations " + json.dumps(
                {name: {"median_s": float(np.median(t)), "n": len(t), "all_s": t}
                 for name, t in op_times.items()}, sort_keys=True))
        else:
            metrics = spans.layer_metrics(tracer, workload.ops_per_round)
            for op in workloads.CLI_OPS:
                metrics[f"cli.{op}_s"] = float(np.median(op_times.get(op, [0.0])))
            metrics["trace.round_s"] = float(np.median(round_times))
            metrics["trace.spans"] = len(tracer) / max(k, 1)
            units = per_layer_units()
            tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.npz")
            print(f"bound re-derivations: {len(probe.samples)} of {probe.calls} calls "
                  f"on {len(probe.route_calls)} routes")
        print(machine_line(probe_ms))
        return {
            "correct": not run_problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("evasion-gaussian", "evasion-binary", "cli-tensors"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test only")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
