"""Shared pytest hooks: the acceptance-criteria scoreboard.

Acceptance tests report one line per criterion through
:func:`record_criterion`; the summary hook prints the scoreboard after
the run so the pass/fail status of every criterion is visible in plain
``pytest`` output, including criteria that failed mid-computation.
Runtime gates are only readable beside the machine, so the scoreboard
names the core count and the Python version.

BLAS gets one thread, as in ``bench/run.py``, before anything imports
numpy: a second BLAS thread buys nothing for these small products and,
under load from other processes, slows the bit-flip oracle's matmul
many times over, so the suite's wall time would follow the host's load.
The bits do not depend on the thread count.
"""

import os
import platform

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SCOREBOARD: dict[int, tuple[str, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _SCOREBOARD[number] = ("PASS" if passed else "FAIL", detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    # nproc: the cores this process may run on.
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    terminalreporter.write_line(f"machine: nproc {nproc}, Python {platform.python_version()}")
    for number in sorted(_SCOREBOARD):
        status, detail = _SCOREBOARD[number]
        terminalreporter.write_line(f"criterion {number:2d} {status}  {detail}")
