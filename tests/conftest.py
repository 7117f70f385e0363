"""Shared pytest hooks: the acceptance-criteria scoreboard.

Acceptance tests report one line per criterion through
:func:`record_criterion`; the summary hook prints the scoreboard after
the run so the pass/fail status of every criterion is visible in plain
``pytest`` output, including criteria that failed mid-computation.
Runtime gates are only readable beside the machine, so the scoreboard
names the core count and the Python version.
"""

import os
import platform

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
