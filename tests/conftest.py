"""Shared pytest config: a fixed hypothesis profile, and a summary block
mapping each acceptance test to a single pass/fail line, printed after the
normal test output."""

from __future__ import annotations

import re

from hypothesis import settings

# the same examples on every run, and no example database on disk
settings.register_profile("klbraid", derandomize=True, database=None)
settings.load_profile("klbraid")

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")

_outcomes: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    num, label = int(m.group(1)), m.group(2)
    if report.when == "call":
        _outcomes[num] = (label, report.outcome)
    elif report.failed:  # setup/teardown error counts as a failure
        _outcomes[num] = (label, "failed")


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        label, outcome = _outcomes[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d} ({label}): {status}")
