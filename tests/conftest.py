"""Shared test configuration.

Acceptance tests register one verdict per criterion through
record_criterion; a terminal-summary hook replays them as one line each
so the final report always shows the per-criterion outcome, pass or
fail, without digging through the pytest output.  The workloads fixture
hands tests the benchmark's seeded discourse generators.
"""

from __future__ import annotations

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

_CRITERIA: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, title: str, passed: bool) -> str:
    """Store and format the verdict line for one acceptance criterion."""
    _CRITERIA[number] = (title, passed)
    verdict = "PASS" if passed else "FAIL"
    return f"criterion {number} ({title}): {verdict}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        title, passed = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {number}: {title}")


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's seeded discourse generators (bench/workloads.py)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads
