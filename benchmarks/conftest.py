"""Shared helpers for the benchmark harness.

Every benchmark prints the table or figure series it regenerates (the
paper-facing artefact) and uses pytest-benchmark to time the computation
that produces it.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables; without it only the timing table
appears.
"""

from __future__ import annotations

import pytest

from repro.common.config import LOGGING_MODES


def pytest_addoption(parser):
    parser.addoption(
        "--logging-mode",
        action="store",
        default="value",
        choices=LOGGING_MODES,
        help="Transaction logging mode for benchmarks that take it as an "
        "axis (bench_recovery_vs_log_accumulation).",
    )


@pytest.fixture()
def logging_mode(request):
    return request.config.getoption("--logging-mode")


@pytest.fixture()
def report():
    """Print a titled block that survives pytest's capture when -s is on."""

    def _report(title: str, lines: list[str]) -> None:
        print()
        print("=" * 74)
        print(title)
        print("=" * 74)
        for line in lines:
            print(line)

    return _report
