"""Smoke tests: every example script runs to completion.

Examples are part of the public deliverable; a refactor that breaks one
should fail the suite, not a user.  Each script is executed in-process
with stdout captured.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    stdout = io.StringIO()
    argv_before = sys.argv
    sys.argv = [script]
    try:
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    finally:
        sys.argv = argv_before
    assert stdout.getvalue().strip(), f"{script} produced no output"


def test_module_demo_runs():
    stdout = io.StringIO()
    from repro.__main__ import main

    with contextlib.redirect_stdout(stdout):
        exit_code = main(["--transactions", "30", "--accounts", "40"])
    assert exit_code == 0
    out = stdout.getvalue()
    assert "system status" in out
    assert "first transaction completed" in out


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "banking_crash_recovery.py",
        "checkpoint_tuning.py",
        "paper_analysis.py",
        "media_failure.py",
        "concurrent_transfers.py",
    } <= set(EXAMPLES)
