"""Smoke test of the host-time benchmark (outside ``testpaths``: run it as
``PYTHONPATH=src python -m pytest benchmarks/host/test_host_smoke.py``).

Runs ``run.py --quick`` — one repeat and one traced repeat of every
workload at a tenth of every count — and checks the output against
``BENCHMARK.json``: every workload, every end-to-end metric and every
per-layer metric it names appears with its unit, and nothing unnamed does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_quick_run_reports_exactly_the_contracted_metrics():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last_line = done.stdout.splitlines()[-1]
    assert last_line.startswith("results written to ")
    results = json.loads((ROOT / last_line.removeprefix("results written to ")).read_text())

    (only_set,) = results["sets"]
    reports = only_set["workloads"]
    assert list(reports) == [workload["name"] for workload in contract["workloads"]]
    for name, report in reports.items():
        assert report["failed"] == 0, (name, report["problems"])
        for family in ("end_to_end", "per_layer"):
            declared = {metric["name"]: metric["unit"] for metric in contract[family]}
            reported = {metric: value["unit"] for metric, value in report[family].items()}
            assert reported == declared, (name, family)
            for metric, value in report[family].items():
                assert isinstance(value["value"], (int, float)), (name, metric)
        assert all(report["end_to_end"][m]["value"] > 0 for m in report["end_to_end"]), name
        assert (ROOT / report["trace_file"]).is_file()


def test_contract_line_for_one_workload():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, family in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                "point_read",
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                str(trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {metric["name"] for metric in contract[family]}
