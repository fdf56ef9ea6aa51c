"""The committed host-benchmark trajectory agrees with the benchmark contract.

``BENCH_host.json`` at the repository root holds one row per measured
change: the seven end-to-end metrics of every workload, the speed factor
and the exact counters.  ``BENCHMARK.json`` declares what those are, so a
workload or metric renamed, added or dropped in one file and not the other
fails here instead of silently splitting the trajectory.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(name: str) -> dict:
    with open(ROOT / name, encoding="utf-8") as handle:
        return json.load(handle)


CONTRACT = load("BENCHMARK.json")
TRAJECTORY = load("BENCH_host.json")
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
METRICS = {metric["name"]: metric["unit"] for metric in CONTRACT["end_to_end"]}
ROWS = TRAJECTORY["rows"]


def test_units_are_the_contracts():
    assert TRAJECTORY["units"] == METRICS


def test_every_row_names_exactly_the_contracts_workloads_and_metrics():
    assert ROWS
    for row in ROWS:
        assert list(row["end_to_end"]) == WORKLOADS, row["pr"]
        for workload, metrics in row["end_to_end"].items():
            assert list(metrics) == list(METRICS), (row["pr"], workload)
            for value in metrics.values():
                assert value is None or isinstance(value, (int, float)), (row["pr"], workload)


def test_speed_factors_and_exact_counters_are_per_workload():
    counters = TRAJECTORY["exact_counters"]
    for row in ROWS:
        for field in ("speed_factor", "exact_counters"):
            if row[field] is not None:
                assert list(row[field]) == WORKLOADS, (row["pr"], field)
        if row["exact_counters"] is not None:
            for workload, values in row["exact_counters"].items():
                assert len(values) == len(counters), (row["pr"], workload)


def test_rows_are_in_pr_order_with_unique_shas():
    numbers = [row["pr"] for row in ROWS]
    assert numbers == sorted(set(numbers))
    shas = [row["sha"] for row in ROWS]
    # only the newest row may lack its sha: a commit cannot name itself
    assert None not in shas[:-1]
    named = [sha for sha in shas if sha is not None]
    assert len(named) == len(set(named))


def test_a_claim_names_a_contract_workload_and_metric():
    for row in ROWS:
        claim = row.get("claim")
        if claim is not None:
            assert claim["workload"] in WORKLOADS
            assert claim["metric"] in METRICS
            assert len(claim["parent"]) == len(claim["change"]) == claim["pairs"]
