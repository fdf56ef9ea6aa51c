"""Golden copies of the outputs the paper contract freezes.

Three files, each rebuilt by one command (``python -m tests.golden`` from
the repository root, with ``PYTHONPATH=src``):

* ``torture.jsonl`` — the records of the seeded torture batches
  (:data:`TORTURE_BATCHES`), without their host time;
* ``sim_tables.txt`` — the tables ``bench_sim_vs_model`` and
  ``bench_table2_parameters`` print through ``report(...)``: Table 2 and
  the simulated recovery CPU against Graphs 1-3's model;
* ``host_quick_counters.json`` — the exact counters of
  ``benchmarks/host/run.py --quick --seed 101``, per workload.

``tests/test_golden.py`` re-runs the first two (the batches run nowhere
else); CI compares a quick host run with the third (``python -m tests.golden --check-host LOG``).  A change
that moves a golden file regenerates it and says which record moved and
why.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from repro.sim.torture import TortureHarness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TORTURE = HERE / "torture.jsonl"
SIM_TABLES = HERE / "sim_tables.txt"
HOST_COUNTERS = HERE / "host_quick_counters.json"

#: The seeded torture batches, as ``run_rounds`` arguments: one node, 2- and
#: 4-shard clusters, the mixed workload, media restores and an SLB run dry.
TORTURE_BATCHES = (
    {"seeds": list(range(100, 110))},
    {"seeds": [200, 201, 202], "shards": 2},
    {"seeds": [200, 201, 202], "shards": 4},
    {"seeds": list(range(300, 305)), "workload": "mixed"},
    {"seeds": [400, 401, 402], "media": True},
    {"seeds": [500, 501, 502], "workload": "overload"},
)
SIM_BENCHES = ("bench_table2_parameters.py", "bench_sim_vs_model.py")
HOST_COMMAND = ("benchmarks/host/run.py", "--quick", "--seed", "101")


#: The registered crash points the batches never pass: all four are
#: command logging's (ROADMAP item 2).
TORTURE_UNPASSED = [
    "checkpoint.sweep.markers-appended",
    "replay.batch.before-command",
    "replay.batch.command-executed",
    "txn.commit.command-emitted",
]


def torture_records(harness: TortureHarness | None = None) -> list[dict]:
    """Every round of the batches, in order, minus ``host_seconds``, run
    by ``harness`` (a fresh one by default)."""
    harness = harness or TortureHarness()
    records = []
    for batch in TORTURE_BATCHES:
        for result in harness.run_rounds(**batch):
            record = result.to_json()
            del record["host_seconds"]
            records.append(record)
    return records


class _Once:
    """Stands in for pytest-benchmark's fixture: runs the function once."""

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, function, args=(), kwargs=None, rounds=1, iterations=1):
        return function(*args, **(kwargs or {}))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_golden_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sim_tables() -> str:
    """What the benches' ``report`` fixture prints, bench by bench."""
    lines: list[str] = []

    def report(title: str, body: list[str]) -> None:
        lines.extend(["", "=" * 74, title, "=" * 74, *body])

    for name in SIM_BENCHES:
        module = _load(ROOT / "benchmarks" / name)
        for attribute in sorted(vars(module)):
            if attribute.startswith("bench_"):
                getattr(module, attribute)(_Once(), report)
    return "\n".join(lines) + "\n"


def host_counters(log: str) -> dict:
    """The exact counters of the results file a host run's log names."""
    found = re.findall(r"^results written to (\S+)$", log, re.MULTILINE)
    if not found:
        raise SystemExit("the host run's log names no results file")
    with open(ROOT / found[-1], encoding="utf-8") as handle:
        workloads = json.load(handle)["sets"][0]["workloads"]
    names = _load(ROOT / "benchmarks" / "host" / "run.py").EXACT_COUNTERS
    return {
        workload: {name: report["per_layer"][name]["value"] for name in names}
        for workload, report in workloads.items()
    }


def regenerate() -> None:
    with open(TORTURE, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in torture_records())
    SIM_TABLES.write_text(sim_tables(), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, *HOST_COMMAND], cwd=ROOT, capture_output=True, text=True, check=True
    )
    with open(HOST_COUNTERS, "w", encoding="utf-8") as handle:
        json.dump(host_counters(run.stdout), handle, indent=1)
        handle.write("\n")


def check_host(log_path: str) -> int:
    with open(log_path, encoding="utf-8") as handle:
        measured = host_counters(handle.read())
    with open(HOST_COUNTERS, encoding="utf-8") as handle:
        golden = json.load(handle)
    moved = [
        f"{workload} {name}: {value!r} -> {measured.get(workload, {}).get(name)!r}"
        for workload, counters in golden.items()
        for name, value in counters.items()
        if measured.get(workload, {}).get(name) != value
    ]
    for line in moved:
        print(f"EXACT COUNTER MOVED {line}")
    print(f"{len(moved)} exact counter(s) moved" if moved else "every exact counter is golden")
    return 1 if moved else 0
