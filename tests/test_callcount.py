"""The exact call counter (``tools/callcount.py``): a count has no noise.

Each run is a fresh process, as the tool is meant to be run: within one
process the first run also counts the calls that fill the standard
library's caches (ABC subclass checks, memoised structs)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tools import callcount

ROOT = Path(__file__).resolve().parents[1]


def run_tool(hash_seed: str, *flags: str) -> list[dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [
            sys.executable, "-m", "tools.callcount",
            "--scale", "0.02", "--json", "--by", "function", *flags,
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


@pytest.fixture(scope="module")
def first() -> list[dict]:
    return run_tool("0")


def test_two_runs_give_identical_counts(first):
    assert [result["workload"] for result in first] == list(callcount.CEILINGS)
    for result in first:
        assert result["transactions"] > 0 and result["per_txn"]["total"] > 0
        assert result["per_restart"]["total"] > 0 and result["first_txn_partitions"] > 0
    assert run_tool("1") == first


def test_function_counts_sum_to_the_package_counts(first):
    for result in first:
        per_txn, units = result["per_txn"], result["transactions"]
        packages: dict = {}
        for package, _, calls in result["functions"]:
            packages[package] = packages.get(package, 0) + calls
        assert {name: round(calls / units, 2) for name, calls in packages.items()} == {
            name: share for name, share in per_txn.items() if name not in ("total", "repro")
        }
        assert round(sum(packages.values()) / units, 2) == per_txn["total"]


#: What a package column may be named: a ``repro`` subpackage, ``repro``
#: itself (its top-level modules) or ``other``.
PACKAGES = {
    path.name for path in (ROOT / "src" / "repro").iterdir() if (path / "__init__.py").exists()
} | {"repro", "other"}


@pytest.fixture(scope="module")
def profiled() -> list[dict]:
    return run_tool("0", "--profile")


def test_a_profiled_run_counts_what_a_plain_one_does(first, profiled):
    assert [{k: v for k, v in result.items() if k != "traced"} for result in profiled] == first


def test_traced_self_times_sum_to_the_package_totals(profiled):
    for result in profiled:
        traced, units = result["traced"], result["transactions"]
        assert set(traced) == {"overhead", "self_us_per_txn", "functions"}
        assert traced["overhead"] > 1.0  # a profiler only adds
        self_us = traced["self_us_per_txn"]
        assert self_us["total"] > self_us["repro"] > 0
        packages: dict = {}
        for package, function, micros in traced["functions"]:
            assert package in PACKAGES and function and micros >= 0
            packages[package] = packages.get(package, 0.0) + micros
        assert set(packages) == set(self_us) - {"total", "repro"}
        assert {"txn", "wal", "db"} <= set(packages)
        for package, micros in packages.items():
            assert abs(micros / units - self_us[package]) <= 0.005 + 1e-9, package
        total = sum(packages.values()) / units
        assert abs(total - self_us["total"]) <= 0.005 + 1e-9
        assert abs(total - packages.get("other", 0.0) / units - self_us["repro"]) <= 0.005 + 1e-9


def test_the_traced_lines_name_their_overhead(profiled, capsys):
    result = profiled[0]
    callcount._print_traced(result["traced"], result["transactions"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("  traced (cProfile, ") and "x the untraced wall time" in lines[0]
    assert lines[1].startswith("  traced self µs per txn: ")
    assert len(lines) == 2 + min(callcount.TOP_FUNCTIONS, len(result["traced"]["functions"]))
    for line in lines[2:]:
        micros, unit, package, function = line.split(maxsplit=3)
        assert float(micros) >= 0 and unit == "µs" and package in PACKAGES


def test_every_workload_has_a_ceiling():
    assert list(callcount.CEILINGS) == list(callcount._workloads())
    assert list(callcount.RESTART_CEILINGS) == list(callcount.CEILINGS)
    assert list(callcount.FIRST_TXN_CEILINGS) == list(callcount.CEILINGS)


#: What each ``--check`` ceiling holds, and the words its failure line says.
OVER_LINES = {
    "per_txn": "calls/txn",
    "per_restart": "calls/restart",
    "first_txn_partitions": "partitions rebuilt by the first commit",
}


@pytest.mark.parametrize("unit", list(OVER_LINES))
def test_check_fails_a_workload_over_either_ceiling(monkeypatch, capsys, unit):
    """One call over a ceiling, per transaction or per restart, or one
    partition more rebuilt by the first commit after a crash, fails
    ``--check`` and names the workload; at the ceiling it passes."""

    def at_ceiling(name, *, scale):
        return {
            "transactions": 1,
            "per_txn": {"total": 0.0, "repro": callcount.CEILINGS[name]},
            "per_restart": {"total": 0.0, "repro": callcount.RESTART_CEILINGS[name]},
            "first_txn_partitions": callcount.FIRST_TXN_CEILINGS[name],
        }

    monkeypatch.setattr(callcount, "count", at_ceiling)
    assert callcount.main(["--check"]) == 0

    def over(name, *, scale):
        result = at_ceiling(name, scale=scale)
        if name == "crash_restart" and unit == "first_txn_partitions":
            result[unit] += 1
        elif name == "crash_restart":
            result[unit]["repro"] += 1
        return result

    monkeypatch.setattr(callcount, "count", over)
    assert callcount.main(["--check"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("OVER CEILING crash_restart: ")
    assert [words for words in OVER_LINES.values() if words in line] == [OVER_LINES[unit]]


def test_check_refuses_a_scale_its_ceilings_were_not_recorded_at():
    with pytest.raises(SystemExit):
        callcount.main(["--check", "--scale", "0.02"])
