"""Host-time benchmark of the MM-DBMS: entry point.

    python3 benchmarks/host/run.py                       # all workloads, one full set
    python3 benchmarks/host/run.py --quick               # smoke: a tenth of every count
    python3 benchmarks/host/run.py --sets 2              # the acceptance run (baseline.json)
    python3 benchmarks/host/run.py --compare A.json B.json
    python3 benchmarks/host/run.py --workload point_read --seed 7 --seconds 10 --trace 0

The last form is the contract of ``BENCHMARK.json``: one workload, and as
the last line of standard output one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Every repeat of a workload runs in a fresh child process (``repeat.py``).
Every duration is divided by how much slower than reference speed the
machine ran just then (``reference.py``), so the end-to-end times are host
time **at reference speed** and a busy neighbour on the shared host does
not read as a slow program.  Because ``SimEngine`` makes operation *i* the
same work in every repeat, the benchmark then keeps **the minimum duration
per operation across repeats** and computes throughput and percentiles
from those minima; restart times, set-up time and peak memory are medians
over the repeats.  Per-layer numbers come from one extra traced repeat and
never feed an end-to-end metric.  README.md has the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = ROOT / "benchmarks" / "results" / "host"

sys.path.insert(0, str(HERE))

from reference import operation_factors, speed_factor  # noqa: E402
from spans import FORWARD_SPANS, RESTART_SPANS  # noqa: E402

#: A repeat during which the machine ran this much slower than during the
#: run's fastest repeat is counted in ``noisy_repeats`` (context only).
NOISE_TOLERANCE = 1.10
CHILD_TIMEOUT_S = 150

#: Per-layer metrics that must repeat exactly under ``SimEngine``;
#: ``--compare`` demands equality for them.
EXACT_COUNTERS = (
    "log_bytes_per_txn",
    "disk_bytes_per_txn",
    "failed_ops_share",
    "wal.slb_records_per_txn",
    "wal.log_pages_per_ktxn",
    "wal.log_cache_hit_ratio",
    "checkpoint.taken_per_ktxn",
    "checkpoint.bytes_per_txn",
    "txn.abort_share",
    "recovery.sim_instr_per_txn",
    "sim.main_instr_per_txn",
    "recovery.partitions_per_restart",
    "recovery.records_replayed_per_restart",
    "recovery.pages_read_per_restart",
    "recovery.commands_replayed_per_restart",
)


class BenchmarkError(Exception):
    """The benchmark could not produce a trustworthy result."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# running repeats
# ---------------------------------------------------------------------------


def run_child(workload: str, seed: int, scale: float, trace_file: Path | None) -> dict:
    """One repeat in a fresh interpreter; returns the child's result."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(HERE / "repeat.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--scale",
        repr(scale),
    ]
    if trace_file is not None:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-file", str(trace_file)]
    try:
        done = subprocess.run(
            command,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: a repeat exceeded {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{workload}: repeat failed\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def signature(result: dict) -> dict:
    """What must be identical across repeats for minima to be meaningful."""
    return {
        "counters": result["counters"],
        "outcomes": result["outcomes"],
        "digests": [restart["digest"] for restart in result["restarts"]],
    }


def check_determinism(workload: str, results: list[dict]) -> None:
    reference = signature(results[0])
    for number, result in enumerate(results[1:], 2):
        other = signature(result)
        for key in reference:
            if other[key] != reference[key]:
                raise BenchmarkError(
                    f"nondeterministic: {workload} repeat {number} differs from "
                    f"repeat 1 in {key}; minima over unlike work mean nothing"
                )


def run_repeats(workload: str, seed: int, scale: float, repeats: int) -> list[dict]:
    results = [run_child(workload, seed, scale, None) for _ in range(repeats)]
    check_determinism(workload, results)
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def timings(result: dict, *, normalised: bool) -> dict:
    """One repeat's durations, each divided by the speed factor of its
    surroundings (or, for the raw numbers shown as context, by 1)."""

    def factor(probes_ns) -> float:
        return speed_factor(probes_ns) if normalised else 1.0

    operations = len(result["durations_ns"])
    factors = operation_factors(result["probes"], operations) if normalised else [1.0] * operations
    return {
        "operations": [d / f for d, f in zip(result["durations_ns"], factors)],
        "setup_s": result["setup_s"] / factor(result["setup_probes_ns"]),
        "first_txn": [r["first_txn_ns"] / factor(r["probes_ns"]) for r in result["restarts"]],
        "full": [r["full_ns"] / factor(r["probes_ns"]) for r in result["restarts"]],
    }


def across_repeats(repeats: list[dict], key: str, pick=min) -> list[float]:
    """Per operation (or restart), ``pick`` of ``key`` across repeats."""
    return [pick(column) for column in zip(*(repeat[key] for repeat in repeats))]


def restart_times(repeats: list[dict], key: str) -> list[float]:
    """Per restart, the median of ``key`` across repeats.  Not the minimum:
    a restart has a handful of probes around it, not dozens, so its speed
    factor is off by a few per cent either way, and a minimum would pick
    whichever repeat's factor erred high."""
    return across_repeats(repeats, key, statistics.median)


def end_to_end(results: list[dict], *, normalised: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics and their sample counts."""
    first = results[0]
    repeats = [timings(result, normalised=normalised) for result in results]
    operations = across_repeats(repeats, "operations")
    committed = sorted(
        duration for duration, outcome in zip(operations, first["outcomes"]) if outcome
    )
    metrics = {
        "setup_s": statistics.median(repeat["setup_s"] for repeat in repeats),
        "txn_per_s": len(committed) / (sum(operations) / 1e9),
        "commit_ms_p50": percentile(committed, 0.50) / 1e6,
        "commit_ms_p99": percentile(committed, 0.99) / 1e6,
        "restart_first_txn_ms": statistics.median(restart_times(repeats, "first_txn")) / 1e6,
        "restart_full_ms": statistics.median(restart_times(repeats, "full")) / 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    samples = {
        "timed_ops": len(operations),
        "committed": len(committed),
        "beyond_p99": len(committed) - math.ceil(0.99 * len(committed)),
        "restarts": len(first["restarts"]),
        "repeats": len(results),
    }
    return metrics, samples


def machine_speed(results: list[dict]) -> dict:
    """Context: the speed factors the run saw (1 = reference speed)."""
    per_repeat = []
    for result in results:
        probes = [nanoseconds for _, nanoseconds in result["probes"]]
        for restart in result["restarts"]:
            probes.extend(restart["probes_ns"])
        per_repeat.append(sorted(probes))
    medians = [speed_factor(probes) for probes in per_repeat]
    return {
        "median": statistics.median(medians),
        "fastest_probe": speed_factor([min(probes[0] for probes in per_repeat)]),
        "slowest_probe": speed_factor([max(probes[-1] for probes in per_repeat)]),
        "probes": sum(map(len, per_repeat)),
        "noisy_repeats": sum(1 for m in medians if m > NOISE_TOLERANCE * min(medians)),
    }


def failures_of(result: dict) -> list[str]:
    problems = list(result["failures"])
    for index, restart in enumerate(result["restarts"]):
        problems.extend(f"restart {index}: {problem}" for problem in restart["problems"])
    return problems


def failed_count(result: dict) -> int:
    """Operations that raised unexpectedly plus restarts that lost a commit
    or failed digest, integrity or conservation."""
    return len(result["failures"]) + sum(1 for r in result["restarts"] if r["problems"])


def attempted_count(result: dict) -> int:
    return len(result["durations_ns"]) + len(result["restarts"])


def per_layer(untraced: list[dict], traced: dict) -> tuple[dict, dict]:
    """Span metrics from the traced repeat, exact counters and restart
    throughput from the untraced ones, plus context for reading them."""
    first = untraced[0]
    ops = len(first["durations_ns"])
    restarts = first["restarts"]
    counters = first["counters"]
    trace = traced["trace"]
    # span times are sums over a whole phase of the traced repeat, so they
    # are brought to reference speed by that phase's median speed factor
    forward_factor = speed_factor([nanoseconds for _, nanoseconds in traced["probes"]])
    restart_factor = speed_factor(
        [nanoseconds for restart in traced["restarts"] for nanoseconds in restart["probes_ns"]]
    )
    metrics = {}
    for name in FORWARD_SPANS:
        calls, self_ns = trace["phases"]["measured"][name]
        metrics[f"{name}.calls_per_txn"] = calls / ops
        metrics[f"{name}.self_us_per_txn"] = self_ns / 1e3 / ops / forward_factor
    for name in RESTART_SPANS:
        calls, self_ns = trace["phases"]["restart"][name]
        metrics[f"{name}.calls_per_restart"] = calls / len(restarts)
        metrics[f"{name}.self_ms_per_restart"] = self_ns / 1e6 / len(restarts) / restart_factor

    def per_restart(key: str) -> float:
        return sum(restart[key] for restart in restarts) / len(restarts)

    log_reads = sum(r["log_cache_hits"] + r["log_pages_fetched"] for r in restarts)
    finished = counters["committed"] + counters["aborted"]
    full_s = sum(restart_times([timings(r, normalised=True) for r in untraced], "full")) / 1e9
    metrics.update(
        {
            "log_bytes_per_txn": counters["slb_bytes"] / ops,
            "disk_bytes_per_txn": (
                counters["log_disk_bytes"] + counters["checkpoint_disk_bytes"]
            )
            / ops,
            "failed_ops_share": failed_count(first) / attempted_count(first),
            "wal.slb_records_per_txn": counters["slb_records"] / ops,
            "wal.log_pages_per_ktxn": 1000 * counters["log_pages"] / ops,
            "wal.log_cache_hit_ratio": (
                sum(r["log_cache_hits"] for r in restarts) / log_reads if log_reads else 0.0
            ),
            "checkpoint.taken_per_ktxn": 1000 * counters["checkpoints"] / ops,
            "checkpoint.bytes_per_txn": counters["checkpoint_disk_bytes"] / ops,
            "txn.abort_share": counters["aborted"] / finished,
            "recovery.sim_instr_per_txn": counters["recovery_instr"] / ops,
            "sim.main_instr_per_txn": counters["main_instr"] / ops,
            "recovery.partitions_per_restart": per_restart("partitions"),
            "recovery.records_replayed_per_restart": per_restart("records_replayed"),
            "recovery.pages_read_per_restart": per_restart("pages_read"),
            "recovery.commands_replayed_per_restart": per_restart("commands_replayed"),
            "recovery.replay_records_per_s": (
                sum(r["records_replayed"] for r in restarts) / full_s
            ),
            "trace.overhead_ratio": sum(timings(traced, normalised=True)["operations"])
            / sum(timings(first, normalised=True)["operations"]),
        }
    )

    # By construction the self times under the roots add up to the roots'
    # durations; a leak (a span left open across operations) breaks this.
    accounted = sum(cell[1] for cell in trace["phases"]["measured"].values())
    if accounted != trace["measured_root_ns"]:
        raise BenchmarkError(
            f"{first['workload']}: span self times sum to {accounted} ns but the "
            f"traced measured phase took {trace['measured_root_ns']} ns"
        )
    traced_restarts = traced["restarts"]
    context = {
        "spans_recorded": trace["spans"],
        "traced_measured_s": trace["measured_root_ns"] / 1e9,
        "traced_restart_first_txn_ms": statistics.median(
            r["first_txn_ns"] for r in traced_restarts
        )
        / 1e6,
        "traced_restart_full_ms": statistics.median(r["full_ns"] for r in traced_restarts)
        / 1e6,
        "restart_spans_self_ms": sum(
            trace["phases"]["restart"][name][1] for name in RESTART_SPANS
        )
        / 1e6
        / len(restarts),
        "command_replay_inclusive_ms": trace["command_replay_ns"] / 1e6 / len(restarts),
    }
    return metrics, context


def measure_workload(
    workload: str, seed: int, scale: float, repeats: int, contract: dict,
    *, e2e: bool, layers: bool,
) -> dict:
    """Run one workload's repeats (and traced repeat) and derive its metrics."""
    started = time.monotonic()
    results = run_repeats(workload, seed, scale, repeats)
    first = results[0]
    report = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "attempted": attempted_count(first),
        "failed": failed_count(first),
        "problems": failures_of(first)[:20],
        "machine_speed": machine_speed(results),
    }
    if e2e:
        values, report["samples"] = end_to_end(results)
        report["end_to_end"] = with_units(values, "end_to_end", contract)
        report["raw_end_to_end"] = end_to_end(results, normalised=False)[0]
    if layers:
        traced = run_child(workload, seed, scale, RESULTS_DIR / f"trace-{workload}.jsonl")
        check_determinism(workload, [first, traced])
        values, report["trace_context"] = per_layer(results, traced)
        report["per_layer"] = with_units(values, "per_layer", contract)
        report["trace_file"] = str(
            (RESULTS_DIR / f"trace-{workload}.jsonl").relative_to(ROOT)
        )
    report["wall_s"] = time.monotonic() - started
    return report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def with_units(values: dict, family: str, contract: dict) -> dict:
    """``{name: {"value", "unit"}}`` for one metric family; the names must
    be exactly the ones ``BENCHMARK.json`` declares."""
    declared = {metric["name"]: metric["unit"] for metric in contract[family]}
    if set(values) != set(declared):
        odd = sorted(set(values) ^ set(declared))
        raise BenchmarkError(f"{family} metrics disagree with BENCHMARK.json: {odd}")
    return {name: {"value": values[name], "unit": declared[name]} for name in declared}


def print_report(report: dict, log) -> None:
    speed = report["machine_speed"]
    log(
        f"== {report['workload']}  seed {report['seed']}  scale {report['scale']:g}  "
        f"attempted {report['attempted']}  failed {report['failed']}  "
        f"wall {report['wall_s']:.1f} s  speed factor {speed['median']:.3f} "
        f"(1 = reference speed; single probes {speed['fastest_probe']:.2f}.."
        f"{speed['slowest_probe']:.2f}, {speed['probes']} probes, "
        f"noisy repeats {speed['noisy_repeats']})"
    )
    for problem in report["problems"]:
        log(f"   FAILED {problem}")
    if "end_to_end" in report:
        samples = report["samples"]
        notes = {
            "commit_ms_p50": f"n={samples['committed']}",
            "commit_ms_p99": f"n={samples['committed']}, {samples['beyond_p99']} beyond",
            "restart_first_txn_ms": f"n={samples['restarts']} restarts",
            "restart_full_ms": f"n={samples['restarts']} restarts",
            "setup_s": f"median of {samples['repeats']}",
            "peak_rss_mb": f"median of {samples['repeats']}",
            "txn_per_s": f"{samples['committed']} committed / {samples['timed_ops']} timed",
        }
        raw = report["raw_end_to_end"]
        for name, metric in report["end_to_end"].items():
            log(
                f"   {name:<24} {metric['value']:>14.4f} {metric['unit']:<6} "
                f"(raw {raw[name]:.4f}; {notes[name]})"
            )
    if "per_layer" in report:
        for name, metric in report["per_layer"].items():
            if metric["value"]:
                log(f"   {name:<52} {metric['value']:>14.4f} {metric['unit']}")
        context = report["trace_context"]
        log(
            f"   [trace] {context['spans_recorded']} spans -> {report['trace_file']}; "
            f"raw times: traced restart {context['traced_restart_first_txn_ms']:.1f} ms to first txn, "
            f"{context['traced_restart_full_ms']:.1f} ms to full residency, of which "
            f"restart spans' self time {context['restart_spans_self_ms']:.1f} ms, "
            f"recovery.command_replay inclusive {context['command_replay_inclusive_ms']:.1f} ms"
        )


def environment_key() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_sets(args, contract: dict, log) -> int:
    """All workloads, ``--sets`` times back to back; writes one results file."""
    names = [workload["name"] for workload in contract["workloads"]]
    scale = args.seconds / contract["run_seconds"]
    sets = []
    failed = 0
    for number in range(1, args.sets + 1):
        log(f"-- set {number} of {args.sets}")
        reports = {}
        for name in names:
            report = measure_workload(
                name, args.seed, scale, args.repeats, contract, e2e=True, layers=True
            )
            print_report(report, log)
            failed += report["failed"]
            reports[name] = report
        sets.append({"workloads": reports})
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"run-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"key": environment_key(), "sets": sets}, handle, indent=1)
    log(f"results written to {path.relative_to(ROOT)}")
    return 1 if failed else 0


def run_contract(args, contract: dict, log) -> int:
    """One workload; the last line of stdout is the contract's JSON object."""
    scale = args.seconds / contract["run_seconds"]
    traced = args.trace == 1
    report = measure_workload(
        args.workload,
        args.seed,
        scale,
        1 if traced else args.repeats,
        contract,
        e2e=not traced,
        layers=traced,
    )
    print_report(report, log)
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["per_layer" if traced else "end_to_end"],
    }
    print(json.dumps(line), flush=True)
    return 0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(base_path: str, candidate_path: str, contract: dict, log) -> int:
    """One row per (workload, end-to-end metric): the first set of the base
    file against the last set of the candidate file.  Non-zero exit on any
    regression beyond a metric's bound or any moved exact counter."""
    with open(base_path, encoding="utf-8") as handle:
        base_file = json.load(handle)
    with open(candidate_path, encoding="utf-8") as handle:
        candidate_file = json.load(handle)
    log(f"base      {base_path} set 1 of {len(base_file['sets'])}  {base_file['key']}")
    log(
        f"candidate {candidate_path} set {len(candidate_file['sets'])} of "
        f"{len(candidate_file['sets'])}  {candidate_file['key']}"
    )
    base = base_file["sets"][0]["workloads"]
    candidate = candidate_file["sets"][-1]["workloads"]
    regressions = 0
    log(f"{'workload':<17}{'metric':<22}{'base':>12}{'candidate':>12}  ratio (of base)  bound  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            old = base[workload]["end_to_end"][name]["value"]
            new = candidate[workload]["end_to_end"][name]["value"]
            ratio = new / old
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "improved" if worse < -metric["bound"] else "within bound"
            log(
                f"{workload:<17}{name:<22}{old:>12.4f}{new:>12.4f}  "
                f"{ratio:6.3f} x {old:<10.4g} {metric['bound']:>5.0%}  {verdict}"
            )
        for name in EXACT_COUNTERS:
            old = base[workload]["per_layer"][name]["value"]
            new = candidate[workload]["per_layer"][name]["value"]
            if old != new:
                regressions += 1
                log(f"{workload:<17}{name:<40} {old!r} -> {new!r}  EXACT COUNTER MOVED")
    log(
        f"{regressions} regression(s)"
        if regressions
        else "no regression; every exact counter is unchanged"
    )
    return 1 if regressions else 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=1987, help="drives the key pickers")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured seconds of one run on the reference machine; scales every "
        "count linearly (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: 0 prints end-to-end metrics, 1 per-layer metrics",
    )
    parser.add_argument("--repeats", type=int, default=3, help="untraced repeats per workload")
    parser.add_argument(
        "--quick", action="store_true", help="one repeat, one tenth of every count"
    )
    parser.add_argument("--sets", type=int, default=1, help="full sets run back to back")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "CANDIDATE.json"))
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(message, flush=True)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.quick:
        args.seconds, args.repeats = contract["run_seconds"] / 10, 1
    if args.seconds <= 0 or args.repeats < 1 or args.sets < 1:
        parser.error("--seconds, --repeats and --sets must be positive")
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    try:
        if args.compare:
            return compare(*args.compare, contract, log)
        if args.workload is not None:
            return run_contract(args, contract, log)
        return run_sets(args, contract, log)
    except BenchmarkError as error:
        print(error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
