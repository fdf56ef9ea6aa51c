"""One repeat of one workload, in a process of its own.

``run.py`` starts this file as a fresh child per repeat (``PYTHONHASHSEED=0``,
``REPRO_*`` scrubbed) and reads the one JSON object printed on the last
line of standard output: per-operation durations, set-up time, restart
timings, exact counters, the determinism signature, and — for the traced
repeat — calls and self time per span.

Everything is measured from outside through public functions: a
``SimEngine`` database, one closed-loop client on this thread,
``time.perf_counter_ns`` around each ``with db.transaction()`` /
``db.run_script`` with the between-transactions pump included.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from reference import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro import Database, RecoveryMode, SystemConfig  # noqa: E402
from repro.db.integrity import verify_integrity  # noqa: E402
from repro.engine import SimEngine  # noqa: E402
from repro.recovery.oracle import logical_digest  # noqa: E402

#: Probes of the reference kernel taken on either side of a region that
#: cannot be probed from inside (set-up, a restart).
EDGE_PROBES = 5


def build_database() -> Database:
    """Table-2 defaults, value logging, no condensing, every sleep bridge off."""
    db = Database(
        SystemConfig(logging_mode="value", condense_enabled=False), engine=SimEngine()
    )
    bridged = (
        db.main_cpu,
        db.recovery_cpu,
        db.log_disk.disks.primary,
        db.log_disk.disks.mirror,
        db.checkpoint_disk.disk,
    )
    if any(device.realtime_scale != 0 for device in bridged):
        raise RuntimeError("a realtime_scale bridge is on; host time would include sleeps")
    return db


def counters(db: Database) -> dict:
    """The exact counters the benchmark reports as deltas."""
    stats = db.stats()
    return {
        "committed": stats["transactions_committed"],
        "aborted": stats["transactions_aborted"],
        "slb_records": stats["slb_records_written"],
        "slb_bytes": sum(stats["logging"]["mode_bytes"].values()),
        "log_pages": stats["log_pages_written"],
        "checkpoints": stats["checkpoints_taken"],
        "log_disk_bytes": db.log_disk.disks.primary.stats.bytes_written,
        "checkpoint_disk_bytes": db.checkpoint_disk.disk.stats.bytes_written,
        "recovery_instr": db.recovery_cpu.total_instructions,
        "main_instr": db.main_cpu.total_instructions,
    }


def run_segment(db, workload, segment, first_op, tracer, out) -> None:
    """Time every operation of one segment, and the reference kernel before
    every ``PROBE_EVERY``-th of them and after the last; appends to ``out``.
    Probes go by operation count, not by the clock, so every repeat does
    the same things in the same order."""
    durations, outcomes, failures = out["durations_ns"], out["outcomes"], out["failures"]
    probes, every = out["probes"], workload.PROBE_EVERY
    execute = workload.execute
    for index, op in enumerate(segment, first_op):
        if (index - first_op) % every == 0:
            probes.append([index, probe()])
        if tracer is not None:
            tracer.op = index
            root = tracer.open_root()
        else:
            start = perf_counter_ns()
        try:
            outcome = execute(db, op)
        except Exception as exc:  # boundary: count the failure, keep measuring
            outcome = None
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        if tracer is not None:
            elapsed = tracer.close_root(root)
            tracer.op = None
        else:
            elapsed = perf_counter_ns() - start
        durations.append(elapsed)
        outcomes.append(outcome)
    probes.append([first_op + len(segment), probe()])


def crash_epilogue(db, workload, restart_index, tracer, *, final: bool) -> dict:
    """Digest, crash, on-demand restart, one user transaction, full
    recovery, then verification (integrity and the workload's invariant
    only after the last restart: they scan every row)."""
    digest = logical_digest(db)
    cache_hits = db.log_disk.cache_hits
    pages_fetched = db.log_disk.pages_read
    problems = []
    if tracer is not None:
        tracer.op = -(restart_index + 1)
    edge_probes = [probe() for _ in range(EDGE_PROBES)]
    start = perf_counter_ns()
    db.crash()
    coordinator = db.restart(RecoveryMode.ON_DEMAND)
    root = tracer.open_root() if tracer is not None else None
    try:
        workload.first_txn(db, restart_index)
    except Exception as exc:  # boundary: a lost commit shows up here
        problems.append(f"first transaction: {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.close_root(root)
    first_txn = perf_counter_ns()
    coordinator.recover_everything()
    full = perf_counter_ns()
    edge_probes += [probe() for _ in range(EDGE_PROBES)]
    if tracer is not None:
        tracer.op = None
    if not coordinator.fully_recovered:
        problems.append("not fully recovered after recover_everything()")
    elif logical_digest(db) != digest:
        problems.append("post-restart digest differs from the pre-crash digest")
    if final:
        problems.extend(verify_integrity(db))
        problems.extend(workload.check(db))
    replay = db.last_command_replay or {}
    return {
        "digest": digest,
        "first_txn_ns": first_txn - start,
        "full_ns": full - start,
        "probes_ns": edge_probes,
        "partitions": coordinator.partitions_recovered,
        "records_replayed": coordinator.records_replayed,
        "pages_read": coordinator.pages_read,
        "commands_replayed": replay.get("commands_replayed", 0),
        "log_cache_hits": db.log_disk.cache_hits - cache_hits,
        "log_pages_fetched": db.log_disk.pages_read - pages_fetched,
        "problems": problems,
    }


def run_repeat(name: str, seed: int, scale: float, trace_path: str | None) -> dict:
    tracer = None
    if trace_path is not None:
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = WORKLOADS[name](seed, scale)

    setup_probes = [probe() for _ in range(EDGE_PROBES)]
    setup_start = perf_counter_ns()
    db = build_database()
    workload.setup(db)
    setup_ns = perf_counter_ns() - setup_start
    setup_probes += [probe() for _ in range(EDGE_PROBES)]

    out = {"durations_ns": [], "outcomes": [], "failures": [], "probes": []}
    deltas: dict[str, float] = {}
    restarts = []
    gc.collect()
    for index, segment in enumerate(workload.segments):
        before = counters(db)
        run_segment(db, workload, segment, len(out["durations_ns"]), tracer, out)
        after = counters(db)
        for key in after:
            deltas[key] = deltas.get(key, 0) + after[key] - before[key]
        restarts.append(
            crash_epilogue(
                db, workload, index, tracer, final=index == len(workload.segments) - 1
            )
        )
    db.close()

    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "setup_s": setup_ns / 1e9,
        "setup_probes_ns": setup_probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": deltas,
        "restarts": restarts,
        **out,
    }
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        tracer.write_jsonl(
            trace_path,
            {"workload": name, "seed": seed, "scale": scale, "spans": list(spans.SPAN_NAMES)},
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)
    result = run_repeat(args.workload, args.seed, args.scale, args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
