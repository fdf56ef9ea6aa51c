"""Logging-mode benchmark — value vs command (docs/LOGGING.md).

Command logging trades log volume for recovery work: a scripted
transaction commits one compact ``TxnCommand`` record instead of its
after-images, and restart re-executes the live command-log suffix.  The
replay planner partitions that suffix by declared access lists into
conflict-free batches, which the threaded engine replays on its pool.

Three measurements on one scripted workload (eight disjoint relations,
one registered script each):

1. **Log volume** — stable log bytes per scripted transaction, per mode.
   Acceptance: command mode writes ≥5x fewer bytes/txn than value mode.
2. **Commit-path cost** — simulated seconds per scripted transaction.
3. **Recovery** — crash with the full command suffix live, then restart:
   simulated seconds per mode, and digests identical across both modes
   and every replay pool size (the planner must find one batch per
   relation, and a pool of 4 must use 4 workers).  What the two modes
   cost on the host clock is the ``scripted_command`` workload of
   ``benchmarks/host`` (docs/LOGGING.md has the table).

Results land in ``benchmarks/results/BENCH_logging_modes.json`` for CI artifacts.
"""

from __future__ import annotations

import json

from repro import Database, RecoveryMode, SystemConfig
from repro.engine import ThreadedEngine

MODES = ["value", "command"]
#: Replay pool sizes measured under command mode, in order.
WORKER_COUNTS = [1, 2, 4]
#: Disjoint single-relation closures — the planner's parallelism budget.
N_RELATIONS = 8
ROWS_PER_RELATION = 160
SCRIPT_TXNS_PER_RELATION = 24
ROWS_TOUCHED_PER_TXN = 6

from _results import results_path

RESULTS_PATH = results_path("BENCH_logging_modes.json")


def _config(mode: str) -> SystemConfig:
    return SystemConfig(
        logging_mode=mode,
        partition_size=64 * 1024,
        log_page_size=1024,
        update_count_threshold=100_000,  # no checkpoints: full suffix live
        log_window_pages=4096,
        log_window_grace_pages=64,
    )


def _register_scripts(db: Database, relations) -> None:
    for index, relation in enumerate(relations):
        def bump(txn, start, count, delta, relation=relation):
            for offset in range(count):
                key = (start + offset) % ROWS_PER_RELATION
                row = relation.lookup(txn, key)
                value = row["v"] + delta
                relation.update(
                    txn,
                    row.address,
                    {"v": value, "pad": f"{value:06d}" + "y" * 42},
                )

        db.register_script(f"bump_r{index}", bump, relations=[relation.name])


def build(mode: str, engine=None) -> tuple[Database, dict]:
    """Load eight disjoint relations, then run the scripted phase under
    ``mode``; returns the database plus commit-phase metrics."""
    db = Database(_config(mode), engine=engine) if engine else Database(_config(mode))
    relations = [
        db.create_relation(
            f"r{i}", [("id", "int"), ("v", "int"), ("pad", "str")], primary_key="id"
        )
        for i in range(N_RELATIONS)
    ]
    for relation in relations:
        with db.transaction(relations=[relation.name]) as txn:
            for key in range(ROWS_PER_RELATION):
                relation.insert(txn, {"id": key, "v": 0, "pad": "x" * 48})
    _register_scripts(db, relations)
    db.recovery_processor.run_until_drained()

    commits_before, bytes_before = db.slb.mode_stats()
    clock_before = db.clock.now
    for step in range(SCRIPT_TXNS_PER_RELATION):
        for index in range(N_RELATIONS):
            db.run_script(
                f"bump_r{index}",
                (step * ROWS_TOUCHED_PER_TXN) % ROWS_PER_RELATION,
                ROWS_TOUCHED_PER_TXN,
                1,
            )
    commits_after, bytes_after = db.slb.mode_stats()
    txns = SCRIPT_TXNS_PER_RELATION * N_RELATIONS
    log_bytes = sum(bytes_after.values()) - sum(bytes_before.values())
    metrics = {
        "mode": mode,
        "scripted_txns": txns,
        "log_bytes_per_txn": log_bytes / txns,
        "commit_seconds_per_txn": (db.clock.now - clock_before) / txns,
        "mode_commits": {
            key: commits_after.get(key, 0) - commits_before.get(key, 0)
            for key in commits_after
        },
    }
    return db, metrics


def measure_mode(mode: str) -> dict:
    """Cooperative engine: workload, crash, eager restart, digest."""
    from repro.recovery.oracle import logical_digest

    db, metrics = build(mode)
    try:
        db.crash()
        start = db.clock.now
        db.restart(RecoveryMode.EAGER)
        metrics["recovery_sim_seconds"] = db.clock.now - start
        replay = db.last_command_replay
        metrics["commands_replayed"] = (
            0 if replay is None else replay["commands_replayed"]
        )
        metrics["digest"] = logical_digest(db)
        return metrics
    finally:
        db.close()


def measure_replay(workers: int) -> dict:
    """Threaded engine: command-mode workload, crash, restart."""
    from repro.recovery.oracle import logical_digest

    db, _ = build("command", engine=ThreadedEngine(workers=workers))
    try:
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        replay = db.last_command_replay
        db.restart_coordinator.recover_everything()
        return {
            "workers": workers,
            "commands_replayed": replay["commands_replayed"],
            "batches": replay["batches"],
            "replay_workers": replay["replay_workers"],
            "digest": logical_digest(db),
        }
    finally:
        db.close()


def bench_logging_modes(benchmark, report):
    def run():
        return (
            [measure_mode(mode) for mode in MODES],
            [measure_replay(n) for n in WORKER_COUNTS],
        )

    mode_results, replay_results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"{'mode':>9} {'bytes/txn':>10} {'commit ms/txn':>14} "
        f"{'recovery (sim)':>15} {'replayed':>9}"
    ]
    for r in mode_results:
        lines.append(
            f"{r['mode']:>9} {r['log_bytes_per_txn']:>10.0f} "
            f"{r['commit_seconds_per_txn'] * 1000:>11.3f} ms "
            f"{r['recovery_sim_seconds']:>13.2f} s {r['commands_replayed']:>9}"
        )
    lines.append("")
    lines.append(f"{'pool size':>10} {'replay workers':>15} {'batches':>8}")
    for r in replay_results:
        lines.append(f"{r['workers']:>10} {r['replay_workers']:>15} {r['batches']:>8}")
    report("Logging modes — log volume, commit cost, batched replay", lines)

    by_mode = {r["mode"]: r for r in mode_results}
    payload = {
        "benchmark": "logging_modes",
        "relations": N_RELATIONS,
        "scripted_txns": by_mode["value"]["scripted_txns"],
        "modes": [
            {k: v for k, v in r.items() if k != "digest"} for r in mode_results
        ],
        "replay": [
            {k: v for k, v in r.items() if k != "digest"} for r in replay_results
        ],
        "value_to_command_bytes_ratio": (
            by_mode["value"]["log_bytes_per_txn"]
            / by_mode["command"]["log_bytes_per_txn"]
        ),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    # Recovery lands every mode — and every replay pool size — on the
    # same committed state.
    digests = {r["digest"] for r in mode_results} | {
        r["digest"] for r in replay_results
    }
    assert len(digests) == 1, "logging modes diverged after recovery"
    # Value mode replays nothing; command mode replays the whole suffix.
    assert by_mode["value"]["commands_replayed"] == 0
    total = SCRIPT_TXNS_PER_RELATION * N_RELATIONS
    assert by_mode["command"]["commands_replayed"] == total
    # Acceptance: ≥5x fewer stable log bytes per scripted transaction.
    assert payload["value_to_command_bytes_ratio"] >= 5.0, (
        f"command mode only {payload['value_to_command_bytes_ratio']:.1f}x "
        f"below value mode"
    )
    # Dependency batching: one batch per disjoint relation, spread over
    # as many workers as the pool has.
    by_workers = {r["workers"]: r for r in replay_results}
    assert by_workers[1]["replay_workers"] == 1
    assert by_workers[4]["replay_workers"] == 4
    assert by_workers[4]["batches"] >= 4
