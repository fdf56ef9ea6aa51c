"""Logging-mode benchmark — value vs command (docs/LOGGING.md).

Command logging trades log volume for recovery work: a scripted
transaction commits one compact ``TxnCommand`` record instead of its
after-images, and restart re-executes the live command-log suffix.  The
replay planner partitions that suffix by declared access lists into
conflict-free batches and replays them one after another.

Three measurements on one scripted workload (eight disjoint relations,
one registered script each), with checkpoints out of the way:

1. **Log volume** — stable log bytes per scripted transaction, per mode.
   Acceptance: command mode writes ≥5x fewer bytes/txn than value mode.
2. **Commit-path cost** — simulated seconds per scripted transaction.
3. **Recovery** — crash with the full command suffix live, then restart:
   simulated seconds per mode, and digests identical across both modes
   and an on-demand restart (the planner must find one batch per
   relation).  What the two modes
   cost on the host clock is the ``scripted_command`` workload of
   ``benchmarks/host`` (docs/LOGGING.md has the table).

And one with them in the way — the tradeoff command logging is kept for
(docs/LOGGING.md, "Measuring the tradeoff"):

4. **Disk bytes at the Table-2 trigger** — the host benchmark's
   ``scripted_command`` shape (four relations of 1 000 rows, 1 000 scripts
   of six row bumps) under the default ``SystemConfig``: log-disk plus
   checkpoint-disk bytes per transaction per mode, on three seeds, and the
   live commands a crash then leaves.  Acceptance: command mode writes
   fewer of them than value mode, its settlement sweeps included, and
   restart replays exactly the live commands.

Results land in ``benchmarks/results/BENCH_logging_modes.json`` for CI artifacts.
"""

from __future__ import annotations

import json
import random

from repro import Database, RecoveryMode, SystemConfig

MODES = ["value", "command"]
#: Disjoint single-relation closures — one replay batch each.
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


#: Measurement 4: the host benchmark's ``scripted_command`` shape.
TRADEOFF_SEEDS = (1987, 7, 101)
TRADEOFF_RELATIONS = 4
TRADEOFF_ROWS = 1_000
TRADEOFF_TXNS = 1_000


def _register_scripts(db: Database, relations, rows: int = ROWS_PER_RELATION) -> None:
    for index, relation in enumerate(relations):
        def bump(txn, start, count, delta, relation=relation):
            for offset in range(count):
                key = (start + offset) % rows
                row = relation.lookup(txn, key)
                value = row["v"] + delta
                relation.update(
                    txn,
                    row.address,
                    {"v": value, "pad": f"{value:06d}" + "y" * 42},
                )

        db.register_script(f"bump_r{index}", bump, relations=[relation.name])


def build(mode: str) -> tuple[Database, dict]:
    """Load eight disjoint relations, then run the scripted phase under
    ``mode``; returns the database plus commit-phase metrics."""
    db = Database(_config(mode))
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
    """Workload, crash, eager restart, digest."""
    from repro.recovery.oracle import logical_digest

    db, metrics = build(mode)
    db.crash()
    start = db.clock.now
    db.restart(RecoveryMode.EAGER)
    metrics["recovery_sim_seconds"] = db.clock.now - start
    replay = db.last_command_replay
    metrics["commands_replayed"] = 0 if replay is None else replay["commands_replayed"]
    metrics["digest"] = logical_digest(db)
    return metrics


def measure_replay() -> dict:
    """Command-mode workload, crash, on-demand restart, then the rest."""
    from repro.recovery.oracle import logical_digest

    db, _ = build("command")
    db.crash()
    db.restart(RecoveryMode.ON_DEMAND)
    replay = db.last_command_replay
    db.restart_coordinator.recover_everything()
    return {
        "commands_replayed": replay["commands_replayed"],
        "batches": replay["batches"],
        "max_batch": replay["max_batch"],
        "digest": logical_digest(db),
    }


def measure_tradeoff(mode: str, seed: int) -> dict:
    """Measurement 4 for one mode and seed: disk bytes per scripted
    transaction at the Table-2 default trigger, then crash and restart."""
    from repro.recovery.oracle import logical_digest

    db = Database(SystemConfig(logging_mode=mode))
    relations = []
    for index in range(TRADEOFF_RELATIONS):
        relation = db.create_relation(
            f"r{index}", [("id", "int"), ("v", "int"), ("pad", "str")], primary_key="id"
        )
        for start in range(0, TRADEOFF_ROWS, 100):
            with db.transaction() as txn:
                for key in range(start, start + 100):
                    relation.insert(txn, {"id": key, "v": 0, "pad": "x" * 48})
        relations.append(relation)
    _register_scripts(db, relations, TRADEOFF_ROWS)
    log_disk = db.log_disk.disks.primary.stats
    checkpoint_disk = db.checkpoint_disk.disk.stats
    log_before, checkpoint_before = log_disk.bytes_written, checkpoint_disk.bytes_written
    checkpoints_before = db.checkpoints.checkpoints_taken
    rng = random.Random(seed)
    for call in range(TRADEOFF_TXNS):
        db.run_script(
            f"bump_r{call % TRADEOFF_RELATIONS}",
            rng.randrange(TRADEOFF_ROWS),
            ROWS_TOUCHED_PER_TXN,
            rng.randint(1, 9),
        )
    log_bytes = (log_disk.bytes_written - log_before) / TRADEOFF_TXNS
    checkpoint_bytes = (checkpoint_disk.bytes_written - checkpoint_before) / TRADEOFF_TXNS
    live = len(db.slb.live_commands())
    expected = logical_digest(db)
    db.crash()
    db.restart(RecoveryMode.EAGER)
    replay = db.last_command_replay
    return {
        "mode": mode,
        "seed": seed,
        "log_disk_bytes_per_txn": log_bytes,
        "checkpoint_disk_bytes_per_txn": checkpoint_bytes,
        "disk_bytes_per_txn": log_bytes + checkpoint_bytes,
        "checkpoints": db.checkpoints.checkpoints_taken - checkpoints_before,
        "live_commands": live,
        "commands_replayed": 0 if replay is None else replay["commands_replayed"],
        "digest_equal": logical_digest(db) == expected,
    }


def bench_logging_modes(benchmark, report):
    def run():
        return (
            [measure_mode(mode) for mode in MODES],
            measure_replay(),
            [measure_tradeoff(mode, seed) for seed in TRADEOFF_SEEDS for mode in MODES],
        )

    mode_results, replay, tradeoff = benchmark.pedantic(run, rounds=1, iterations=1)

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
    lines.append(
        f"on-demand replay: {replay['commands_replayed']} commands in "
        f"{replay['batches']} batches (largest {replay['max_batch']})"
    )
    lines.append("")
    lines.append(
        f"at the Table-2 trigger: {'mode':>7} {'seed':>5} {'log B/txn':>10} "
        f"{'ckpt B/txn':>11} {'total':>7} {'ckpts':>6} {'live':>5}"
    )
    for r in tradeoff:
        lines.append(
            f"{'':22}{r['mode']:>7} {r['seed']:>5} {r['log_disk_bytes_per_txn']:>10.0f} "
            f"{r['checkpoint_disk_bytes_per_txn']:>11.0f} {r['disk_bytes_per_txn']:>7.0f} "
            f"{r['checkpoints']:>6} {r['live_commands']:>5}"
        )
    report("Logging modes — log volume, commit cost, batched replay", lines)

    by_mode = {r["mode"]: r for r in mode_results}
    payload = {
        "benchmark": "logging_modes",
        "relations": N_RELATIONS,
        "scripted_txns": by_mode["value"]["scripted_txns"],
        "modes": [
            {k: v for k, v in r.items() if k != "digest"} for r in mode_results
        ],
        "replay": {k: v for k, v in replay.items() if k != "digest"},
        "tradeoff": tradeoff,
        "value_to_command_bytes_ratio": (
            by_mode["value"]["log_bytes_per_txn"]
            / by_mode["command"]["log_bytes_per_txn"]
        ),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    # Recovery lands every mode — and an on-demand restart — on the same
    # committed state.
    digests = {r["digest"] for r in mode_results} | {replay["digest"]}
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
    # Dependency batching: one batch per disjoint relation.
    assert replay["batches"] == N_RELATIONS
    assert replay["commands_replayed"] == total
    # The verdict: sweeps included, command mode writes fewer disk bytes,
    # and a restart replays exactly what the crash left live.
    for seed in TRADEOFF_SEEDS:
        value, command = (
            next(r for r in tradeoff if r["seed"] == seed and r["mode"] == mode)
            for mode in MODES
        )
        assert command["disk_bytes_per_txn"] < value["disk_bytes_per_txn"], seed
        assert value["live_commands"] == value["commands_replayed"] == 0
        assert command["commands_replayed"] == command["live_commands"] > 0
    assert all(r["digest_equal"] for r in tradeoff)
