"""Supplementary S34 measurement — recovery time vs accumulated log.

Section 3.4: "A partition's recovery time is determined by the time it
takes to read its checkpoint image from the checkpoint disk, to read all
of its log pages, and to apply those log pages to its checkpoint image."
The checkpoint threshold (N_update) therefore trades normal-operation
checkpoint cost against post-crash recovery latency.

Measured here on the real system: the simulated time to recover one hot
partition after a crash, as a function of how many updates it absorbed
since its last checkpoint.

``--logging-mode`` selects the axis (docs/LOGGING.md).  Under ``value``
the accumulated log is after-images and recovery is REDO application;
under ``command`` the accumulation is a live command suffix and recovery is
re-execution by the replay planner, so "records applied" stays flat
while "commands replayed" grows instead.
"""

from repro import Database, SystemConfig

UPDATE_COUNTS = [0, 100, 400, 800]
UPDATES_PER_TXN = 50


def measure(updates_since_checkpoint: int, mode: str) -> dict:
    config = SystemConfig(
        logging_mode=mode,
        log_page_size=1024,
        update_count_threshold=10_000,  # manual checkpoints only
        log_window_pages=4096,
        log_window_grace_pages=64,
    )
    db = Database(config)
    rel = db.create_relation("hot", [("id", "int"), ("v", "int")], primary_key="id")
    with db.transaction() as txn:
        addr = rel.insert(txn, {"id": 1, "v": 0})

    def bump(txn, count):
        for step in range(count):
            row = rel.lookup(txn, 1)
            rel.update(txn, row.address, {"v": row["v"] + 1})

    db.register_script("bump", bump, relations=["hot"])
    db.recovery_processor.run_until_drained()
    # checkpoint the partition once, manually
    target = addr.partition_address
    bin_ = db.slt.bin_for_partition(target)
    db.slt.mark_for_checkpoint(bin_.bin_index, "manual")
    db.checkpoint_queue.submit(target, bin_.bin_index, "manual")
    assert db.checkpoints.process_pending() == 1
    db.recovery_processor.acknowledge_finished()
    # accumulate updates beyond the checkpoint
    done = 0
    while done < updates_since_checkpoint:
        batch = min(UPDATES_PER_TXN, updates_since_checkpoint - done)
        db.run_script("bump", batch, pump=False)
        done += batch
        db.recovery_processor.run_until_drained()
    db.crash()
    # Restart covers command replay (a no-op under value logging); the
    # explicit partition recovery is itself a no-op when replay already
    # installed the hot partition.
    start = db.clock.now
    db.restart()
    stats = db.restart_coordinator.recover_partition(target) or {
        "pages_read": 0,
        "backward_reads": 0,
        "records_applied": 0,
    }
    seconds = db.clock.now - start
    replay = db.last_command_replay
    result = {
        "updates": updates_since_checkpoint,
        "pages_read": stats["pages_read"] + stats["backward_reads"],
        "records_applied": stats["records_applied"],
        "commands_replayed": 0 if replay is None else replay["commands_replayed"],
        "recovery_ms": seconds * 1000,
    }
    return result


def bench_recovery_vs_log_accumulation(benchmark, report, logging_mode):
    results = benchmark.pedantic(
        lambda: [measure(n, logging_mode) for n in UPDATE_COUNTS],
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{'updates since ckpt':>19} {'log pages read':>15} "
        f"{'records applied':>16} {'cmds replayed':>14} {'recovery time':>14}"
    ]
    for r in results:
        lines.append(
            f"{r['updates']:>19} {r['pages_read']:>15} "
            f"{r['records_applied']:>16} {r['commands_replayed']:>14} "
            f"{r['recovery_ms']:>11.2f} ms"
        )
    report(
        "S34 supplement — partition recovery time vs accumulated log "
        f"({logging_mode} logging)",
        lines,
    )
    times = [r["recovery_ms"] for r in results]
    # recovery cost grows with the un-checkpointed log, in every mode
    assert times == sorted(times)
    assert times[-1] > times[0]
    if logging_mode == "value":
        pages = [r["pages_read"] for r in results]
        assert pages == sorted(pages)
        assert results[0]["records_applied"] == 0  # clean checkpoint floor
        assert results[-1]["records_applied"] >= UPDATE_COUNTS[-1]
        assert all(r["commands_replayed"] == 0 for r in results)
        # the floor is a pure image read; the ceiling is dominated by log I/O
        assert times[-1] > 3 * times[0]
    else:
        # accumulation is a command suffix: re-execution, not REDO
        replays = [r["commands_replayed"] for r in results]
        assert replays == sorted(replays)
        assert replays[0] == 0
        assert replays[-1] >= UPDATE_COUNTS[-1] // UPDATES_PER_TXN
        assert all(r["records_applied"] == 0 for r in results)
