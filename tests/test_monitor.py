"""Tests for the one status snapshot, ``Database.stats()``, and the
status page that renders it."""
import re
from pathlib import Path

import pytest

from repro import Database, SystemConfig
from repro.db.monitor import status_page

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def documented_keys() -> set[str]:
    """Every key of docs/API.md's ``stats()`` key table."""
    text = API_DOC.read_text(encoding="utf-8")
    table = text.split("**`stats()` keys.**", 1)[1].split("\n\n", 2)[1]
    keys = set()
    for row in table.splitlines()[2:]:
        keys.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    return keys


def loaded_db():
    db = Database(SystemConfig(log_page_size=1024, update_count_threshold=50))
    rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
    with db.transaction() as txn:
        for i in range(25):
            rel.insert(txn, {"id": i, "v": i})
    return db, rel


class TestSnapshot:
    def test_sections_present(self):
        db, _ = loaded_db()
        snap = db.stats()
        for key in (
            "clock_seconds",
            "transactions_committed",
            "slb_used_bytes",
            "logging",
            "checkpoints_taken",
            "recovery_cpu_instructions",
            "residency",
            "audit_entries",
        ):
            assert key in snap

    def test_transaction_counts(self):
        db, rel = loaded_db()
        txn = db.transactions.begin()
        snap = db.stats()
        assert snap["transactions_active"] == 1
        assert snap["transactions_committed"] >= 2
        txn.abort()
        assert db.stats()["transactions_aborted"] == 1

    def test_residency_per_object(self):
        db, _ = loaded_db()
        objects = db.stats()["residency"]
        assert "items" in objects
        assert "items__pk" in objects
        assert objects["items"]["missing"] == 0
        assert objects["items"]["resident"] >= 1

    def test_residency_after_crash_restart(self):
        db, _ = loaded_db()
        db.crash()
        snap = db.stats()
        assert snap["resident_partitions"] == 0
        db.restart()
        snap = db.stats()
        assert snap["residency"]["items"]["missing"] >= 0

    def test_logging_counters_consistent(self):
        db, _ = loaded_db()
        snap = db.stats()
        assert snap["slt_records_binned"] <= snap["slb_records_written"]
        assert snap["log_window"]["start"] <= snap["log_window"]["next_lsn"]

    def test_cpu_breakdown_has_sorting_categories(self):
        db, _ = loaded_db()
        breakdown = db.stats()["recovery_breakdown"]
        assert "record-lookup" in breakdown
        assert breakdown["record-lookup"] > 0


class TestReport:
    def test_report_renders_all_sections(self):
        db, _ = loaded_db()
        report = status_page(db.stats())
        for needle in (
            "system status",
            "stable memory",
            "logging",
            "checkpoints",
            "processors",
            "residency",
            "audit trail",
            "items",
        ):
            assert needle in report

    def test_report_on_fresh_database(self):
        db = Database()
        report = status_page(db.stats())
        assert "0 committed" in report

    def test_report_while_crashed(self):
        db, _ = loaded_db()
        db.crash()
        report = status_page(db.stats())  # must not raise
        assert "partitions        0 resident" in report


class TestOneCountPerEnding:
    def test_counts_survive_crash_and_restart(self):
        """A commit and an abort are counted once, by the SLB transition
        that makes them stable — so neither count resets at restart."""
        db, _ = loaded_db()
        db.transactions.begin().abort()
        before = db.stats()
        assert before["transactions_committed"] == sum(
            before["logging"]["mode_commits"].values()
        )
        assert before["transactions_aborted"] == 1
        db.crash()
        db.restart()
        after = db.stats()
        assert after["transactions_committed"] == before["transactions_committed"]
        assert after["transactions_committed"] == sum(
            after["logging"]["mode_commits"].values()
        )
        assert after["transactions_aborted"] == before["transactions_aborted"]
        assert (
            f"transactions        {before['transactions_committed']} committed / 1 aborted"
            in status_page(after)
        )

    def test_restart_section_lifetime(self):
        db, _ = loaded_db()
        assert db.stats()["restart"] is None
        db.crash()
        db.restart()
        restart = db.stats()["restart"]
        assert restart["sources"]["history"] == 0
        assert restart["pending_partitions"] > 0
        assert restart["history_scan"] is None
        db.crash()
        assert db.stats()["restart"] is None


class TestConsistentView:
    """The key set is docs/API.md's table, whether the system is fresh,
    up, crashed, mid-restart, or restoring under the threaded engine's
    concurrent phase-2 installs."""

    def test_snapshot_keys_stable_mid_restart(self):
        from repro import RecoveryMode

        expected = documented_keys()
        fresh = Database()
        assert set(fresh.stats()) == expected
        fresh.close()
        db, _ = loaded_db()
        up = db.stats()
        db.crash()
        crashed = db.stats()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        mid = []
        for address in coordinator.drain_queue():
            coordinator.recover_partition(address)
            mid.append(db.stats())
        assert set(up) == set(crashed) == expected
        assert all(set(snap) == expected for snap in mid)
        # Residency only grows as partitions come back.
        counts = [snap["resident_partitions"] for snap in mid]
        assert counts == sorted(counts)
        assert status_page(db.stats())  # renders at full residency too

    def test_snapshot_not_torn_by_parallel_restore(self):
        import threading

        from repro import RecoveryMode
        from repro.engine import ThreadedEngine

        expected = documented_keys()
        db = Database(SystemConfig(log_page_size=1024, update_count_threshold=50),
                      engine=ThreadedEngine(workers=4))
        rel = db.create_relation(
            "items", [("id", "int"), ("v", "int")], primary_key="id"
        )
        with db.transaction() as txn:
            for i in range(400):
                rel.insert(txn, {"id": i, "v": i})
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = coordinator.drain_queue()
        total = len(addresses)
        snaps = []

        def observe():
            while not coordinator.fully_recovered:
                snaps.append(db.stats())

        watcher = threading.Thread(target=observe, name="stats-watcher")
        watcher.start()
        db.engine.restore_partitions(addresses)
        watcher.join(timeout=30.0)
        assert not watcher.is_alive()
        assert snaps, "watcher never sampled"
        for snap in snaps:
            assert set(snap) == expected
            assert snap["engine"] == "threaded"
            assert 0 <= snap["resident_partitions"] <= total + 2
            for info in snap["residency"].values():
                assert info["resident"] + info["missing"] == info["partitions"]
        db.close()


class TestLatchRule:
    @pytest.mark.no_lock_audit  # deliberately holds a latch across recovery
    def test_recovery_wait_rejected_while_latch_held(self):
        """Section 2.5: a transaction holding a latch must not wait on
        partition recovery."""
        from repro import RecoveryMode
        from repro.concurrency.latch import LatchViolationError

        db, _ = loaded_db()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        db.slb.block_latch.acquire(owner=99)
        try:
            with pytest.raises(LatchViolationError):
                with db.transaction(pump=False) as txn:
                    db.table("items").lookup(txn, 1)
        finally:
            db.slb.block_latch.release(owner=99)
        # without the latch the same access recovers normally
        with db.transaction(pump=False) as txn:
            assert db.table("items").lookup(txn, 1) is not None

    def test_overflow_bytes_reported(self):
        db, _ = loaded_db()
        snap = db.stats()
        assert "overflow_bytes" in snap
        assert snap["overflow_bytes"] >= 0
