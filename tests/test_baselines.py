"""Tests for the baseline designs the paper compares against (section 1):
the whole-database checkpoint (``CheckpointManager.checkpoint_all``),
database-level restart (``RecoveryMode.EAGER``) and the commit-protocol
model."""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.analysis import CommitProtocolModel
from repro.db.integrity import verify_integrity
from repro.recovery import restore_after_checkpoint_media_failure
from repro.recovery.oracle import logical_digest
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
from repro.sim.faults import SimulatedCrash


def loaded_db():
    db = Database(SystemConfig(log_page_size=1024))
    rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
    addrs = {}
    with db.transaction() as txn:
        for i in range(50):
            addrs[i] = rel.insert(txn, {"id": i, "v": i})
    return db, rel, addrs


def checkpoint_all(db) -> tuple[int, float]:
    """One whole-database checkpoint: (partitions copied, simulated seconds)."""
    start = db.clock.now
    copied = db.checkpoints.checkpoint_all()
    return copied, db.clock.now - start


class TestWholeDatabaseCheckpointer:
    def test_sweep_writes_every_partition(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        taken = db.checkpoints.checkpoints_taken
        copied, seconds = checkpoint_all(db)
        assert seconds > 0
        assert copied == db.memory.resident_partition_count()
        assert db.checkpoints.checkpoints_taken == taken + 1

    def test_sweep_resets_all_bins(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        db.checkpoints.checkpoint_all()
        assert db.slt.active_bins() == []

    def test_recovery_after_sweep(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        db.checkpoints.checkpoint_all()
        with db.transaction() as txn:
            rel.update(txn, addrs[3], {"v": 999})
        db.crash()
        db.restart(RecoveryMode.EAGER)
        with db.transaction() as txn:
            t = db.table("items")
            assert t.lookup(txn, 3)["v"] == 999
            assert t.lookup(txn, 10)["v"] == 10

    def test_sweep_cost_exceeds_single_partition_checkpoint(self):
        """The design point: whole-DB checkpoints pay for everything every
        time, per-partition checkpoints pay for one partition."""
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        copied, sweep_seconds = checkpoint_all(db)
        per_partition_seconds = sweep_seconds / copied
        assert sweep_seconds > 2 * per_partition_seconds


class TestWholeDatabaseCheckpointIsOneCheckpoint:
    """The whole-database checkpoint is the per-partition procedure over
    every partition at once, so it keeps that procedure's guarantees."""

    def test_crash_before_commit_keeps_every_superseded_image(self):
        db, rel, addrs = loaded_db()
        db.checkpoints.checkpoint_all()
        with db.transaction() as txn:
            rel.update(txn, addrs[3], {"v": 999})
        digest = logical_digest(db)
        plan = ChaosPlan.crash_at(0, "checkpoint.image.after-write", after_visits=2)
        with chaos(ChaosEngine(plan)):
            with pytest.raises(SimulatedCrash):
                db.checkpoints.checkpoint_all()
        db.crash()
        coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.sources["history"] == 0
        assert logical_digest(db) == digest

    def test_bin_leftovers_survive_a_lost_checkpoint_disk(self):
        """What the bins still buffer at the checkpoint is archived, not
        dropped: the log history stays complete for archive recovery.
        (The restore re-images everything, so rows are compared rather
        than the slot-bearing digest.)"""
        db, rel, addrs = loaded_db()
        with db.transaction() as txn:
            for i in range(10):
                rel.update(txn, addrs[i], {"v": -i})
        assert any(bin_.buffer for bin_ in db.slt.bins())
        db.checkpoints.checkpoint_all()
        expected = [(i, -i if i < 10 else i) for i in range(50)]
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            table = db.table("items")
            assert [(row["id"], row["v"]) for row in table.scan(txn)] == expected
            assert [table.lookup(txn, i)["v"] for i, _ in expected] == [
                v for _, v in expected
            ]

    def test_live_commands_are_settled_not_replayed(self):
        db = Database(SystemConfig(log_page_size=1024))
        accounts = db.create_relation(
            "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
        )
        with db.transaction() as txn:
            for i in range(10):
                accounts.insert(txn, {"id": i, "balance": 100})

        def deposit(txn, aid, amount):
            row = accounts.lookup(txn, aid)
            accounts.update(txn, row.address, {"balance": row["balance"] + amount})

        db.register_script("deposit", deposit, relations=["accounts"])
        for aid in range(2, 10):
            db.run_script("deposit", aid, 5, logging="command")
        db.checkpoints.checkpoint_all()
        assert not db.slb.live_commands()
        digest = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == digest


class TestFullReloadRestart:
    """Database-level recovery is an eager restart: every partition before
    the first transaction (section 3.4.1)."""

    def test_reports_timing_and_restores(self):
        db, rel, addrs = loaded_db()
        db.crash()
        start = db.clock.now
        coordinator = db.restart(RecoveryMode.EAGER)
        assert db.clock.now > start
        assert coordinator.partitions_recovered > 0
        assert coordinator.fully_recovered
        with db.transaction() as txn:
            assert db.table("items").count(txn) == 50

    @staticmethod
    def _db_with_cold_bulk():
        db, rel, addrs = loaded_db()
        bulk = db.create_relation(
            "bulk", [("id", "int"), ("pad", "str")], primary_key="id"
        )
        with db.transaction() as txn:
            for i in range(400):
                bulk.insert(txn, {"id": i, "pad": "z" * 200})
        return db

    def test_full_reload_slower_to_first_txn_than_on_demand(self):
        # measure full reload (everything, including the cold bulk data)
        db1 = self._db_with_cold_bulk()
        db1.crash()
        start = db1.clock.now
        db1.restart(RecoveryMode.EAGER)
        full = db1.clock.now - start
        # measure on-demand first-transaction latency on identical state
        db2 = self._db_with_cold_bulk()
        db2.crash()
        start = db2.clock.now
        db2.restart(RecoveryMode.ON_DEMAND)
        with db2.transaction(pump=False) as txn:
            assert db2.table("items").lookup(txn, 1) is not None
        on_demand = db2.clock.now - start
        assert on_demand < full


class TestCommitProtocolModel:
    def test_stable_ram_commit_is_fastest(self):
        model = CommitProtocolModel()
        assert model.stable_ram_commit_latency() < model.sync_wal_commit_latency()
        assert model.stable_ram_commit_rate() > model.group_commit_rate()

    def test_group_commit_beats_sync_wal_throughput(self):
        model = CommitProtocolModel()
        assert model.group_commit_rate() > model.sync_wal_commit_rate()

    def test_group_commit_latency_penalty_at_low_rates(self):
        model = CommitProtocolModel()
        slow_arrivals = model.group_commit_latency(arrival_rate=10)
        fast_arrivals = model.group_commit_latency(arrival_rate=10_000)
        assert slow_arrivals > fast_arrivals
        assert slow_arrivals > model.sync_wal_commit_latency()

    def test_group_size_from_page_fill(self):
        model = CommitProtocolModel(log_page_size=8192, log_record_size=24,
                                    records_per_transaction=4)
        assert model.group_size() == 8192 // 96

    def test_comparison_rows(self):
        rows = CommitProtocolModel().comparison()
        protocols = [row["protocol"] for row in rows]
        assert protocols == ["stable-ram-instant", "group-commit", "sync-wal"]
        latencies = [row["commit_latency_s"] for row in rows]
        assert latencies[0] < latencies[2]

    def test_invalid_arrival_rate(self):
        with pytest.raises(ValueError):
            CommitProtocolModel().group_commit_latency(0)
