"""Unit tests for the recovery processor's normal-operation duties."""

import pytest

from repro import Database, SystemConfig
from repro.wal.log_disk import ARCHIVE_SEGMENT
from repro.wal.records import split_by_owner


def small_db(**kwargs):
    defaults = dict(
        log_page_size=512,
        update_count_threshold=30,
        log_window_pages=256,
        log_window_grace_pages=16,
    )
    defaults.update(kwargs)
    db = Database(SystemConfig(**defaults))
    rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
    addrs = {}
    with db.transaction() as txn:
        for i in range(30):
            addrs[i] = rel.insert(txn, {"id": i, "v": 0})
    return db, rel, addrs


class TestSortingStep:
    def test_run_until_drained_empties_slb(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 1})
        db.recovery_processor.run_until_drained()
        assert db.slb.committed_record_count() == 0
        assert db.slb.committed_chain_count == 0

    def test_records_land_in_correct_bins(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(10):
                rel.update(txn, addrs[i], {"v": 2})
        db.recovery_processor.run_until_drained()
        seg = db.catalog.relation("t").segment_id
        data_bins = [b for b in db.slt.bins() if b.partition.segment == seg]
        assert sum(b.update_count for b in data_bins) >= 10


class TestArchiveOrderInvariant:
    def test_leftovers_flush_before_new_dedicated_page(self):
        """If a partition has leftover records in the archive buffer, they
        must reach the log disk before any newer dedicated page of that
        partition (full-history replay depends on LSN order)."""
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(10):
                rel.update(txn, addrs[i], {"v": 3})
        db.recovery_processor.run_until_drained()
        seg = db.catalog.relation("t").segment_id
        target = next(
            b for b in db.slt.bins() if b.partition.segment == seg and b.active
        )
        # checkpoint it: leftovers land in the archive buffer
        db.slt.mark_for_checkpoint(target.bin_index, "test")
        db.checkpoint_queue.submit(target.partition, target.bin_index, "test")
        assert db.checkpoints.process_pending() >= 1
        db.recovery_processor.acknowledge_finished()
        backlog = db.recovery_processor.pending_archive_records(target.partition)
        if not backlog:
            pytest.skip("no leftovers this configuration")
        # now write enough NEW records for that partition to flush a page
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 7})
        db.recovery_processor.run_until_drained()
        # scan the log: the mixed page holding the leftovers must precede
        # every dedicated page of the partition written after it
        archive_lsns = []
        dedicated_after_ckpt = []
        for lsn in db.log_disk.all_lsns():
            owner = db.log_disk.read_page(lsn).partition
            if owner.segment == ARCHIVE_SEGMENT:
                page = db.log_disk.read_page(lsn)
                if target.partition in split_by_owner(page.body):
                    archive_lsns.append(lsn)
            elif owner == target.partition:
                dedicated_after_ckpt.append(lsn)
        new_dedicated = [
            lsn for lsn in dedicated_after_ckpt
            if archive_lsns and lsn > min(archive_lsns)
        ]
        if archive_lsns and new_dedicated:
            assert max(archive_lsns) < min(new_dedicated) or all(
                a < min(new_dedicated) for a in archive_lsns
            )

    def test_full_archive_pages_emitted(self):
        db, rel, addrs = small_db()
        # many checkpoint cycles to accumulate > one page of leftovers
        for round_ in range(6):
            with db.transaction(pump=False) as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": round_})
            db.recovery_processor.run_until_drained()
            for bin_ in db.slt.active_bins():
                db.slt.mark_for_checkpoint(bin_.bin_index, "t")
                db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "t")
            db.checkpoints.process_pending()
            db.recovery_processor.acknowledge_finished()
        assert db.recovery_processor.archive_pages_written > 0


class TestCheckpointSignalling:
    def test_update_count_crossing_enqueues_request(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 1})
        before = db.recovery_processor.checkpoints_requested
        db.recovery_processor.run_until_drained()
        assert db.recovery_processor.checkpoints_requested > before
        assert len(db.checkpoint_queue.pending()) > 0

    def test_signal_cost_charged(self):
        db, rel, addrs = small_db()
        with db.transaction(pump=False) as txn:
            for i in range(30):
                rel.update(txn, addrs[i], {"v": 1})
        db.recovery_processor.run_until_drained()
        charged = db.recovery_cpu.instructions_in("checkpoint-signal")
        # Table 2: I_checkpoint = 40 instructions per signalled checkpoint
        assert charged == 40.0 * db.recovery_processor.checkpoints_requested
        assert db.recovery_processor.checkpoints_requested > 0


class TestAgeTriggerEndToEnd:
    def test_cold_partition_caught_by_window(self):
        db, rel, addrs = small_db(
            update_count_threshold=10_000,
            log_window_pages=20,
            log_window_grace_pages=10,
        )
        cold = db.create_relation("cold", [("id", "int"), ("v", "int")], primary_key="id")
        with db.transaction() as txn:
            cold_addr = cold.insert(txn, {"id": 1, "v": 0})
        with db.transaction() as txn:
            cold.update(txn, cold_addr, {"v": 1})
        # hammer the hot relation until the cold one's first page ages out
        for round_ in range(40):
            with db.transaction() as txn:
                for i in range(30):
                    rel.update(txn, addrs[i], {"v": round_})
        reasons = [
            bin_.checkpoint_reason
            for bin_ in db.slt.bins()
            if bin_.checkpoint_reason is not None
        ]
        taken = db.checkpoints.checkpoints_taken
        assert taken > 0 or "age" in reasons
