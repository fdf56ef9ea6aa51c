"""Tests for partition rebuild internals: directory walks, page order,
pending SLT records, and the recovery processor's cost accounting."""

import pytest

from repro import Database, SystemConfig
from repro.analysis import LoggingModel
from repro.common import EntityAddress, PartitionAddress, RecoveryError
from repro.common.config import DiskParameters
from repro.recovery.redo import enumerate_log_pages, rebuild_partition_resilient
from repro.sim import DuplexedDisk, SimulatedDisk, StableMemory, VirtualClock
from repro.wal import LogDisk, StableLogTail, TupleInsert
from tests import refuse_records

PADDR = PartitionAddress(1, 1)


def harness(directory_size=3, page_size=256):
    config = SystemConfig(
        log_page_size=page_size,
        log_directory_size=directory_size,
        log_window_pages=4096,
        log_window_grace_pages=64,
    )
    slt = StableLogTail(StableMemory("slt", 4 * 1024 * 1024), config)
    clock = VirtualClock()
    params = DiskParameters()
    log_disk = LogDisk(
        DuplexedDisk(
            SimulatedDisk("a", params, clock), SimulatedDisk("b", params, clock)
        ),
        window_pages=4096,
        grace_pages=64,
    )
    return config, slt, log_disk


def pump_pages(slt, log_disk, bin_index, pages, record_size=60):
    offset = 1
    for _ in range(pages):
        while True:
            record = TupleInsert(
                1, bin_index, EntityAddress(1, 1, offset), b"x" * record_size
            ).encode()
            offset += 1
            if slt.deposit(record):
                break
        page = slt.seal_page(bin_index)
        lsn = log_disk.append_page(page)
        slt.note_page_written(bin_index, lsn)
    return offset


class TestEnumerateLogPages:
    def test_empty_bin(self):
        _, slt, log_disk = harness()
        idx = slt.register_partition(PADDR)
        lsns, cache, backward = enumerate_log_pages(slt.bin(idx), log_disk)
        assert lsns == []
        assert backward == 0

    @pytest.mark.parametrize("pages", [1, 3, 4, 7, 10, 13])
    def test_all_pages_enumerated_in_write_order(self, pages):
        _, slt, log_disk = harness(directory_size=3)
        idx = slt.register_partition(PADDR)
        pump_pages(slt, log_disk, idx, pages)
        lsns, cache, backward = enumerate_log_pages(slt.bin(idx), log_disk)
        assert lsns == list(range(pages))

    @pytest.mark.parametrize(
        "pages,expected_backward",
        [(3, 0), (4, 1), (7, 2), (10, 3), (13, 4)],
    )
    def test_backward_reads_are_pages_over_n(self, pages, expected_backward):
        """Section 2.5.1: reaching the first page costs ~#pages/N reads."""
        _, slt, log_disk = harness(directory_size=3)
        idx = slt.register_partition(PADDR)
        pump_pages(slt, log_disk, idx, pages)
        _, _, backward = enumerate_log_pages(slt.bin(idx), log_disk)
        assert backward == expected_backward

    def test_directory_large_enough_means_zero_backward_reads(self):
        _, slt, log_disk = harness(directory_size=16)
        idx = slt.register_partition(PADDR)
        pump_pages(slt, log_disk, idx, 10)
        _, _, backward = enumerate_log_pages(slt.bin(idx), log_disk)
        assert backward == 0


class TestRebuildPartition:
    def test_rebuild_without_checkpoint(self):
        config, slt, log_disk = harness()
        idx = slt.register_partition(PADDR)
        inserted = pump_pages(slt, log_disk, idx, 5) - 1

        from repro.checkpoint.disk_queue import CheckpointDiskQueue

        queue = CheckpointDiskQueue(
            SimulatedDisk("c", DiskParameters(), VirtualClock()), 16
        )
        partition, stats = rebuild_partition_resilient(
            PADDR, None, queue, log_disk, slt, config.partition_size
        )
        assert len(partition) == inserted
        assert stats["records_applied"] == inserted
        assert partition.bin_index == idx

    def test_rebuild_applies_pending_buffer_after_pages(self):
        config, slt, log_disk = harness()
        idx = slt.register_partition(PADDR)
        offset = pump_pages(slt, log_disk, idx, 2)
        # two more records stay in the stable buffer (no page flush)
        for _ in range(2):
            slt.deposit(
                TupleInsert(2, idx, EntityAddress(1, 1, offset), b"pending").encode()
            )
            offset += 1

        from repro.checkpoint.disk_queue import CheckpointDiskQueue

        queue = CheckpointDiskQueue(
            SimulatedDisk("c", DiskParameters(), VirtualClock()), 16
        )
        partition, stats = rebuild_partition_resilient(
            PADDR, None, queue, log_disk, slt, config.partition_size
        )
        assert partition.read(offset - 1) == b"pending"
        assert partition.read(offset - 2) == b"pending"

    def test_rebuild_unknown_partition_raises(self):
        config, slt, log_disk = harness()
        from repro.checkpoint.disk_queue import CheckpointDiskQueue

        queue = CheckpointDiskQueue(
            SimulatedDisk("c", DiskParameters(), VirtualClock()), 16
        )
        with pytest.raises(RecoveryError):
            rebuild_partition_resilient(
                PartitionAddress(9, 9), None, queue, log_disk, slt,
                config.partition_size,
            )


class TestRecoveryProcessorAccounting:
    def test_instruction_stream_tracks_model(self):
        """The simulated per-record sorting cost approximates the analytic
        I_record_sort (the model amortises page writes; the simulation
        pays them discretely, so allow a modest band)."""
        db = Database(SystemConfig(log_page_size=8 * 1024))
        rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
        db.recovery_cpu.reset()
        with db.transaction(pump=False) as txn:
            for i in range(500):
                rel.insert(txn, {"id": i, "v": i})
        db.recovery_processor.run_until_drained()
        sorted_records = db.recovery_processor.records_sorted
        assert sorted_records > 0
        measured = db.recovery_cpu.total_instructions / sorted_records
        # records here are bigger than Table 2's 24B average; compare
        # against the model evaluated at the observed average size
        avg_size = db.slb.bytes_written / max(1, db.slb.records_written)
        model = LoggingModel(log_record_size=int(avg_size))
        expected = model.instructions_per_record
        assert measured == pytest.approx(expected, rel=0.35)

    def test_categories_populated(self):
        db = Database()
        rel = db.create_relation("t", [("id", "int")], primary_key="id")
        with db.transaction() as txn:
            rel.insert(txn, {"id": 1})
        breakdown = db.recovery_cpu.category_breakdown()
        assert "record-lookup" in breakdown
        assert "record-copy" in breakdown


class TestRestartBuildsNoRecord:
    """Restart applies every page from its bytes, the bins' page buffers
    included: a value-logged restart builds no record at all."""

    @staticmethod
    def crashed_db():
        from repro.recovery.oracle import logical_digest

        db = Database(
            SystemConfig(
                log_page_size=512,
                update_count_threshold=100_000,
                log_window_pages=4096,
                log_window_grace_pages=64,
            )
        )
        rel = db.create_relation(
            "t", [("id", "int"), ("v", "int"), ("s", "str")], primary_key="id"
        )
        with db.transaction() as txn:
            rows = {i: rel.insert(txn, {"id": i, "v": 0, "s": f"s{i}"}) for i in range(40)}
        for round_ in range(1, 4):
            with db.transaction() as txn:
                for i, address in rows.items():
                    rel.update(txn, address, {"v": round_ * i, "s": f"round-{round_}-{i}"})
        with db.transaction() as txn:
            for i in range(0, 40, 4):
                rel.delete(txn, rows[i])
        assert sum(bin_.flushed_pages for bin_ in db.slt.bins()) >= 3
        assert any(bin_.buffer for bin_ in db.slt.bins())
        digest = logical_digest(db)
        db.crash()
        return db, digest

    def test_eager_restart_with_the_decoder_disabled(self, monkeypatch):
        """Restart reads the log as bytes: it constructs no record object
        at all, and replays what a twin restart replays."""
        from repro import RecoveryMode
        from repro.recovery.oracle import logical_digest

        twin, digest = self.crashed_db()
        expected = twin.restart(RecoveryMode.EAGER)
        assert logical_digest(twin) == digest

        db, _ = self.crashed_db()
        refuse_records(monkeypatch)
        coordinator = db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == digest
        assert coordinator.records_replayed == expected.records_replayed > 0
        assert coordinator.pages_read == expected.pages_read > 0

    def test_eager_restart_with_records_binned_applies_no_record(
        self, monkeypatch
    ):
        """The bins still hold records at the crash; restart replays them
        from the bytes as it does a flushed page, so no record is built
        and no ``RedoRecord.apply`` runs."""
        from repro import RecoveryMode
        from repro.recovery.oracle import logical_digest
        from repro.wal.records import RedoRecord

        def refuse(*args):
            raise AssertionError("restart applied a record object")

        db, digest = self.crashed_db()
        assert any(bin_.buffer for bin_ in db.slt.bins())
        with monkeypatch.context() as patched:
            refuse_records(patched)
            patched.setattr(RedoRecord, "apply", refuse)
            coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.records_replayed > 0
        assert logical_digest(db) == digest
