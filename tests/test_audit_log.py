"""Tests for the audit trail log (section 2.3.2)."""

import pytest

from repro import Database, SystemConfig
from repro.common import LogError
from repro.common.config import DiskParameters
from repro.sim import DuplexedDisk, SimulatedDisk, StableMemory, VirtualClock
from repro.wal.audit import AuditEntry, AuditLog
from repro.wal.log_disk import LogDisk


def make_audit(page_size=256):
    clock = VirtualClock()
    params = DiskParameters()
    log_disk = LogDisk(
        DuplexedDisk(
            SimulatedDisk("a", params, clock), SimulatedDisk("b", params, clock)
        ),
        window_pages=1024,
        grace_pages=16,
    )
    stable = StableMemory("slb", 1024 * 1024)
    return AuditLog(stable, log_disk, page_size), stable, log_disk


class TestAuditEntry:
    def test_roundtrip(self):
        entry = AuditEntry(7, "begin", 1.25, "teller-3")
        decoded, consumed = AuditEntry.decode(entry.encode(), 0)
        assert decoded == entry
        assert consumed == entry.size_bytes

    def test_serialised_once(self):
        entry = AuditEntry(7, "begin", 1.25, "teller-3")
        assert entry.encode() is entry.encode()
        assert entry.size_bytes == len(entry.encode())
        assert entry == AuditEntry(7, "begin", 1.25, "teller-3")  # bytes are not a field

    def test_sequence_decode(self):
        entries = [AuditEntry(i, "commit", float(i)) for i in range(5)]
        blob = b"".join(e.encode() for e in entries)
        pos, out = 0, []
        while pos < len(blob):
            entry, pos = AuditEntry.decode(blob, pos)
            out.append(entry)
        assert out == entries


class TestAuditLog:
    def test_record_buffers_then_flushes(self):
        audit, _, log_disk = make_audit(page_size=256)
        for i in range(2):
            audit.record(i, "begin", float(i))
        assert audit.pages_flushed == 0
        assert len(audit.pending_entries()) == 2
        # fill past a page
        for i in range(10):
            audit.record(i, "commit", float(i), user_data="x" * 20)
        assert audit.pages_flushed >= 1

    def test_trail_spans_pages_and_buffer(self):
        audit, _, _ = make_audit(page_size=128)
        for i in range(20):
            audit.record(i, "begin", float(i))
        trail = audit.trail()
        assert [e.txn_id for e in trail] == list(range(20))
        assert audit.pages_flushed >= 1
        assert audit.entries_written == 20

    def test_entries_for_transaction(self):
        audit, _, _ = make_audit()
        audit.record(1, "begin", 0.0)
        audit.record(2, "begin", 0.1)
        audit.record(1, "commit", 0.2)
        events = [e.event for e in audit.entries_for(1)]
        assert events == ["begin", "commit"]

    def test_flush_empty_buffer_noop(self):
        audit, _, log_disk = make_audit()
        assert audit.flush() is None
        assert log_disk.pages_written == 0

    def test_read_wrong_page_type_rejected(self):
        audit, _, log_disk = make_audit()
        from repro.common import EntityAddress, PartitionAddress
        from repro.wal import LogPage, TupleInsert

        lsn = log_disk.append_page(
            LogPage(
                PartitionAddress(1, 1),
                [TupleInsert(1, 0, EntityAddress(1, 1, 1), b"x")],
            )
        )
        with pytest.raises(LogError):
            audit.read_page(lsn)

    def test_buffer_is_stable_across_crash(self):
        """Audit entries survive a crash even before any flush."""
        db = Database(SystemConfig())
        rel = db.create_relation("t", [("id", "int")], primary_key="id")
        with db.transaction() as txn:
            rel.insert(txn, {"id": 1})
        entries_before = db.audit.entries_written
        db.crash()
        db.restart()
        assert db.audit.entries_written == entries_before
        trail = db.audit.trail()
        assert any(e.event == "commit" for e in trail)


class TestDatabaseAuditIntegration:
    def test_begin_commit_audited(self):
        db = Database()
        rel = db.create_relation("t", [("id", "int")], primary_key="id")
        with db.transaction() as txn:
            rel.insert(txn, {"id": 1})
            txn_id = txn.txn_id
        events = [e.event for e in db.audit.entries_for(txn_id)]
        assert events == ["begin", "commit"]

    def test_abort_audited(self):
        db = Database()
        txn = db.transactions.begin()
        txn_id = txn.txn_id
        txn.abort()
        events = [e.event for e in db.audit.entries_for(txn_id)]
        assert events == ["begin", "abort"]

    def test_user_data_recorded(self):
        db = Database()
        txn = db.transactions.begin(user_data="terminal-7: transfer $10")
        txn.commit()
        entries = db.audit.entries_for(txn.txn_id)
        assert entries[0].user_data == "terminal-7: transfer $10"

    def test_timestamps_monotone(self):
        db = Database()
        rel = db.create_relation("t", [("id", "int")], primary_key="id")
        for i in range(3):
            with db.transaction() as txn:
                rel.insert(txn, {"id": i})
        stamps = [e.timestamp for e in db.audit.trail()]
        assert stamps == sorted(stamps)
