"""Statement-level atomicity: a failed operation leaves no trace —
neither in memory nor in the stable REDO chain — while its transaction
stays usable."""

import pytest

from repro import Database, SystemConfig, UniqueViolation
from repro.common import PartitionFullError


def tiny_partition_db():
    """Partitions sized so tuples fit but the heap is tight: a large
    string insert fails *after* smaller steps would have succeeded."""
    config = SystemConfig(partition_size=2048, log_page_size=1024)
    db = Database(config)
    rel = db.create_relation(
        "t", [("id", "int"), ("pad", "str")], primary_key="id"
    )
    return db, rel


class TestStatementScope:
    def test_statement_rollback_reverses_mutations(self):
        db, rel = tiny_partition_db()
        txn = db.transactions.begin()
        addr = rel.insert(txn, {"id": 1, "pad": "keep"})
        undo_before = txn.undo_record_count
        redo_before = txn.redo_records
        with pytest.raises(RuntimeError):
            with txn.statement():
                rel.update(txn, addr, {"pad": "discard"})
                raise RuntimeError("application failure mid-statement")
        # memory and both log chains back at the mark
        assert txn.undo_record_count == undo_before
        assert txn.redo_records == redo_before
        row = rel.read(txn, addr)
        assert row["pad"] == "keep"
        txn.commit()

    def test_statement_rollback_truncates_stable_chain(self):
        db, rel = tiny_partition_db()
        txn = db.transactions.begin()
        rel.insert(txn, {"id": 1, "pad": "a"})
        records_before = db.slb.records_written
        with pytest.raises(RuntimeError):
            with txn.statement():
                rel.insert(txn, {"id": 2, "pad": "b"})
                raise RuntimeError("boom")
        assert db.slb.records_written == records_before
        txn.commit()
        # the rolled-back insert must not replay after a crash
        db.crash()
        db.restart()
        with db.transaction() as txn2:
            t = db.table("t")
            assert t.lookup(txn2, 1) is not None
            assert t.lookup(txn2, 2) is None

    def test_statement_rollback_takes_records_and_bytes_back_out(self, monkeypatch):
        """The stable-buffer counters follow the chain: records a failed
        statement appended (heap string, tuple, primary-key node) leave
        ``records_written`` *and* ``bytes_written`` again."""
        db, rel = tiny_partition_db()
        db.create_index("t_by_pad", "t", "pad")
        txn = db.transactions.begin()
        rel.insert(txn, {"id": 1, "pad": "keep"})
        secondary = db.index_object(db.catalog.index("t_by_pad"), txn)

        def refuse(key, address):
            raise RuntimeError("second index insert fails")

        monkeypatch.setattr(secondary, "insert", refuse)
        records_before = db.slb.records_written
        bytes_before = db.slb.bytes_written
        redo_before = txn.redo_records
        with pytest.raises(RuntimeError, match="second index"):
            rel.insert(txn, {"id": 2, "pad": "discard"})
        assert txn.redo_records == redo_before
        assert db.slb.records_written == records_before
        assert db.slb.bytes_written == bytes_before
        txn.commit()

    def test_nested_use_after_abort_is_guarded(self):
        db, rel = tiny_partition_db()
        txn = db.transactions.begin()
        txn.abort()
        with pytest.raises(Exception):
            with txn.statement():
                pass


class TestFailedOperations:
    def test_failed_insert_leaves_no_partial_state(self):
        """An insert whose string heap overflows mid-way must not leak the
        strings it already wrote — in memory or through recovery."""
        db, rel = tiny_partition_db()
        with db.transaction() as txn:
            rel.insert(txn, {"id": 1, "pad": "x" * 50})
        heap_used_before = {
            p.address: p.heap.used_bytes
            for p in db.memory.segment(
                db.catalog.relation("t").segment_id
            ).resident_partitions()
        }
        # a pad far larger than the heap of any (fresh) partition
        with pytest.raises(PartitionFullError):
            with db.transaction() as txn:
                rel.insert(txn, {"id": 2, "pad": "y" * 5000})
        segment = db.memory.segment(db.catalog.relation("t").segment_id)
        for partition in segment.resident_partitions():
            if partition.address in heap_used_before:
                assert partition.heap.used_bytes == heap_used_before[partition.address]
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("t")
            assert t.count(txn) == 1
            assert t.lookup(txn, 2) is None

    def test_failed_update_keeps_old_value_in_same_txn(self):
        db, rel = tiny_partition_db()
        txn = db.transactions.begin()
        addr = rel.insert(txn, {"id": 1, "pad": "original"})
        with pytest.raises(PartitionFullError):
            rel.update(txn, addr, {"pad": "z" * 5000})
        # the failed statement rolled back; the transaction continues
        assert rel.read(txn, addr)["pad"] == "original"
        rel.update(txn, addr, {"pad": "second"})
        txn.commit()
        with db.transaction() as txn2:
            assert db.table("t").lookup(txn2, 1)["pad"] == "second"

    def test_unique_violation_leaves_transaction_clean(self):
        db, rel = tiny_partition_db()
        txn = db.transactions.begin()
        rel.insert(txn, {"id": 1, "pad": "a"})
        undo_before = txn.undo_record_count
        with pytest.raises(UniqueViolation):
            rel.insert(txn, {"id": 1, "pad": "dup"})
        assert txn.undo_record_count == undo_before
        txn.commit()
        with db.transaction() as txn2:
            assert db.table("t").count(txn2) == 1

    def test_failed_statement_then_crash_consistency(self):
        """Commit after a failed statement, crash, recover: the database
        equals exactly the successful statements."""
        db, rel = tiny_partition_db()
        txn = db.transactions.begin()
        rel.insert(txn, {"id": 1, "pad": "one"})
        with pytest.raises(PartitionFullError):
            rel.insert(txn, {"id": 2, "pad": "w" * 5000})
        rel.insert(txn, {"id": 3, "pad": "three"})
        txn.commit()
        db.crash()
        db.restart()
        with db.transaction() as txn2:
            t = db.table("t")
            rows = {r["id"]: r["pad"] for r in t.scan(txn2)}
        assert rows == {1: "one", 3: "three"}

    def test_index_state_clean_after_failed_insert(self):
        db, rel = tiny_partition_db()
        with pytest.raises(PartitionFullError):
            with db.transaction() as txn:
                rel.insert(txn, {"id": 7, "pad": "q" * 5000})
        for descriptor in db.catalog.indexes():
            index = db.index_object(descriptor, None)
            index.verify_invariants()
            assert index.search(7) == []


