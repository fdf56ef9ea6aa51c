"""Tests for the whole-database integrity audit."""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common import EntityAddress
from repro.db.integrity import IntegrityError, assert_integrity, verify_integrity
from repro.workloads import MixedWorkload


def loaded_db():
    db = Database(SystemConfig(log_page_size=1024, update_count_threshold=60))
    rel = db.create_relation(
        "items", [("id", "int"), ("v", "int"), ("s", "str")], primary_key="id"
    )
    db.create_index("by_v", "items", "v", kind="ttree")
    addrs = {}
    with db.transaction() as txn:
        for i in range(40):
            addrs[i] = rel.insert(txn, {"id": i, "v": i % 7, "s": f"row {i}"})
    return db, rel, addrs


class TestCleanStates:
    def test_fresh_database_is_consistent(self):
        assert verify_integrity(Database()) == []

    def test_loaded_database_is_consistent(self):
        db, _, _ = loaded_db()
        assert verify_integrity(db) == []

    def test_after_dml_mix(self):
        db = Database(SystemConfig(log_page_size=1024))
        workload = MixedWorkload(db, initial_rows=60, seed=4)
        workload.load()
        workload.run(30)
        assert verify_integrity(db) == []

    def test_after_crash_and_eager_recovery(self):
        db, rel, addrs = loaded_db()
        with db.transaction() as txn:
            rel.update(txn, addrs[3], {"s": "changed"})
            rel.delete(txn, addrs[5])
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert verify_integrity(db) == []

    def test_after_media_restore(self):
        from repro.recovery import restore_after_checkpoint_media_failure

        db, rel, addrs = loaded_db()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        assert verify_integrity(db) == []

    def test_after_failed_statements(self):
        from repro.common import PartitionFullError

        db = Database(SystemConfig(partition_size=2048, log_page_size=1024))
        rel = db.create_relation("t", [("id", "int"), ("pad", "str")], primary_key="id")
        with db.transaction() as txn:
            rel.insert(txn, {"id": 1, "pad": "ok"})
        with pytest.raises(PartitionFullError):
            with db.transaction() as txn:
                rel.insert(txn, {"id": 2, "pad": "x" * 5000})
        assert verify_integrity(db) == []

    def test_assert_integrity_passes_clean(self):
        db, _, _ = loaded_db()
        assert_integrity(db)  # no raise


class TestDetectsCorruption:
    def test_detects_leaked_heap_string(self):
        db, rel, addrs = loaded_db()
        segment = db.memory.segment(db.catalog.relation("items").segment_id)
        partition = next(segment.resident_partitions())
        partition.heap.put(b"orphan")  # bypasses logging: a leak
        problems = verify_integrity(db)
        assert any("leaked heap string" in p for p in problems)

    def test_detects_dangling_index_entry(self):
        db, rel, addrs = loaded_db()
        descriptor = db.catalog.index("by_v")
        index = db.index_object(descriptor, None)
        index.insert(99, EntityAddress(999, 1, 1))  # bogus target
        problems = verify_integrity(db)
        assert any("points at no tuple" in p for p in problems)

    def test_detects_wrong_index_key(self):
        db, rel, addrs = loaded_db()
        descriptor = db.catalog.index("by_v")
        index = db.index_object(descriptor, None)
        # move a correct entry to a wrong key
        index.delete(3 % 7, addrs[3])
        index.insert(999, addrs[3])
        problems = verify_integrity(db)
        assert any("entry key" in p or "entries for" in p for p in problems)

    def test_detects_missing_bin(self):
        db, rel, addrs = loaded_db()
        segment = db.memory.segment(db.catalog.relation("items").segment_id)
        partition = next(segment.resident_partitions())
        db.slt.drop_partition(partition.address)
        problems = verify_integrity(db)
        assert any("no Stable Log Tail bin" in p for p in problems)

    def test_assert_integrity_raises_with_details(self):
        db, rel, addrs = loaded_db()
        segment = db.memory.segment(db.catalog.relation("items").segment_id)
        next(segment.resident_partitions()).heap.put(b"orphan")
        with pytest.raises(IntegrityError) as excinfo:
            assert_integrity(db)
        assert "leaked" in str(excinfo.value)


class TestDetectsMirrorDrift:
    """One case per clause of the mirror-equals-bytes check: corrupt the
    decoded copy by hand, expect the message."""

    def test_detects_descriptor_ahead_of_its_entity(self):
        db, rel, addrs = loaded_db()
        db.catalog.relation("items").partitions[1] = 77
        problems = verify_integrity(db)
        assert any("items: decoded descriptor differs" in p for p in problems)

    def test_detects_descriptor_without_an_entity(self):
        db, rel, addrs = loaded_db()
        descriptor = db.catalog.index("by_v")
        db.memory.partition(descriptor.entity.partition_address).delete(
            descriptor.entity.offset
        )
        problems = verify_integrity(db)
        assert any("by_v: registered but has no catalog entity" in p for p in problems)

    def test_detects_entity_without_a_descriptor(self):
        db, rel, addrs = loaded_db()
        del db.catalog._indexes["by_v"]
        problems = verify_integrity(db)
        assert any("has no registered descriptor" in p for p in problems)

    def test_detects_stale_indexed_fields(self):
        db, rel, addrs = loaded_db()
        db.catalog.relation("items").indexed_fields = frozenset({"id"})  # by_v's "v" left out
        problems = verify_integrity(db)
        assert (
            "items: indexed fields ['id'] differ from its indexes' key fields ['id', 'v']"
            in problems
        )

    def test_detects_a_dropped_segment_map_entry(self):
        db, rel, addrs = loaded_db()
        descriptor = db.catalog.index("by_v")
        del db.catalog._by_segment[descriptor.segment_id]
        problems = verify_integrity(db)
        assert (
            f"segment {descriptor.segment_id}: the catalog's segment map holds None, "
            f"its registered owner is 'by_v'"
        ) in problems

    def test_detects_an_extra_segment_map_entry(self):
        db, rel, addrs = loaded_db()
        db.catalog._by_segment[999] = db.catalog.relation("items")
        problems = verify_integrity(db)
        assert (
            "segment 999: the catalog's segment map holds 'items', its registered owner is None"
            in problems
        )

    def test_detects_own_slots_differing_from_the_well_known_copies(self):
        db, rel, addrs = loaded_db()
        db.catalog.own_partition_slots[1] = 77
        problems = verify_integrity(db)
        assert sum("well-known copy" in p for p in problems) == 2  # SLB and SLT

    def test_detects_unreferenced_checkpoint_slot(self):
        db, rel, addrs = loaded_db()
        slot = db.checkpoint_disk.allocate(owner=1)
        problems = verify_integrity(db)
        assert f"checkpoint slot {slot} is allocated but unreferenced" in problems

    def test_detects_resident_partition_the_catalog_does_not_list(self):
        db, rel, addrs = loaded_db()
        descriptor = db.catalog.relation("items")
        del descriptor.partitions[1]
        db.catalog.update(descriptor, None)  # mirror and bytes agree: only this clause fires
        problems = verify_integrity(db)
        assert f"items: partition 1 of segment {descriptor.segment_id} is not catalogued" in problems

    def test_reports_an_index_whose_segment_lacks_a_partition(self):
        """Reported, not raised: the audit must survive what it audits."""
        db, rel, addrs = loaded_db()
        descriptor = db.catalog.index("by_v")
        segment = db.memory.segment(descriptor.segment_id)
        db.memory.drop_segment(segment.segment_id)  # an empty shell in its place
        db.memory.register_segment(segment.segment_id, segment.name)
        db._index_objects.clear()  # cached over the old segment object
        problems = verify_integrity(db)
        assert any("by_v: partition 1 catalogued but unknown" in p for p in problems)
        assert any(p.startswith("by_v: segment") and "has no partition" in p for p in problems)
