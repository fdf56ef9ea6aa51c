"""Tests for drop DDL and the predeclared-access transaction mode."""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common import CatalogError, StorageError


def small_config():
    return SystemConfig(
        log_page_size=1024,
        update_count_threshold=50,
        log_window_pages=512,
        log_window_grace_pages=32,
    )


def loaded_db():
    db = Database(small_config())
    rel = db.create_relation(
        "items", [("id", "int"), ("v", "int")], primary_key="id"
    )
    db.create_index("by_v", "items", "v", kind="ttree")
    with db.transaction() as txn:
        for i in range(30):
            rel.insert(txn, {"id": i, "v": i % 5})
    return db, rel


class TestDropIndex:
    def test_drop_removes_index(self):
        db, rel = loaded_db()
        db.drop_index("by_v")
        with pytest.raises(CatalogError):
            db.catalog.index("by_v")
        assert "by_v" not in db.catalog.relation("items").index_names

    def test_lookup_by_dropped_index_fails(self):
        db, rel = loaded_db()
        db.drop_index("by_v")
        with pytest.raises(CatalogError):
            with db.transaction() as txn:
                rel.lookup_by(txn, "by_v", 2)

    def test_primary_index_protected(self):
        db, rel = loaded_db()
        with pytest.raises(CatalogError):
            db.drop_index("items__pk")

    def test_dml_still_works_after_drop(self):
        db, rel = loaded_db()
        db.drop_index("by_v")
        with db.transaction() as txn:
            rel.insert(txn, {"id": 100, "v": 1})
            assert rel.lookup(txn, 100) is not None

    def test_drop_survives_crash(self):
        db, rel = loaded_db()
        db.drop_index("by_v")
        db.crash()
        db.restart(RecoveryMode.EAGER)
        with pytest.raises(CatalogError):
            db.catalog.index("by_v")
        with db.transaction() as txn:
            assert db.table("items").count(txn) == 30


class TestDropRelation:
    def test_drop_removes_relation_and_indexes(self):
        db, rel = loaded_db()
        segment_id = db.catalog.relation("items").segment_id
        db.drop_relation("items")
        with pytest.raises(CatalogError):
            db.catalog.relation("items")
        with pytest.raises(CatalogError):
            db.catalog.index("by_v")
        with pytest.raises(StorageError):
            db.memory.segment(segment_id)

    def test_drop_frees_checkpoint_slots(self):
        db, rel = loaded_db()
        # force checkpoints so slots exist
        with db.transaction() as txn:
            for i in range(30):
                rel.update(txn, rel.lookup(txn, i).address, {"v": 9})
        db.pump()
        before = db.checkpoint_disk.occupied_count
        db.drop_relation("items")
        assert db.checkpoint_disk.occupied_count <= before

    def test_name_reusable_after_drop(self):
        db, rel = loaded_db()
        db.drop_relation("items")
        fresh = db.create_relation("items", [("id", "int")], primary_key="id")
        with db.transaction() as txn:
            fresh.insert(txn, {"id": 1})
            assert fresh.count(txn) == 1

    def test_drop_survives_crash(self):
        db, rel = loaded_db()
        db.drop_relation("items")
        db.crash()
        db.restart(RecoveryMode.EAGER)
        with pytest.raises(CatalogError):
            db.table("items")

    def test_unknown_relation_rejected(self):
        db, rel = loaded_db()
        with pytest.raises(CatalogError):
            db.drop_relation("ghost")


class TestPredeclaredAccess:
    def _two_relation_db(self):
        db = Database(small_config())
        for name in ("hot", "cold"):
            rel = db.create_relation(name, [("id", "int"), ("v", "int")], primary_key="id")
            with db.transaction() as txn:
                for i in range(40):
                    rel.insert(txn, {"id": i, "v": i})
        return db

    def test_predeclared_relations_recovered_up_front(self):
        db = self._two_relation_db()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        hot_seg = db.catalog.relation("hot").segment_id
        with db.transaction(pump=False, relations=["hot"]) as txn:
            # everything the transaction needs is already resident
            assert db.memory.segment(hot_seg).fully_resident
            assert db.table("hot").lookup(txn, 3)["v"] == 3

    def test_predeclare_includes_indexes(self):
        db = self._two_relation_db()
        db.create_index("hot_by_v", "hot", "v", kind="ttree")
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        index_seg = db.catalog.index("hot_by_v").segment_id
        with db.transaction(pump=False, relations=["hot"]) as txn:
            assert db.memory.segment(index_seg).fully_resident

    def test_predeclare_without_crash_is_noop(self):
        db = self._two_relation_db()
        with db.transaction(relations=["hot"]) as txn:
            assert db.table("hot").lookup(txn, 0) is not None

    def test_undeclared_relation_still_on_demand(self):
        db = self._two_relation_db()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        cold_seg = db.catalog.relation("cold").segment_id
        with db.transaction(pump=False, relations=["hot"]) as txn:
            assert not db.memory.segment(cold_seg).fully_resident
            # touching it mid-transaction recovers it on demand (method 2)
            assert db.table("cold").lookup(txn, 5)["v"] == 5


class TestDropUnderRecovery:
    def test_drop_unrecovered_relation_after_crash(self):
        """A relation can be dropped while its partitions are still
        awaiting on-demand recovery — nothing needs to be resident."""
        db, rel = loaded_db()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        seg = db.catalog.relation("items").segment_id
        assert db.memory.segment(seg).missing_partitions() != []
        db.drop_relation("items")
        with pytest.raises(CatalogError):
            db.table("items")
        # background recovery copes with the vanished segment
        coordinator = db.restart_coordinator
        while coordinator.background_step() is not None:
            pass
        # and the system is reusable
        fresh = db.create_relation("items", [("id", "int")], primary_key="id")
        with db.transaction() as txn:
            fresh.insert(txn, {"id": 1})
        db.crash()
        db.restart(RecoveryMode.EAGER)
        with db.transaction() as txn:
            assert db.table("items").count(txn) == 1
