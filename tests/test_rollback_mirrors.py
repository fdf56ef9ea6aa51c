"""A rollback leaves no decoded mirror ahead of the bytes.

``Transaction._rollback`` restores entity *bytes* through inverse REDO
records; what is decoded from those bytes (catalog descriptors, cached
index objects) re-syncs from them in the same place, and volatile state
with no byte image (a DDL-created segment, a cached index object) is
taken back by a compensation registered on the UNDO list
(docs/INTERNALS.md, "Decoded mirrors of byte state").  Before this an
aborted DDL left a ghost: a relation registered in memory that no
catalog entity described.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.catalog.catalog import PartitionInfo, RelationDescriptor
from repro.common import CatalogError, SegmentKind, TransactionAborted
from repro.db.integrity import verify_integrity
from repro.recovery.oracle import logical_digest

SCHEMA = [("k", "int"), ("v", "int")]


class Doomed(Exception):
    pass


def load(rel, db, rows, per_txn=100):
    for base in range(0, rows, per_txn):
        with db.transaction() as txn:
            for key in range(base, base + per_txn):
                rel.insert(txn, {"k": key, "v": key % 97})


def catalogued_segments(db):
    return {db.catalog.segment.segment_id} | {
        descriptor.segment_id
        for descriptor in (*db.catalog.relations(), *db.catalog.indexes())
    }


class TestAbortedDdlLeavesNoGhost:
    def test_create_relation_with_a_bad_index_kind(self):
        db = Database()
        with pytest.raises(CatalogError, match="unknown index kind"):
            db.create_relation("r", SCHEMA, "k", primary_index="bogus")
        assert not db.catalog.has_relation("r")
        assert {s.segment_id for s in db.memory.segments()} == catalogued_segments(db)
        assert verify_integrity(db) == []
        rel = db.create_relation("r", SCHEMA, "k")
        with db.transaction() as txn:
            rel.insert(txn, {"k": 1, "v": 2})
            assert rel.lookup(txn, 1)["v"] == 2
        assert verify_integrity(db) == []

    def test_create_index_whose_backfill_aborts(self):
        """Host finding 1: the backfill outgrows the Stable Log Buffer.
        It still aborts — but it no longer bricks the relation."""
        db = Database(SystemConfig(slb_capacity=256 * 1024))
        rel = db.create_relation("a", SCHEMA, "k")
        load(rel, db, 1000)
        with pytest.raises(TransactionAborted, match="Stable Log Buffer exhausted"):
            db.create_index("a_v", "a", "v")
        assert rel.descriptor.index_names == ["a__pk"]
        assert [d.name for d in db.catalog.indexes()] == ["a__pk"]
        assert list(db._index_objects) == ["a__pk"]
        assert {s.segment_id for s in db.memory.segments()} == catalogued_segments(db)
        with db.transaction() as txn:
            rel.insert(txn, {"k": 99_999, "v": 1})
        assert verify_integrity(db) == []
        digest = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND).recover_everything()
        assert logical_digest(db) == digest
        assert verify_integrity(db) == []

    def test_create_index_under_a_taken_name(self):
        db = Database()
        rel = db.create_relation("a", SCHEMA, "k")
        segments = {s.segment_id for s in db.memory.segments()}
        with pytest.raises(CatalogError, match="already has an object named"):
            db.create_index("a__pk", "a", "v")
        assert {s.segment_id for s in db.memory.segments()} == segments
        with db.transaction() as txn:
            rel.insert(txn, {"k": 1, "v": 1})
        assert verify_integrity(db) == []


class TestCatalogResync:
    """The seam itself: descriptor changes a transaction rolls back."""

    @pytest.fixture()
    def db(self):
        db = Database()
        rel = db.create_relation("a", SCHEMA, "k")
        db.create_index("a_v", "a", "v")
        load(rel, db, 100)
        return db

    def usable(self, db):
        rel = db.table("a")
        with db.transaction() as txn:
            rel.insert(txn, {"k": 1000, "v": 5})
            assert [row["k"] for row in rel.lookup_by(txn, "a_v", 5)][-1] == 1000
        assert verify_integrity(db) == []

    def test_aborted_drop_keeps_the_same_descriptor_registered(self, db):
        relation = db.catalog.relation("a")
        index = db.catalog.index("a_v")
        fields = (relation.encode(), index.encode())
        txn = db.transactions.begin()
        db.catalog.drop(index, txn)
        db.catalog.drop(relation, txn)
        assert not db.catalog.has_relation("a")
        txn.abort()
        assert db.catalog.relation("a") is relation
        assert db.catalog.index("a_v") is index
        assert (relation.encode(), index.encode()) == fields
        self.usable(db)

    def test_aborted_update_restores_the_fields_in_place(self, db):
        relation = db.catalog.relation("a")
        before = relation.encode()
        txn = db.transactions.begin()
        relation.index_names.remove("a_v")
        relation.command_watermark = 41
        db.catalog.update(relation, txn)
        txn.abort()
        assert db.catalog.relation("a") is relation
        assert relation.index_names == ["a__pk", "a_v"]
        assert relation.command_watermark == 0
        assert relation.encode() == before
        self.usable(db)

    def test_only_the_restored_descriptors_are_rederived(self, db):
        """Another transaction may sit between mutating its descriptor
        and ``catalog.update``: this rollback must not take that away."""
        relation = db.catalog.relation("a")
        index = db.catalog.index("a_v")
        index.partitions[99] = PartitionInfo(99)
        txn = db.transactions.begin()
        relation.command_watermark = 3
        db.catalog.update(relation, txn)
        txn.abort()
        assert relation.command_watermark == 0
        assert 99 in index.partitions

    def test_create_and_drop_in_one_aborted_transaction(self, db):
        segment = db.memory.create_segment(SegmentKind.RELATION, "b")
        schema = db.catalog.relation("a").schema
        descriptor = RelationDescriptor("b", segment.segment_id, schema, "k")
        txn = db.transactions.begin()
        txn.on_rollback(lambda: db.memory.drop_segment(segment.segment_id))
        db.catalog.store_new(descriptor, txn)
        db.catalog.drop(descriptor, txn)
        txn.abort()
        assert not db.catalog.has_relation("b")
        self.usable(db)

    def test_statement_rollback_resyncs_too(self, db):
        relation = db.catalog.relation("a")
        with db.transaction() as txn:
            with pytest.raises(Doomed):
                with txn.statement():
                    relation.command_watermark = 7
                    db.catalog.update(relation, txn)
                    raise Doomed
            assert relation.command_watermark == 0
        self.usable(db)
