"""Rollback of each change sink: by statement rollback, by abort, and
by the abort a failed log write makes.

UNDO has no record format of its own: every sink operation of
``Transaction`` logs the forward REDO record and keeps its *inverse* in
the volatile UNDO space as ``(record class, *fields)``, and
``_rollback`` packs each inverse newest-first and applies it as bytes,
building no record object.  One table lists the nine sink operations (the
index write in its three shapes); each row performs the physical
mutation plus the sink call the way the storage layers do, and
:func:`check` asserts that every kind of rollback puts back the entity
bytes, offsets and heap handles — the very ``bytes`` objects an
inverse's before-image holds, which ``NodeStore.load`` revalidates its
cached forms by — while the ``next_offset`` / handle counters never move
backwards (offsets and handles are not reused).
"""

import pytest

from repro import Database, SystemConfig
from repro.common import EntityAddress, TransactionAborted
from repro.common.errors import StableMemoryFullError
from repro.txn.transaction import TxnState
from tests import refuse_records


class Doomed(Exception):
    pass


@pytest.fixture()
def db(monkeypatch):
    refuse_records(monkeypatch)  # a rollback applies its inverses as bytes
    db = Database(SystemConfig(log_page_size=1024))
    rel = db.create_relation("t", [("k", "int")], primary_key="k")
    with db.transaction() as txn:
        rel.insert(txn, {"k": 0})  # the relation's first partition exists
    return db


def partition_of(db):
    segment = db.memory.segment(db.catalog.relation("t").segment_id)
    return next(segment.resident_partitions())


def eaddr(part, offset):
    return EntityAddress(part.address.segment, part.address.partition, offset)


def state(part):
    return (
        list(part.entities()),
        [(handle, part.heap.get(handle)) for handle in part.heap.handles()],
        part.used_bytes,
        part.heap.used_bytes,
    )


def counters(part):
    return part.next_offset, part.heap._next_handle


def objects(part):
    """Every entity and heap string object, by offset and handle."""
    return dict(part.entities()), {h: part.heap.get(h) for h in part.heap.handles()}


def full_log(db):
    """Make every log write of ``db`` fail, as an exhausted SLB does."""

    def refused(txn_id, data):
        raise StableMemoryFullError("Stable Log Buffer exhausted")

    db.slb.append = refused


# -- the nine sink operations ------------------------------------------------------
#
# ``setup(part)`` builds committed pre-state without a sink and returns
# what ``do`` needs; ``do(txn, part, ctx)`` mutates and reports, passing
# the stored object as the before-image, as the storage layers do.


def _none(part):
    return None


def _entity(data):
    return lambda part: part.insert(data)


def _string(data):
    return lambda part: part.heap.put(data)


def do_entity_inserted(txn, part, _):
    offset = part.insert(b"new")
    txn.entity_inserted(eaddr(part, offset), b"new")


def do_entity_updated(txn, part, offset):
    before = part.read(offset)
    part.update(offset, b"after")
    txn.entity_updated(eaddr(part, offset), before, b"after")


def do_entity_patched(txn, part, offset):
    part.update(offset, b"AAAAXXXX")
    txn.entity_patched(eaddr(part, offset), 4, b"BBBB", b"XXXX")


def do_entity_deleted(txn, part, offset):
    before = part.read(offset)
    part.delete(offset)
    txn.entity_deleted(eaddr(part, offset), before)


def do_heap_put(txn, part, _):
    handle = part.heap.put(b"string")
    txn.heap_put(part.address, handle, b"string")


def do_heap_delete(txn, part, handle):
    before = part.heap.get(handle)
    part.heap.delete(handle)
    txn.heap_delete(part.address, handle, before)


def do_index_node_overwritten(txn, part, offset):
    before = part.read(offset)
    part.update(offset, b"node-v2")
    txn.index_node_written(eaddr(part, offset), before, b"node-v2")


def do_index_node_created(txn, part, _):
    offset = part.insert(b"created")
    txn.index_node_written(eaddr(part, offset), None, b"created")


def do_index_node_overwritten_then_lost(txn, part, offset):
    before = part.read(offset)
    part.update(offset, b"node-v2")
    part.delete(offset)  # behind the sink's back: the inverse is an upsert
    txn.index_node_written(eaddr(part, offset), before, b"node-v2")


def do_index_node_freed(txn, part, offset):
    before = part.read(offset)
    part.delete(offset)
    txn.index_node_freed(eaddr(part, offset), before)


SINK_OPS = {
    "entity_inserted": (_none, do_entity_inserted),
    "entity_updated": (_entity(b"before"), do_entity_updated),
    "entity_patched": (_entity(b"AAAABBBB"), do_entity_patched),
    "entity_deleted": (_entity(b"gone"), do_entity_deleted),
    "heap_put": (_none, do_heap_put),
    "heap_delete": (_string(b"bye"), do_heap_delete),
    "index_node_written": (_entity(b"node-v1"), do_index_node_overwritten),
    "index_node_written/created": (_none, do_index_node_created),
    "index_node_written/lost": (_entity(b"node-v1"), do_index_node_overwritten_then_lost),
    "index_node_freed": (_entity(b"freed"), do_index_node_freed),
}


def check(db, name):
    """do -> statement rollback, do -> abort, then do with the log full
    (``_redo``'s abort), on the same partition.  Every rollback puts back
    each entity and string object that was there, as that object — except
    a patch's, whose entity is rebuilt around the before-image."""
    setup, do = SINK_OPS[name]
    part = partition_of(db)
    for ending in ("statement", "abort", "log full"):
        ctx = setup(part)
        before, kept = state(part), objects(part)
        txn = db.transactions.begin()
        if ending == "statement":
            with pytest.raises(Doomed):
                with txn.statement():
                    do(txn, part, ctx)
                    reached = counters(part)
                    assert state(part) != before
                    raise Doomed
            assert txn.redo_records == 0 and txn.undo_record_count == 0
            txn.commit()
        elif ending == "abort":
            do(txn, part, ctx)
            reached = counters(part)
            assert state(part) != before
            txn.abort()
        else:
            full_log(db)
            with pytest.raises(TransactionAborted, match="log write failed"):
                do(txn, part, ctx)
            del db.slb.append
            reached = counters(part)
            assert txn.state is TxnState.ABORTED
        assert state(part) == before
        assert counters(part) == reached  # offsets / handles are never reused
        entities, strings = objects(part)
        for offset, blob in kept[0].items():
            assert name == "entity_patched" or entities[offset] is blob, offset
        for handle, blob in kept[1].items():
            assert strings[handle] is blob, handle
    assert db.slb.uncommitted_txn_ids == []


class TestTupleUndo:
    def test_undo_insert_deletes(self, db):
        check(db, "entity_inserted")

    def test_undo_update_restores(self, db):
        check(db, "entity_updated")

    def test_undo_delete_reinserts_at_same_offset(self, db):
        check(db, "entity_deleted")

    def test_undo_field_patch_restores_range(self, db):
        check(db, "entity_patched")


class TestHeapUndo:
    def test_undo_put_deletes(self, db):
        check(db, "heap_put")

    def test_undo_delete_restores_same_handle(self, db):
        check(db, "heap_delete")


class TestIndexUndo:
    def test_undo_write_restores_before_image(self, db):
        check(db, "index_node_written")

    def test_undo_write_of_created_node_removes_it(self, db):
        check(db, "index_node_written/created")

    def test_undo_write_reinserts_missing_node(self, db):
        check(db, "index_node_written/lost")

    def test_undo_free_reinstates(self, db):
        check(db, "index_node_freed")


class TestReverseOrderComposition:
    def test_lifo_application_reverses_a_sequence(self, db):
        """Rolling back newest-first exactly reverses the operations."""
        part = partition_of(db)
        before = state(part)
        txn = db.transactions.begin()
        offset = part.insert(b"v1")
        address = eaddr(part, offset)
        txn.entity_inserted(address, b"v1")
        part.update(offset, b"v2")
        txn.entity_updated(address, b"v1", b"v2")
        handle = part.heap.put(b"s1")
        txn.heap_put(part.address, handle, b"s1")
        part.update(offset, b"v3")
        txn.entity_updated(address, b"v2", b"v3")
        order = []
        txn.on_rollback(lambda: order.append(part.read(offset)))  # newest: sees v3
        txn.abort()
        assert order == [b"v3"]
        assert offset not in part
        assert handle not in part.heap
        assert state(part) == before
