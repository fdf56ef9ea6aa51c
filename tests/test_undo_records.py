"""Rollback of each change sink, by statement rollback and by abort.

UNDO has no record format of its own: every sink operation of
``Transaction`` logs the forward REDO record and keeps its *inverse*
record in the volatile UNDO space, and ``_rollback`` applies the
inverses newest-first through ``RedoRecord.apply``.  One table lists the
nine sink operations (the index write in its three shapes); each row
performs the physical mutation plus the sink call the way the storage
layers do, and :func:`check` asserts that both kinds of rollback put back
the entity bytes, offsets and heap handles — while the ``next_offset`` /
handle counters never move backwards (offsets and handles are not
reused).
"""

import pytest

from repro import Database, SystemConfig
from repro.common import EntityAddress


class Doomed(Exception):
    pass


@pytest.fixture()
def db():
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


# -- the nine sink operations ------------------------------------------------------
#
# ``setup(part)`` builds committed pre-state without a sink and returns
# what ``do`` needs; ``do(txn, part, ctx)`` mutates and reports, and
# returns ``(offset, before)`` when rollback must put that very ``bytes``
# object back (``NodeStore.load``'s identity validation relies on it).


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
    return offset, before


def do_entity_patched(txn, part, offset):
    part.update(offset, b"AAAAXXXX")
    txn.entity_patched(eaddr(part, offset), 4, b"BBBB", b"XXXX")


def do_entity_deleted(txn, part, offset):
    before = part.read(offset)
    part.delete(offset)
    txn.entity_deleted(eaddr(part, offset), before)
    return offset, before


def do_heap_put(txn, part, _):
    handle = part.heap.put(b"string")
    txn.heap_put(part.address, handle, b"string")


def do_heap_replace(txn, part, handle):
    part.heap.replace(handle, b"new")
    txn.heap_replace(part.address, handle, b"old", b"new")


def do_heap_delete(txn, part, handle):
    part.heap.delete(handle)
    txn.heap_delete(part.address, handle, b"bye")


def do_index_node_overwritten(txn, part, offset):
    before = part.read(offset)
    part.update(offset, b"node-v2")
    txn.index_node_written(eaddr(part, offset), before, b"node-v2")
    return offset, before


def do_index_node_created(txn, part, _):
    offset = part.insert(b"created")
    txn.index_node_written(eaddr(part, offset), None, b"created")


def do_index_node_overwritten_then_lost(txn, part, offset):
    same = do_index_node_overwritten(txn, part, offset)
    part.delete(offset)  # behind the sink's back: the inverse is an upsert
    return same


def do_index_node_freed(txn, part, offset):
    before = part.read(offset)
    part.delete(offset)
    txn.index_node_freed(eaddr(part, offset), before)
    return offset, before


SINK_OPS = {
    "entity_inserted": (_none, do_entity_inserted),
    "entity_updated": (_entity(b"before"), do_entity_updated),
    "entity_patched": (_entity(b"AAAABBBB"), do_entity_patched),
    "entity_deleted": (_entity(b"gone"), do_entity_deleted),
    "heap_put": (_none, do_heap_put),
    "heap_replace": (_string(b"old"), do_heap_replace),
    "heap_delete": (_string(b"bye"), do_heap_delete),
    "index_node_written": (_entity(b"node-v1"), do_index_node_overwritten),
    "index_node_written/created": (_none, do_index_node_created),
    "index_node_written/lost": (_entity(b"node-v1"), do_index_node_overwritten_then_lost),
    "index_node_freed": (_entity(b"freed"), do_index_node_freed),
}


def check(db, name):
    """do -> statement rollback, then do -> abort, on the same partition."""
    setup, do = SINK_OPS[name]
    part = partition_of(db)
    for ending in ("statement", "abort"):
        ctx = setup(part)
        before = state(part)
        txn = db.transactions.begin()
        if ending == "statement":
            with pytest.raises(Doomed):
                with txn.statement():
                    same = do(txn, part, ctx)
                    reached = counters(part)
                    assert state(part) != before
                    raise Doomed
            assert txn.redo_records == 0 and txn.undo_record_count == 0
            txn.commit()
        else:
            same = do(txn, part, ctx)
            reached = counters(part)
            assert state(part) != before
            txn.abort()
        assert state(part) == before
        assert counters(part) == reached  # offsets / handles are never reused
        if same is not None:
            offset, blob = same
            assert part.read(offset) is blob
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

    def test_undo_replace_restores(self, db):
        check(db, "heap_replace")

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
