"""A reference model of REDO: each record class's effect stated through
the partition's own public methods, one call chain per record.

``repro`` applies every record — replayed from a page, or taken back from
a transaction's UNDO list — through one loop,
:meth:`~repro.storage.partition.Partition.apply_records`, that writes the
partition's dictionaries and byte accounting directly.  Comparing that
loop with itself proves nothing, so the property tests compare it with
this model: the per-class bodies the loop replaced, on
:meth:`Partition.insert_at` / ``update`` / ``read`` / ``delete`` and the
heap's ``put_at`` / ``delete``.  The two stores share one upsert and one
remove: a record keys the entity area by its offset, the heap by its
handle.
"""

import dataclasses

from repro.common.errors import LogError
from repro.storage import Partition, StringHeap
from repro.wal.records import (
    CommandBarrier,
    FieldPatch,
    HeapDelete,
    HeapPut,
    IndexNodeFree,
    IndexNodeWrite,
    RedoRecord,
    SweepMarker,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
)


#: Each store's replay put, uncapped: a replay puts back what was there.
_PUT_AT = {Partition: Partition.insert_at, StringHeap: StringHeap.put_at}


def _upsert(store: Partition | StringHeap, key: int, data: bytes) -> None:
    # a duplicate replay prefix may find the key there already: last writer wins
    if key in store:
        store.delete(key)
    _PUT_AT[type(store)](store, key, data)


def _overwrite(partition: Partition, offset: int, data: bytes) -> None:
    partition.update(offset, data)


def _remove(store: Partition | StringHeap, key: int) -> None:
    if key in store:
        store.delete(key)


def _patch(partition: Partition, offset: int, start: int, data: bytes) -> None:
    current = partition.read(offset)
    end = start + len(data)
    if end > len(current):
        raise LogError(
            f"field patch [{start}:{end}] exceeds tuple of "
            f"{len(current)} bytes at {partition.address} offset {offset}"
        )
    partition.update(offset, current[:start] + data + current[end:])


def _marker(partition: Partition, *operands: int) -> None:
    pass


def _after_address(record) -> tuple:
    """The record's fields after its address (txn id, bin index,
    address), in wire order."""
    return tuple(getattr(record, field.name) for field in dataclasses.fields(record)[3:])


def _entity(partition: Partition, record) -> tuple:
    return (partition, record.address.offset, *_after_address(record))


def _string(partition: Partition, record) -> tuple:
    # a heap record's handle is its first field
    return (partition.heap, *_after_address(record))


def _partition(partition: Partition, record) -> tuple:
    return (partition, *_after_address(record))


#: record class -> (its effect on ``(store, key, *operands)``, the
#: record's ``(store, key, *operands)`` in a partition): the store is the
#: partition or its heap, the key the entity offset or heap handle, the
#: operands the fixed fields after it, ``data`` last.
MODEL = {
    TupleInsert: (_upsert, _entity),
    IndexNodeWrite: (_upsert, _entity),
    TupleUpdate: (_overwrite, _entity),
    TupleDelete: (_remove, _entity),
    IndexNodeFree: (_remove, _entity),
    FieldPatch: (_patch, _entity),
    HeapPut: (_upsert, _string),
    HeapDelete: (_remove, _string),
    CommandBarrier: (_marker, _partition),
    SweepMarker: (_marker, _partition),
}


def model_apply(partition: Partition, record: RedoRecord) -> None:
    """Apply ``record`` to ``partition`` the way the model states it."""
    effect, operands = MODEL[type(record)]
    effect(*operands(partition, record))
