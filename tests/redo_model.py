"""A reference model of REDO: each record class's effect stated through
the partition's own public methods, one call chain per record.

``repro`` applies every record — replayed from a page, or taken back from
a transaction's UNDO list — through one loop,
:meth:`~repro.storage.partition.Partition.apply_records`, that writes the
partition's dictionaries and byte accounting directly.  Comparing that
loop with itself proves nothing, so the property tests compare it with
this model: the per-class bodies the loop replaced, on
:meth:`Partition.insert_at` / ``update`` / ``read`` / ``delete`` and the
heap's ``put_at`` / ``replace`` / ``delete``.
"""

import dataclasses

from repro.common.errors import LogError
from repro.storage import Partition
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


def _install(partition: Partition, offset: int, data: bytes) -> None:
    # upsert: a duplicate replay prefix may find the entity there already
    if offset in partition:
        partition.update(offset, data)
    else:
        partition.insert_at(offset, data)


def _overwrite(partition: Partition, offset: int, data: bytes) -> None:
    partition.update(offset, data)


def _remove(partition: Partition, offset: int) -> None:
    if offset in partition:
        partition.delete(offset)


def _patch(partition: Partition, offset: int, start: int, data: bytes) -> None:
    current = partition.read(offset)
    end = start + len(data)
    if end > len(current):
        raise LogError(
            f"field patch [{start}:{end}] exceeds tuple of "
            f"{len(current)} bytes at {partition.address} offset {offset}"
        )
    partition.update(offset, current[:start] + data + current[end:])


def _heap_put(partition: Partition, handle: int, data: bytes) -> None:
    if handle in partition.heap:
        partition.heap.replace(handle, data)
    else:
        partition.heap.put_at(handle, data)


def _heap_delete(partition: Partition, handle: int) -> None:
    if handle in partition.heap:
        partition.heap.delete(handle)


def _marker(partition: Partition, *operands: int) -> None:
    pass


def _after_address(record) -> tuple:
    """The record's fields after its address (txn id, bin index,
    address), in wire order."""
    return tuple(getattr(record, field.name) for field in dataclasses.fields(record)[3:])


def _entity(record) -> tuple:
    return (record.address.offset, *_after_address(record))


_string = _after_address  # a heap record's handle is its first field


#: record class -> (its effect on ``(partition, key, *operands)``, the
#: record's ``(key, *operands)``): the key is the entity offset or heap
#: handle, the operands the fixed fields after it, ``data`` last.
MODEL = {
    TupleInsert: (_install, _entity),
    IndexNodeWrite: (_install, _entity),
    TupleUpdate: (_overwrite, _entity),
    TupleDelete: (_remove, _entity),
    IndexNodeFree: (_remove, _entity),
    FieldPatch: (_patch, _entity),
    HeapPut: (_heap_put, _string),
    HeapDelete: (_heap_delete, _string),
    CommandBarrier: (_marker, _after_address),
    SweepMarker: (_marker, _after_address),
}


def model_apply(partition: Partition, record: RedoRecord) -> None:
    """Apply ``record`` to ``partition`` the way the model states it."""
    effect, operands = MODEL[type(record)]
    effect(partition, *operands(record))
