"""Relation handles: tuple-level DML with logging, locking and indexing.

A :class:`Relation` is a thin, restart-safe handle (it holds only the
relation *name*; descriptors are re-fetched from the catalog so handles
survive crash/restart).  Every operation takes the transaction explicitly.

Physical layout: tuples are fixed-width cell arrays (see
:mod:`repro.catalog.schema`); string/bytes values live in the partition's
string-space heap with the cell holding the heap handle.  All mutations
report to the transaction sink, producing the REDO/UNDO records and
two-phase locks of paper section 2.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.catalog.catalog import RelationDescriptor
from repro.catalog.schema import FIELD_WIDTH, NULL_HANDLE, FieldType
from repro.common.errors import CatalogError, PartitionFullError, ReproError
from repro.common.types import EntityAddress, PartitionAddress
from repro.concurrency.locks import LockMode
from repro.storage.partition import ENTITY_HEADER_BYTES, Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.db.query import Query
    from repro.txn.transaction import Transaction


class UniqueViolation(ReproError):
    """An insert or update would duplicate a primary key."""


class _RoomTaken(Exception):
    """A peer's insert took the room between the pick and the write."""


@dataclass(frozen=True)
class Row:
    """One materialised tuple: its address plus decoded field values."""

    address: EntityAddress
    values: dict[str, int | str | bytes | None]

    def __getitem__(self, field_name: str):
        return self.values[field_name]


class Relation:
    """Handle for DML against one relation."""

    def __init__(self, db: "Database", name: str):
        self.db = db
        self.name = name

    # -- catalog plumbing ---------------------------------------------------------

    @property
    def descriptor(self) -> RelationDescriptor:
        return self.db.catalog.relation(self.name)

    @property
    def schema(self):
        return self.descriptor.schema

    @property
    def primary_index_name(self) -> str:
        return f"{self.name}__pk"

    # -- DML ------------------------------------------------------------------------

    def insert(self, txn: "Transaction", row: dict) -> EntityAddress:
        """Insert one tuple; returns its (stable) entity address.

        The insert is atomic as a statement: if any step fails (partition
        full, index error), everything it already did — heap strings,
        catalog growth, index entries — is rolled back, in memory and in
        the stable REDO chain, while the transaction stays usable.
        """
        descriptor = self.descriptor
        schema = descriptor.schema
        self._check_row_fields(row)
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_EXCLUSIVE)
        key_value = row[descriptor.primary_key]
        if self._primary_search(txn, key_value):
            raise UniqueViolation(
                f"{self.name}.{descriptor.primary_key} = {key_value!r} exists"
            )
        while True:
            try:
                with txn.statement():
                    return self._insert_step(txn, row, descriptor, schema)
            except _RoomTaken:
                continue  # worker threads only: pick again

    def _insert_step(self, txn: "Transaction", row, descriptor, schema) -> EntityAddress:
        partition = self._partition_for(txn, row)
        paddr = partition.address
        cells = []
        try:
            for field in schema:
                value = row[field.name]
                if field.type is FieldType.INT:
                    cells.append(int(value))
                elif value is None:
                    cells.append(NULL_HANDLE)
                else:
                    handle = partition.heap.put(self._to_bytes(field.type, value))
                    txn.heap_put(paddr, handle, self._to_bytes(field.type, value))
                    cells.append(handle)
            data = schema.encode_tuple(cells)
            offset = partition.insert(data)
        except PartitionFullError:
            raise _RoomTaken from None
        address = EntityAddress(paddr.segment, paddr.partition, offset)
        txn.lock_entity(address, LockMode.EXCLUSIVE)
        txn.entity_inserted(address, data)
        for index_descriptor in self.db.catalog.indexes_of(self.name):
            index = self.db.index_object(index_descriptor, txn)
            index.insert(row[index_descriptor.key_field], address)
        return address

    def read(self, txn: "Transaction", address: EntityAddress) -> Row:
        """Read one tuple under a shared lock."""
        descriptor = self.descriptor
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_SHARED)
        txn.lock_entity(address, LockMode.SHARED)
        partition = self._resident_partition(address.partition)
        return self._materialise(partition, address)

    def update(self, txn: "Transaction", address: EntityAddress, changes: dict) -> None:
        """Update named fields of one tuple in place (statement-atomic)."""
        descriptor = self.descriptor
        schema = descriptor.schema
        for name in changes:
            schema.position(name)  # validate early
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_EXCLUSIVE)
        txn.lock_entity(address, LockMode.EXCLUSIVE)
        partition = self._resident_partition(address.partition)
        paddr = partition.address
        before_row = self._materialise(partition, address)
        if descriptor.primary_key in changes:
            new_key = changes[descriptor.primary_key]
            if new_key != before_row[descriptor.primary_key] and self._primary_search(
                txn, new_key
            ):
                raise UniqueViolation(
                    f"{self.name}.{descriptor.primary_key} = {new_key!r} exists"
                )
        with txn.statement():
            self._update_step(
                txn, address, changes, descriptor, schema, partition, paddr, before_row
            )

    def _update_step(
        self, txn: "Transaction", address, changes, descriptor, schema, partition, paddr, before_row
    ) -> None:
        data = partition.read(address.offset)
        cells = schema.decode_tuple(data)
        for name, value in changes.items():
            position = schema.position(name)
            field = schema.field(name)
            old_cell_bytes = data[
                position * FIELD_WIDTH : (position + 1) * FIELD_WIDTH
            ]
            if field.type is FieldType.INT:
                new_cell = int(value)
            else:
                old_handle = cells[position]
                if old_handle != NULL_HANDLE:
                    old_string = partition.heap.get(old_handle)
                    partition.heap.delete(old_handle)
                    txn.heap_delete(paddr, old_handle, old_string)
                if value is None:
                    new_cell = NULL_HANDLE
                else:
                    encoded = self._to_bytes(field.type, value)
                    new_cell = partition.heap.put(encoded)
                    txn.heap_put(paddr, new_cell, encoded)
            cells[position] = new_cell
            new_cell_bytes = schema.encode_field(name, new_cell)
            data = (
                data[: position * FIELD_WIDTH]
                + new_cell_bytes
                + data[(position + 1) * FIELD_WIDTH :]
            )
            partition.update(address.offset, data)
            txn.entity_patched(
                address, position * FIELD_WIDTH, old_cell_bytes, new_cell_bytes
            )
        for index_descriptor in self.db.catalog.indexes_of(self.name):
            key_field = index_descriptor.key_field
            if key_field in changes and changes[key_field] != before_row[key_field]:
                index = self.db.index_object(index_descriptor, txn)
                index.delete(before_row[key_field], address)
                index.insert(changes[key_field], address)

    def delete(self, txn: "Transaction", address: EntityAddress) -> None:
        """Delete one tuple (and its heap strings, and its index entries);
        statement-atomic."""
        descriptor = self.descriptor
        schema = descriptor.schema
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_EXCLUSIVE)
        txn.lock_entity(address, LockMode.EXCLUSIVE)
        partition = self._resident_partition(address.partition)
        paddr = partition.address
        row = self._materialise(partition, address)
        with txn.statement():
            self._delete_step(txn, address, descriptor, schema, partition, paddr, row)

    def _delete_step(
        self, txn: "Transaction", address, descriptor, schema, partition, paddr, row
    ) -> None:
        data = partition.read(address.offset)
        cells = schema.decode_tuple(data)
        for position, field in enumerate(schema):
            if field.type.heap_backed and cells[position] != NULL_HANDLE:
                handle = cells[position]
                old_string = partition.heap.get(handle)
                partition.heap.delete(handle)
                txn.heap_delete(paddr, handle, old_string)
        for index_descriptor in self.db.catalog.indexes_of(self.name):
            index = self.db.index_object(index_descriptor, txn)
            index.delete(row[index_descriptor.key_field], address)
        partition.delete(address.offset)
        txn.entity_deleted(address, data)

    # -- queries ----------------------------------------------------------------------

    def lookup(self, txn: "Transaction", key_value) -> Row | None:
        """Primary-key point lookup."""
        addresses = self._primary_search(txn, key_value)
        if not addresses:
            return None
        return self.read(txn, addresses[0])

    def lookup_by(self, txn: "Transaction", index_name: str, key_value) -> list[Row]:
        """Point lookup through any index on this relation."""
        index_descriptor = self.db.catalog.index(index_name)
        if index_descriptor.relation_name != self.name:
            raise CatalogError(f"index {index_name!r} is not on {self.name!r}")
        index = self.db.index_object(index_descriptor, txn)
        return [self.read(txn, address) for address in index.search(key_value)]

    def range_by(
        self,
        txn: "Transaction",
        index_name: str,
        low=None,
        high=None,
    ) -> Iterator[Row]:
        """Range query through an ordered (T-Tree) index.

        Yields rows with ``low <= key <= high`` in key order; either bound
        may be None for an open end.
        """
        index_descriptor = self.db.catalog.index(index_name)
        if index_descriptor.relation_name != self.name:
            raise CatalogError(f"index {index_name!r} is not on {self.name!r}")
        index = self.db.index_object(index_descriptor, txn)
        if not index.ORDERED:
            raise CatalogError(
                f"index {index_name!r} is a hash index; range queries need "
                f"a T-Tree"
            )
        for _, address in index.range_scan(low, high):
            yield self.read(txn, address)

    def scan(self, txn: "Transaction") -> Iterator[Row]:
        """Full scan in (partition, offset) order; recovers missing
        partitions on demand."""
        descriptor = self.descriptor
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_SHARED)
        # The segment's numbers, not the descriptor's: a partition being
        # grown is listed before its growth commits, installed only after.
        for number in self.db.memory.segment(descriptor.segment_id).partition_numbers():
            partition = self._resident_partition(number)
            for offset, _ in list(partition.entities()):
                address = EntityAddress(descriptor.segment_id, number, offset)
                txn.lock_entity(address, LockMode.SHARED)
                yield self._materialise(partition, address)

    def count(self, txn: "Transaction") -> int:
        return sum(1 for _ in self.scan(txn))

    def query(self) -> "Query":
        """Start a filtered/projected query over this relation."""
        from repro.db.query import Query

        return Query(self)

    def update_where(
        self, txn: "Transaction", field: str, op: str, value, changes: dict
    ) -> int:
        """Update every row matching ``field op value``; returns the count.

        Matching rows are materialised first (a row must not be re-matched
        because the update moved it within an index scan).
        """
        matches = list(self.query().where(field, op, value).rows(txn))
        for row in matches:
            self.update(txn, row.address, changes)
        return len(matches)

    def delete_where(self, txn: "Transaction", field: str, op: str, value) -> int:
        """Delete every row matching ``field op value``; returns the count."""
        matches = list(self.query().where(field, op, value).rows(txn))
        for row in matches:
            self.delete(txn, row.address)
        return len(matches)

    # -- internals ------------------------------------------------------------------------

    def _primary_search(self, txn: "Transaction", key_value) -> list[EntityAddress]:
        index_descriptor = self.db.catalog.index(self.primary_index_name)
        index = self.db.index_object(index_descriptor, txn)
        return index.search(key_value)

    def _check_row_fields(self, row: dict) -> None:
        schema = self.schema
        expected = {field.name for field in schema}
        provided = set(row)
        if expected != provided:
            raise CatalogError(
                f"row fields {sorted(provided)} do not match schema "
                f"{sorted(expected)}"
            )

    def _resident_partition(self, number: int) -> Partition:
        return self.db.ensure_partition(
            PartitionAddress(self.descriptor.segment_id, number)
        )

    def _partition_for(self, txn: "Transaction", row: dict) -> Partition:
        """Pick a resident partition with room for the tuple and its
        strings, or have the segment grown by one partition."""
        schema = self.schema
        tuple_need = schema.tuple_width + ENTITY_HEADER_BYTES
        heap_need = 0
        for field in schema:
            value = row[field.name]
            if field.type.heap_backed and value is not None:
                heap_need += len(self._to_bytes(field.type, value)) + 8
        segment = self.db.memory.segment(self.descriptor.segment_id)
        fits = lambda p: p.free_bytes >= tuple_need and p.heap.free_bytes >= heap_need
        partition = segment.first_fit(fits)
        if partition is not None:
            return partition
        # check fit BEFORE growing: an oversized row must not leave an
        # empty partition behind
        entity_capacity, heap_capacity = segment.fresh_partition_capacities()
        if tuple_need > entity_capacity or heap_need > heap_capacity:
            raise PartitionFullError(
                f"tuple of {tuple_need}B + {heap_need}B strings exceeds a "
                f"fresh partition ({entity_capacity}B + {heap_capacity}B)"
            )
        return txn.grow_segment(segment, fits)

    def _materialise(self, partition: Partition, address: EntityAddress) -> Row:
        schema = self.schema
        cells = schema.decode_tuple(partition.read(address.offset))
        values: dict[str, int | str | bytes | None] = {}
        for position, field in enumerate(schema):
            cell = cells[position]
            if field.type is FieldType.INT:
                values[field.name] = cell
            elif cell == NULL_HANDLE:
                values[field.name] = None
            else:
                raw = partition.heap.get(cell)
                values[field.name] = (
                    raw.decode("utf-8") if field.type is FieldType.STR else raw
                )
        return Row(address, values)

    @staticmethod
    def _to_bytes(field_type: FieldType, value) -> bytes:
        if field_type is FieldType.STR:
            return str(value).encode("utf-8")
        return bytes(value)
