"""Relation handles: tuple-level DML with logging, locking and indexing.

A :class:`Relation` is a thin, restart-safe handle (it holds only the
relation *name*; descriptors are re-fetched from the catalog so handles
survive crash/restart).  Every operation takes the transaction explicitly.

Physical layout: tuples are fixed-width cell arrays (see
:mod:`repro.catalog.schema`); string/bytes values live in the partition's
string-space heap with the cell holding the heap handle.  All mutations
report to the transaction sink, producing the REDO/UNDO records and
two-phase locks of paper section 2.3.  Each public operation first asks
the transaction to ``resolve`` itself against this handle's database:
another database's transaction raises, a distributed one answers with
its branch here.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterator, NamedTuple

from repro.catalog.catalog import RelationDescriptor
from repro.catalog.schema import FIELD_WIDTH, NULL_HANDLE, FieldType
from repro.common.errors import CatalogError, ReproError
from repro.common.types import EntityAddress, PartitionAddress
from repro.concurrency.locks import LockMode
from repro.storage.entries import ENTRY_CHARGE_BYTES
from repro.storage.partition import Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.txn.transaction import Transaction


class UniqueViolation(ReproError):
    """An insert or update would duplicate a primary key."""


class Row(NamedTuple):
    """One materialised tuple: its address plus decoded field values."""

    address: EntityAddress
    values: dict[str, int | str | bytes | None]

    def __getitem__(self, field_name: str):  # type: ignore[override]
        return self.values[field_name]


#: A :class:`Row` of ``(address, values)`` built in C, not by its Python ``__new__``.
_new_row = partial(tuple.__new__, Row)


class Relation:
    """Handle for DML against one relation."""

    def __init__(self, db: "Database", name: str):
        self.db = db
        self.name = name
        self._primary_index = f"{name}__pk"

    # -- catalog plumbing ---------------------------------------------------------

    @property
    def descriptor(self) -> RelationDescriptor:
        return self.db.catalog.relation(self.name)

    # -- DML ------------------------------------------------------------------------

    def insert(self, txn: "Transaction", row: dict) -> EntityAddress:
        """Insert one tuple; returns its (stable) entity address.

        The insert is atomic as a statement: if any step fails (partition
        full, index error), everything it already did — heap strings,
        catalog growth, index entries — is rolled back, in memory and in
        the stable REDO chain, while the transaction stays usable.
        """
        txn = txn.resolve(self.db)
        descriptor = self.db.catalog.relation(self.name)
        schema = descriptor.schema
        if row.keys() != schema.names:
            raise CatalogError(
                f"row fields {sorted(row)} do not match schema {sorted(schema.names)}"
            )
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_EXCLUSIVE)
        key_value = row[descriptor.primary_key]
        if self._primary_search(txn, key_value):
            raise UniqueViolation(
                f"{self.name}.{descriptor.primary_key} = {key_value!r} exists"
            )
        with txn.statement():
            return self._insert_step(txn, row, descriptor, schema)

    def _insert_step(self, txn: "Transaction", row, descriptor, schema) -> EntityAddress:
        # Each heap-backed value's bytes, encoded once: sizing, heap and log.
        strings = [
            self._to_bytes(field.type, row[field.name])
            if field.type.heap_backed and row[field.name] is not None
            else None
            for field in schema.fields
        ]
        # room for the tuple and its heap strings
        tuple_need = schema.tuple_width + ENTRY_CHARGE_BYTES
        heap_need = sum(len(value) + ENTRY_CHARGE_BYTES for value in strings if value is not None)
        partition = self.db.memory.segment(descriptor.segment_id).place(
            lambda p: p.free_bytes >= tuple_need and p.heap.free_bytes >= heap_need,
            txn.grow_segment,
            tuple_need,
            heap_need,
        )
        paddr = partition.address
        cells = []
        for field, encoded in zip(schema.fields, strings):
            if encoded is not None:
                handle = partition.heap.put(encoded)
                txn.heap_put(paddr, handle, encoded)
                cells.append(handle)
            elif field.type is FieldType.INT:
                cells.append(int(row[field.name]))
            else:
                cells.append(NULL_HANDLE)
        data = schema.encode_tuple(cells)
        offset = partition.insert(data)
        address = EntityAddress(paddr.segment, paddr.partition, offset)
        txn.lock_entity(address, LockMode.EXCLUSIVE)
        txn.entity_inserted(address, data)
        for index_descriptor in self._indexes(descriptor):
            index = self.db.index_object(index_descriptor, txn)
            index.insert(row[index_descriptor.key_field], address)
        return address

    def read(self, txn: "Transaction", address: EntityAddress) -> Row:
        """Read one tuple under a shared lock."""
        txn = txn.resolve(self.db)
        return self._read(txn, self.db.catalog.relation(self.name), address)

    def _read(self, txn: "Transaction", descriptor, address: EntityAddress) -> Row:
        """:meth:`read` once a query has resolved ``txn`` and fetched
        ``descriptor``, with :meth:`_resident_partition` inline."""
        segment_id = descriptor.segment_id
        txn.lock_relation(segment_id, LockMode.INTENT_SHARED)
        txn.lock_entity(address, LockMode.SHARED)
        partition = self.db.memory.segment(segment_id).resident(address.partition)
        if partition is None:
            partition = self.db.ensure_partition(PartitionAddress(segment_id, address.partition))
        schema = descriptor.schema
        cells = schema.decode_tuple(partition.read(address.offset))
        return self._row(schema, partition, address, cells)

    def update(self, txn: "Transaction", address: EntityAddress, changes: dict) -> None:
        """Update named fields of one tuple in place (statement-atomic).

        The tuple is read and decoded once; its before-row is materialised
        only when a changed field is indexed (the primary key is)."""
        txn = txn.resolve(self.db)
        descriptor = self.db.catalog.relation(self.name)
        schema = descriptor.schema
        if not changes.keys() <= schema.names:  # raise for the first unknown field
            schema.position(next(name for name in changes if name not in schema.names))
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_EXCLUSIVE)
        txn.lock_entity(address, LockMode.EXCLUSIVE)
        partition = self._resident_partition(descriptor.segment_id, address.partition)
        data = partition.read(address.offset)
        cells = schema.decode_tuple(data)
        moved = ()
        if not descriptor.indexed_fields.isdisjoint(changes):
            before = self._row(schema, partition, address, cells)
            moved = [
                index_descriptor
                for index_descriptor in self._indexes(descriptor)
                if index_descriptor.key_field in changes
                and changes[index_descriptor.key_field] != before[index_descriptor.key_field]
            ]
            key = descriptor.primary_key
            if key in changes and changes[key] != before[key] and self._primary_search(
                txn, changes[key]
            ):
                raise UniqueViolation(f"{self.name}.{key} = {changes[key]!r} exists")
        with txn.statement():
            self._update_step(txn, address, changes, schema, partition, data, cells)
            for index_descriptor in moved:
                key_field = index_descriptor.key_field
                index = self.db.index_object(index_descriptor, txn)
                index.delete(before[key_field], address)
                index.insert(changes[key_field], address)

    def _update_step(
        self, txn: "Transaction", address, changes, schema, partition, data, cells
    ) -> None:
        paddr = partition.address
        for name, value in changes.items():
            position = schema.position(name)
            field_type = schema.fields[position].type
            start = position * FIELD_WIDTH
            end = start + FIELD_WIDTH
            old_cell_bytes = data[start:end]
            if field_type is FieldType.INT:
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
                    encoded = self._to_bytes(field_type, value)
                    new_cell = partition.heap.put(encoded)
                    txn.heap_put(paddr, new_cell, encoded)
            cells[position] = new_cell
            new_cell_bytes = schema.cell_codecs[position].pack(new_cell)
            data = data[:start] + new_cell_bytes + data[end:]
            partition.update(address.offset, data)
            txn.entity_patched(address, start, old_cell_bytes, new_cell_bytes)

    def delete(self, txn: "Transaction", address: EntityAddress) -> None:
        """Delete one tuple (and its heap strings, and its index entries);
        statement-atomic."""
        txn = txn.resolve(self.db)
        descriptor = self.db.catalog.relation(self.name)
        schema = descriptor.schema
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_EXCLUSIVE)
        txn.lock_entity(address, LockMode.EXCLUSIVE)
        partition = self._resident_partition(descriptor.segment_id, address.partition)
        data = partition.read(address.offset)
        cells = schema.decode_tuple(data)
        row = self._row(schema, partition, address, cells)
        indexes = self._indexes(descriptor)
        with txn.statement():
            self._delete_step(txn, address, schema, indexes, partition, data, cells, row)

    def _delete_step(
        self, txn: "Transaction", address, schema, indexes, partition, data, cells, row
    ) -> None:
        paddr = partition.address
        for position, field in enumerate(schema.fields):
            if field.type.heap_backed and cells[position] != NULL_HANDLE:
                handle = cells[position]
                old_string = partition.heap.get(handle)
                partition.heap.delete(handle)
                txn.heap_delete(paddr, handle, old_string)
        for index_descriptor in indexes:
            index = self.db.index_object(index_descriptor, txn)
            index.delete(row[index_descriptor.key_field], address)
        partition.delete(address.offset)
        txn.entity_deleted(address, data)

    # -- queries ----------------------------------------------------------------------

    def lookup(self, txn: "Transaction", key_value) -> Row | None:
        """Primary-key point lookup."""
        txn = txn.resolve(self.db)
        addresses = self._primary_search(txn, key_value)
        if not addresses:
            return None
        return self._read(txn, self.db.catalog.relation(self.name), addresses[0])

    def lookup_by(self, txn: "Transaction", index_name: str, key_value) -> list[Row]:
        """Point lookup through any index on this relation."""
        txn = txn.resolve(self.db)
        index_descriptor = self.db.catalog.index(index_name)
        if index_descriptor.relation_name != self.name:
            raise CatalogError(f"index {index_name!r} is not on {self.name!r}")
        index = self.db.index_object(index_descriptor, txn)
        descriptor = self.db.catalog.relation(self.name)
        return [self._read(txn, descriptor, address) for address in index.search(key_value)]

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
        txn = txn.resolve(self.db)
        index_descriptor = self.db.catalog.index(index_name)
        if index_descriptor.relation_name != self.name:
            raise CatalogError(f"index {index_name!r} is not on {self.name!r}")
        index = self.db.index_object(index_descriptor, txn)
        if not index.ORDERED:
            raise CatalogError(
                f"index {index_name!r} is a hash index; range queries need "
                f"a T-Tree"
            )
        descriptor = self.db.catalog.relation(self.name)
        for _, address in index.range_scan(low, high):
            yield self._read(txn, descriptor, address)

    def scan(self, txn: "Transaction") -> Iterator[Row]:
        """Full scan in (partition, offset) order; recovers missing
        partitions on demand."""
        txn = txn.resolve(self.db)
        descriptor = self.db.catalog.relation(self.name)
        txn.lock_relation(descriptor.segment_id, LockMode.INTENT_SHARED)
        # The segment's numbers, not the descriptor's: a partition being
        # grown is listed before its growth commits, installed only after.
        schema = descriptor.schema
        for number in self.db.memory.segment(descriptor.segment_id).partition_numbers():
            partition = self._resident_partition(descriptor.segment_id, number)
            for offset, _ in list(partition.entities()):
                address = EntityAddress(descriptor.segment_id, number, offset)
                txn.lock_entity(address, LockMode.SHARED)
                cells = schema.decode_tuple(partition.read(offset))
                yield self._row(schema, partition, address, cells)

    def count(self, txn: "Transaction") -> int:
        return sum(1 for _ in self.scan(txn))

    # -- internals ------------------------------------------------------------------------

    def _primary_search(self, txn: "Transaction", key_value) -> list[EntityAddress]:
        index_descriptor = self.db.catalog.index(self._primary_index)
        index = self.db.index_object(index_descriptor, txn)
        return index.search(key_value)

    def _indexes(self, descriptor: RelationDescriptor) -> list:
        """The descriptors of the relation's indexes, resolved by name."""
        return [self.db.catalog.index(name) for name in descriptor.index_names]

    def _resident_partition(self, segment_id: int, number: int) -> Partition:
        """The partition, looked up once when resident; otherwise through
        :meth:`Database.ensure_partition`, which recovers it on demand."""
        partition = self.db.memory.segment(segment_id).resident(number)
        if partition is None:
            return self.db.ensure_partition(PartitionAddress(segment_id, number))
        return partition

    @staticmethod
    def _row(schema, partition: Partition, address: EntityAddress, cells: list[int]) -> Row:
        """The row a tuple's decoded cells spell, heap strings fetched."""
        values: dict[str, int | str | bytes | None] = {}
        for field, cell in zip(schema.fields, cells):
            if field.type is FieldType.INT:
                values[field.name] = cell
            elif cell == NULL_HANDLE:
                values[field.name] = None
            else:
                raw = partition.heap.get(cell)
                values[field.name] = (
                    raw.decode("utf-8") if field.type is FieldType.STR else raw
                )
        return _new_row((address, values))

    @staticmethod
    def _to_bytes(field_type: FieldType, value) -> bytes:
        if field_type is FieldType.STR:
            return str(value).encode("utf-8")
        return bytes(value)
