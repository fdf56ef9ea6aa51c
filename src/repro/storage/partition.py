"""Fixed-size partitions: the unit of storage, checkpointing and recovery.

A partition holds database *entities* (relation tuples or index
components) in a slotted area, plus a string-space heap for long values
(paper section 2).  Entities are named by a stable offset; entities never
move and never cross partition boundaries, so ``(segment, partition,
offset)`` identifies an entity for its whole life — which is exactly what
log records reference.

Offsets are allocated by a monotone counter and never reused.  This keeps
REDO replay deterministic: an insert log record carries the offset the
entity originally received, and replay installs it at that same offset.

The whole partition serialises to bytes (:meth:`Partition.to_bytes`) —
that byte image is what a checkpoint transaction writes to the checkpoint
disk, and what post-crash recovery reads back before applying the
partition's log pages.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.common.errors import LogError, PartitionFullError, StorageError
from repro.common.types import PartitionAddress
from repro.storage.entries import ENTITY_ENTRY, ENTRY_CHARGE_BYTES, decode_entries, encode_entries
from repro.storage.heap import StringHeap

#: A partition's string heap is ``capacity_bytes // HEAP_SHARE`` of its
#: bytes, the entities the rest (:func:`split_capacity`).
HEAP_SHARE = 4


def split_capacity(capacity_bytes: int) -> tuple[int, int]:
    """A ``capacity_bytes`` partition's ``(entity capacity, heap
    capacity)``: the one split, read by :class:`Partition` and
    :meth:`Segment.place <repro.storage.segment.Segment.place>`."""
    heap_capacity = capacity_bytes // HEAP_SHARE
    return capacity_bytes - heap_capacity, heap_capacity


_IMAGE_HEADER = struct.Struct("<iiQIIII")
# segment, partition, next_offset, entity_count, entity_used,
# entity_capacity, heap_blob_length; then the entities
# (:func:`~repro.storage.entries.encode_entries`), then the heap's blob

#: The primitive effects a REDO record class may name, each with whether
#: it carries ``data``: what applying one record does to the store it
#: keys — the entity area (by offset) or the string heap (by handle) —
#: stated once, in :meth:`Partition.apply_records`.  ``upsert`` and
#: ``remove`` tolerate a duplicate replay prefix in either store;
#: ``overwrite`` and ``patch`` need the entity.
EFFECTS = {"upsert": True, "overwrite": True, "patch": True, "remove": False, "none": False}

#: A record's store, as :meth:`Partition.apply_records` indexes its
#: per-store state: the entity area, or the string heap.
ENTITY_STORE, HEAP_STORE = 0, 1

#: ``(tag, value)`` that no record matches: :meth:`Partition.apply_records`
#: with no halt.
NO_HALT = (-1, 0)


class Partition:
    """One fixed-size partition of a segment."""

    def __init__(self, address: PartitionAddress, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.address = address
        self.capacity_bytes = capacity_bytes
        self.entity_capacity, heap_capacity = split_capacity(capacity_bytes)
        self.heap = StringHeap(heap_capacity)
        self._entities: dict[int, bytes] = {}
        self._next_offset = 1
        self._used = 0
        #: Index into the Stable Log Tail's partition bin table; maintained
        #: here because the paper keeps the bin index in the partition's
        #: control information (section 2.3.2).
        self.bin_index: int | None = None

    # -- entity operations -------------------------------------------------------

    def insert(self, data: bytes) -> int:
        """Store a new entity; returns its offset.

        Lock discipline: the caller holds an X lock on the new entity, or
        S/X on its relation — an X lock there covers the entity, an S lock
        keeps every other writer out (section 2.3.2).
        """
        charge = len(data) + ENTRY_CHARGE_BYTES
        if self._used + charge > self.entity_capacity:
            raise PartitionFullError(
                f"{self.address} full: {self._used} + {charge} "
                f"> {self.entity_capacity}"
            )
        offset = self._next_offset
        self.insert_at(offset, data)
        return offset

    def insert_at(self, offset: int, data: bytes) -> None:
        """Install an entity at a specific offset (REDO replay path).

        Normal inserts go through :meth:`insert`; recovery re-applies the
        offset recorded in the log so replayed state is byte-identical.
        The capacity is :meth:`insert`'s rule, not this one's: a replay —
        REDO in commit order, or the UNDO of a free whose room a peer has
        used since — puts back what was there, in whatever order.

        Lock discipline: same as :meth:`insert` on the normal path; the
        replay path runs before the partition is published.
        """
        if offset in self._entities:
            raise StorageError(f"{self.address} offset {offset} is occupied")
        self._entities[offset] = bytes(data)
        self._used += len(data) + ENTRY_CHARGE_BYTES
        if offset >= self._next_offset:
            self._next_offset = offset + 1

    def read(self, offset: int) -> bytes:
        try:
            return self._entities[offset]
        except KeyError:
            raise StorageError(f"{self.address} has no entity at {offset}") from None

    def update(self, offset: int, data: bytes) -> None:
        """Overwrite the entity at ``offset`` in place.

        Updates may grow an entity past the partition's nominal capacity
        (tracked in :attr:`overflow_bytes`): entities never move, so a
        grown component — a hash bucket filling up, a directory chunk —
        must be accommodated where it lives.  Inserts stay hard-capped,
        which keeps partitions at their fixed size; the overflow is
        bounded by the largest single component's growth.

        Lock discipline: the caller holds an X lock on the entity, or S/X
        on its relation, two-phase until commit (section 2.3.2).
        """
        old = self._entities.get(offset) or self.read(offset)  # read() only raises
        self._entities[offset] = bytes(data)
        self._used += len(data) - len(old)

    def delete(self, offset: int) -> None:
        """Remove the entity at ``offset``.

        Lock discipline: the caller holds an X lock on the entity, or S/X
        on its relation, two-phase until commit (section 2.3.2).
        """
        data = self.read(offset)
        del self._entities[offset]
        self._used -= len(data) + ENTRY_CHARGE_BYTES

    # -- REDO and UNDO: one applier -------------------------------------------------

    def apply_records(
        self,
        body: bytes,
        table: dict[int, tuple],
        pos: int = 0,
        halt: tuple[int, int] = NO_HALT,
        own: bytes | None = None,
    ) -> tuple[int, int | None]:
        """Apply compact REDO records — ``body`` from byte offset ``pos``
        on, in order — with no call per record.

        ``table`` maps a record's tag to ``(operand unpacker, its width,
        effect, ends in data?, class name, store)``: the unpacker reads the
        operands after the record header — the key first (an entity
        offset or a heap handle), then the fixed fields, then the
        ``data`` length — the effect is one of :data:`EFFECTS` (``none``:
        nothing), and the store is the one the key names
        (:data:`ENTITY_STORE` or :data:`HEAP_STORE`).
        ``halt=(tag, value)`` stops the walk at the first record of that
        tag whose first operand is ``value`` or more: just past it when
        it is exactly ``value``, in front of it when more.  Returns
        ``(records applied, halt offset)``, ``None`` when the walk ran
        off the end; the halting record is not counted.

        ``own`` is a one-record body's ``data`` as an object, installed
        in place of its slice: UNDO puts back the very before-image it
        took, which :meth:`NodeStore.load
        <repro.index.node_store.NodeStore.load>` finds its cached form
        by.

        Each store's byte tally and next key live in locals for the walk
        and are written back in a ``finally``, so a record that raises
        leaves every record before it applied, and nothing of itself.

        Lock discipline: a restart applies before the partition is
        published; a transaction's UNDO holds the locks of the changes
        it takes back (section 2.3.2).
        """
        if type(body) is not bytes:  # entries are immutable ``bytes`` objects
            body = bytes(body)
        halt_tag, halt_value = halt
        heap = self.heap
        entities = self._entities
        stores = (entities, heap._strings)  # indexed by ENTITY_STORE, HEAP_STORE
        used = [self._used, heap._used]
        next_key = [self._next_offset, heap._next_handle]
        charge = ENTRY_CHARGE_BYTES
        count = 0
        size = len(body)
        try:
            while pos < size:
                tag = body[pos]
                entry = table.get(tag)
                if entry is None:
                    raise LogError(f"unknown log record tag {tag} at {pos}")
                unpack_from, width, effect, blob, name, store = entry
                try:
                    operands = unpack_from(body, pos)
                except struct.error as exc:
                    raise LogError(f"truncated {name} record at {pos}") from exc
                key = operands[0]
                if tag == halt_tag and key >= halt_value:
                    return count, pos if key > halt_value else pos + width
                pos += width
                if blob:
                    end = pos + operands[-1]
                    if end > size:
                        raise LogError(f"truncated {name} data at {pos}")
                    data = body[pos:end] if own is None else own
                    pos = end
                    if effect == "upsert":
                        # A replayed log may repeat a prefix the image
                        # already reflects: the last writer wins, uncapped
                        # (a replay puts back what was there), and a key
                        # is never reused.
                        keyed = stores[store]
                        old = keyed.get(key)
                        keyed[key] = data
                        if old is None:
                            used[store] += len(data) + charge
                            if key >= next_key[store]:
                                next_key[store] = key + 1
                        else:
                            used[store] += len(data) - len(old)
                    elif effect == "patch":
                        current = entities.get(key)
                        if current is None:
                            raise StorageError(f"{self.address} has no entity at {key}")
                        start = operands[1]
                        stop = start + len(data)
                        if stop > len(current):
                            raise LogError(
                                f"field patch [{start}:{stop}] exceeds tuple of "
                                f"{len(current)} bytes at {self.address} offset {key}"
                            )
                        # same length: the accounting does not move
                        entities[key] = current[:start] + data + current[stop:]
                    elif effect == "overwrite":
                        old = entities.get(key)
                        if old is None:
                            raise StorageError(f"{self.address} has no entity at {key}")
                        entities[key] = data
                        used[ENTITY_STORE] += len(data) - len(old)
                elif effect == "remove":
                    # tolerates a key already gone (duplicate prefix)
                    old = stores[store].pop(key, None)
                    if old is not None:
                        used[store] -= len(old) + charge
                count += 1
        finally:
            self._used, heap._used = used
            self._next_offset, heap._next_handle = next_key
        return count, None

    # -- inspection ----------------------------------------------------------------

    def __contains__(self, offset: int) -> bool:
        return offset in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def entities(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(offset, data)`` pairs in offset order."""
        for offset in sorted(self._entities):
            yield offset, self._entities[offset]

    def offsets(self) -> list[int]:
        return sorted(self._entities)

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return max(0, self.entity_capacity - self._used)

    @property
    def overflow_bytes(self) -> int:
        """Bytes past nominal capacity, from in-place entity growth."""
        return max(0, self._used - self.entity_capacity)

    @property
    def next_offset(self) -> int:
        return self._next_offset

    # -- serialisation (checkpoint images) -------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the partition into a checkpoint image.

        Lock discipline: the checkpoint transaction's relation S lock
        excludes writers (they hold IX).
        """
        heap_blob = self.heap.to_bytes()
        header = _IMAGE_HEADER.pack(
            self.address.segment,
            self.address.partition,
            self._next_offset,
            len(self._entities),
            self._used,
            self.entity_capacity,
            len(heap_blob),
        )
        entries = encode_entries(self._entities, ENTITY_ENTRY)
        return b"".join([header, *entries, heap_blob])

    @classmethod
    def from_bytes(
        cls, blob: bytes, expected_address: PartitionAddress, capacity_bytes: int
    ) -> "Partition":
        """Rebuild a ``capacity_bytes`` partition from a checkpoint image.

        ``expected_address`` is the consistency check the paper performs
        with the partition address stamped on recovery data (section
        2.3.3): a mismatch raises :class:`StorageError`, as does an image
        whose entity capacity is not that size's or whose entities and
        heap do not end exactly where it does, so restart takes the
        log-history fallback for it.
        """
        if len(blob) < _IMAGE_HEADER.size:
            raise StorageError(f"{len(blob)}-byte checkpoint image has no header")
        (
            segment,
            partition_no,
            next_offset,
            count,
            used,
            entity_capacity,
            heap_len,
        ) = _IMAGE_HEADER.unpack_from(blob, 0)
        address = PartitionAddress(segment, partition_no)
        if address != expected_address:
            raise StorageError(
                f"checkpoint image is for {address}, expected {expected_address}"
            )
        expected_capacity, heap_capacity = split_capacity(capacity_bytes)
        if entity_capacity != expected_capacity:
            raise StorageError(
                f"checkpoint image of {address} holds {entity_capacity} entity "
                f"bytes, not a {capacity_bytes}-byte partition's"
            )
        instance = cls.__new__(cls)
        instance.address = address
        instance.entity_capacity = entity_capacity
        instance.capacity_bytes = capacity_bytes
        instance.bin_index = None
        try:
            instance._entities, pos = decode_entries(
                blob, _IMAGE_HEADER.size, count, ENTITY_ENTRY
            )
        except StorageError as exc:
            raise StorageError(f"checkpoint image of {address}: {exc}") from None
        if pos + heap_len != len(blob):
            raise StorageError(
                f"checkpoint image of {address}: its entities and {heap_len}-byte "
                f"heap end at byte {pos + heap_len}, the image at {len(blob)}"
            )
        instance._next_offset = next_offset
        instance._used = used
        instance.heap = StringHeap.from_bytes(blob[pos:], heap_capacity)
        return instance

    def __repr__(self) -> str:
        return (
            f"Partition({self.address}, entities={len(self._entities)}, "
            f"used={self._used}/{self.entity_capacity})"
        )
