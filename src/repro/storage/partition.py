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

from repro.common.errors import PartitionFullError, StorageError
from repro.common.types import PartitionAddress
from repro.storage.heap import StringHeap

#: Per-entity bookkeeping charge, in bytes (offset + length + type slot).
ENTITY_HEADER_BYTES = 8

#: Fraction of a partition's capacity reserved for the string heap.
DEFAULT_HEAP_FRACTION = 0.25

_IMAGE_HEADER = struct.Struct("<iiQIIII")
# segment, partition, next_offset, entity_count, entity_used,
# entity_capacity, heap_blob_length
_ENTRY_HEADER = struct.Struct("<QI")  # offset, length


class Partition:
    """One fixed-size partition of a segment."""

    def __init__(
        self,
        address: PartitionAddress,
        capacity_bytes: int,
        heap_fraction: float = DEFAULT_HEAP_FRACTION,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0.0 <= heap_fraction < 1.0:
            raise ValueError("heap_fraction must be in [0, 1)")
        self.address = address
        self.capacity_bytes = capacity_bytes
        heap_capacity = int(capacity_bytes * heap_fraction)
        self.entity_capacity = capacity_bytes - heap_capacity
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
        charge = len(data) + ENTITY_HEADER_BYTES
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
        self._used += len(data) + ENTITY_HEADER_BYTES
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
        old = self.read(offset)
        self._entities[offset] = bytes(data)
        self._used += len(data) - len(old)

    def delete(self, offset: int) -> None:
        """Remove the entity at ``offset``.

        Lock discipline: the caller holds an X lock on the entity, or S/X
        on its relation, two-phase until commit (section 2.3.2).
        """
        data = self.read(offset)
        del self._entities[offset]
        self._used -= len(data) + ENTITY_HEADER_BYTES

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
        parts = [
            _IMAGE_HEADER.pack(
                self.address.segment,
                self.address.partition,
                self._next_offset,
                len(self._entities),
                self._used,
                self.entity_capacity,
                len(heap_blob),
            )
        ]
        for offset in sorted(self._entities):
            data = self._entities[offset]
            parts.append(_ENTRY_HEADER.pack(offset, len(data)))
            parts.append(data)
        parts.append(heap_blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(
        cls,
        blob: bytes,
        expected_address: PartitionAddress | None = None,
        heap_fraction: float = DEFAULT_HEAP_FRACTION,
    ) -> "Partition":
        """Rebuild a partition from a checkpoint image.

        ``expected_address`` enables the consistency check the paper
        performs with the partition address stamped on recovery data
        (section 2.3.3): a mismatch raises :class:`StorageError`.
        """
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
        if expected_address is not None and address != expected_address:
            raise StorageError(
                f"checkpoint image is for {address}, expected {expected_address}"
            )
        heap_capacity = int(entity_capacity / (1.0 - heap_fraction) * heap_fraction)
        instance = cls.__new__(cls)
        instance.address = address
        instance.entity_capacity = entity_capacity
        instance.capacity_bytes = entity_capacity + heap_capacity
        instance._entities = {}
        instance.bin_index = None
        pos = _IMAGE_HEADER.size
        for _ in range(count):
            offset, length = _ENTRY_HEADER.unpack_from(blob, pos)
            pos += _ENTRY_HEADER.size
            instance._entities[offset] = blob[pos : pos + length]
            pos += length
        instance._next_offset = next_offset
        instance._used = used
        instance.heap = StringHeap.from_bytes(blob[pos : pos + heap_len], heap_capacity)
        return instance

    def __repr__(self) -> str:
        return (
            f"Partition({self.address}, entities={len(self._entities)}, "
            f"used={self._used}/{self.entity_capacity})"
        )
