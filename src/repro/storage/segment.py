"""Logical segments: one per database object.

A segment is an ordered collection of fixed-size partitions.  Segments for
relations hold tuple partitions; segments for indexes hold index-component
partitions; catalog segments hold the system's own metadata (paper
section 2).

After a crash a segment may be only *partially* resident: recovery
restores partitions one at a time, and :meth:`Segment.get` distinguishes
"never existed" from "exists but not yet recovered" so the transaction
manager can schedule recovery transactions (section 2.5).
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.common.errors import NotResidentError, StorageError
from repro.common.types import PartitionAddress, SegmentKind
from repro.storage.partition import Partition


class Segment:
    """An ordered set of partitions belonging to one database object."""

    def __init__(
        self,
        segment_id: int,
        kind: SegmentKind,
        name: str,
        partition_size: int,
        heap_fraction: float = 0.25,
    ):
        self.segment_id = segment_id
        self.kind = kind
        self.name = name
        self.partition_size = partition_size
        self.heap_fraction = heap_fraction
        self._partitions: dict[int, Partition] = {}
        self._next_partition = 1
        #: Partition numbers that exist in the catalog but are not resident;
        #: populated after a crash, drained as recovery proceeds.
        self._missing: set[int] = set()
        #: Guards partition-number allocation and the resident/missing
        #: maps.  Concurrent transactions growing the same relation (and
        #: parallel phase-2 installs) would otherwise race the monotone
        #: ``_next_partition`` counter.  Leaf mutex below the 2PL locks;
        #: the Partition constructor runs inside it but takes no locks.
        self._mutex = threading.RLock()

    # -- allocation -------------------------------------------------------------

    def fresh_partition_capacities(self) -> tuple[int, int]:
        """(entity capacity, heap capacity) a newly allocated partition
        would have — for fit checks *before* allocating, so oversized
        requests never leave an orphaned empty partition behind."""
        heap_capacity = int(self.partition_size * self.heap_fraction)
        return self.partition_size - heap_capacity, heap_capacity

    def allocate_partition(self) -> Partition:
        """Create the next partition of this segment.

        Lock discipline: the caller holds an IX (or stronger) lock on the
        owning relation; concurrent checkpointers are excluded by their
        relation read lock (section 2.4, step 3).  Number allocation and
        installation are atomic under the segment's internal mutex —
        IX locks do not exclude other IX holders allocating concurrently.
        """
        with self._mutex:
            number = self._next_partition
            self._next_partition += 1
            partition = Partition(
                PartitionAddress(self.segment_id, number),
                self.partition_size,
                self.heap_fraction,
            )
            self._partitions[number] = partition
            return partition

    def install(self, partition: Partition) -> None:
        """Install a recovered partition (post-crash path).

        Lock discipline: recovery transactions own the partition
        exclusively until it is installed here, and normal transactions
        cannot see it before installation (section 2.5); the map update
        runs under the segment's internal mutex so parallel phase-2
        installs into one segment do not tear the residency maps.
        """
        if partition.address.segment != self.segment_id:
            raise StorageError(
                f"partition {partition.address} does not belong to segment "
                f"{self.segment_id}"
            )
        number = partition.address.partition
        with self._mutex:
            self._partitions[number] = partition
            self._missing.discard(number)
            if number >= self._next_partition:
                self._next_partition = number + 1

    def discard(self, number: int) -> None:
        """Forget a partition whose allocation was rolled back.  Its number
        is not reused: like entity offsets, numbers only grow.

        Lock discipline: the aborting transaction still holds the IX lock
        it allocated under; the map update runs under the segment's
        internal mutex like every other residency change.
        """
        with self._mutex:
            del self._partitions[number]

    def mark_missing(self, numbers: list[int]) -> None:
        """Record partitions known to the catalog but not yet recovered.

        Lock discipline: runs during restart phase 1, before any user
        transaction (or lock manager) exists; takes the internal mutex
        anyway so the maps are never updated unguarded.
        """
        with self._mutex:
            self._missing.update(numbers)
            for number in numbers:
                if number >= self._next_partition:
                    self._next_partition = number + 1

    def evict_all(self) -> None:
        """Drop every resident partition (crash simulation).

        Lock discipline: models the loss of main memory itself; the lock
        tables vanish in the same instant (they are volatile).  Taken
        under the internal mutex so a crash never tears the maps.
        """
        with self._mutex:
            self._missing.update(self._partitions)
            self._partitions.clear()

    # -- access -----------------------------------------------------------------

    def get(self, number: int) -> Partition:
        """Fetch a resident partition.

        Raises :class:`NotResidentError` for partitions awaiting recovery —
        callers react by scheduling a recovery transaction (section 2.5,
        access method 2) — and :class:`StorageError` for numbers that never
        existed.
        """
        partition = self._partitions.get(number)
        if partition is not None:
            return partition
        if number in self._missing:
            raise NotResidentError(
                f"partition {PartitionAddress(self.segment_id, number)} is not "
                f"memory-resident",
                partitions=(PartitionAddress(self.segment_id, number),),
            )
        raise StorageError(
            f"segment {self.segment_id} has no partition {number}"
        )

    def is_resident(self, number: int) -> bool:
        return number in self._partitions

    def resident_partitions(self) -> Iterator[Partition]:
        for number in sorted(self._partitions):
            yield self._partitions[number]

    def partition_numbers(self) -> list[int]:
        """All partition numbers, resident or missing."""
        return sorted(set(self._partitions) | self._missing)

    def missing_partitions(self) -> list[int]:
        return sorted(self._missing)

    @property
    def fully_resident(self) -> bool:
        return not self._missing

    def __len__(self) -> int:
        return len(self._partitions) + len(self._missing)

    def __repr__(self) -> str:
        return (
            f"Segment(id={self.segment_id}, kind={self.kind.value}, "
            f"name={self.name!r}, resident={len(self._partitions)}, "
            f"missing={len(self._missing)})"
        )
