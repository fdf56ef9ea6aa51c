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
from typing import Callable, Iterator

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
        #: Serialises this segment's growth (``Database.grow_segment``)
        #: and every other rewrite of its catalog descriptor that growth
        #: can meet, each from the change to *its* commit: two rewrites of
        #: one descriptor reach the log in the order they were made, and
        #: neither's after-image carries the other's uncommitted change.
        #: Taken below the 2PL relation locks, above all a commit takes.
        self.structure_mutex = threading.RLock()

    # -- allocation -------------------------------------------------------------

    def fresh_partition_capacities(self) -> tuple[int, int]:
        """(entity capacity, heap capacity) a newly allocated partition
        would have — for fit checks *before* allocating, so oversized
        requests never leave an orphaned empty partition behind."""
        heap_capacity = int(self.partition_size * self.heap_fraction)
        return self.partition_size - heap_capacity, heap_capacity

    def new_partition(self) -> Partition:
        """Reserve the next partition number and build its partition, not
        yet installed: nothing is placed in it until :meth:`install`, which
        a growth calls once committed.  Numbers only grow (a failed
        growth's is not reused).

        Lock discipline: the caller holds :attr:`structure_mutex`; the
        number is taken under the internal mutex, as phase-2 installs do.
        """
        with self._mutex:
            number = self._next_partition
            self._next_partition += 1
        return Partition(
            PartitionAddress(self.segment_id, number),
            self.partition_size,
            self.heap_fraction,
        )

    def allocate_partition(self) -> Partition:
        """:meth:`new_partition` installed at once — a segment outside any
        database.  Lock discipline: as :meth:`new_partition`."""
        partition = self.new_partition()
        self.install(partition)
        return partition

    def first_fit(self, fits: Callable[[Partition], bool]) -> Partition | None:
        """The lowest-numbered resident partition ``fits`` accepts."""
        return next(filter(fits, self.resident_partitions()), None)

    def install(self, partition: Partition) -> None:
        """Install a recovered partition (post-crash path), or a new one
        whose growth just committed.

        Lock discipline: recovery transactions (and a growth) own the
        partition exclusively until it is installed here, and normal
        transactions cannot see it before installation (section 2.5); the map update
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
