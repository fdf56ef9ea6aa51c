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

from bisect import bisect_left
from typing import Callable, Iterator

from repro.common.errors import NotResidentError, PartitionFullError, StorageError
from repro.common.types import PartitionAddress
from repro.storage.partition import Partition, split_capacity


class Segment:
    """An ordered set of partitions belonging to one database object."""

    def __init__(self, segment_id: int, name: str, partition_size: int):
        self.segment_id = segment_id
        self.name = name
        self.partition_size = partition_size
        self._partitions: dict[int, Partition] = {}
        #: The same partitions in number order, kept by :meth:`install` and
        #: :meth:`evict_all`, so a placement scans without sorting.
        self._in_order: list[Partition] = []
        self._next_partition = 1
        #: Partition numbers that exist in the catalog but are not resident;
        #: populated after a crash, drained as recovery proceeds.
        self._missing: set[int] = set()

    # -- allocation -------------------------------------------------------------

    def new_partition(self) -> Partition:
        """Reserve the next partition number and build its partition, not
        yet installed: nothing is placed in it until :meth:`install`, which
        a growth calls once committed.  Numbers only grow (a failed
        growth's is not reused).

        Lock discipline: none — no transaction can reach the partition
        before :meth:`install`.
        """
        number = self._next_partition
        self._next_partition += 1
        return Partition(PartitionAddress(self.segment_id, number), self.partition_size)

    def allocate_partition(self) -> Partition:
        """:meth:`new_partition` installed at once — a segment outside any
        database.  Lock discipline: as :meth:`new_partition`."""
        partition = self.new_partition()
        self.install(partition)
        return partition

    def place(
        self,
        fits: Callable[[Partition], bool],
        grow: Callable[["Segment", Callable[[Partition], bool]], Partition] | None,
        entity_need: int,
        heap_need: int = 0,
    ) -> Partition:
        """The lowest-numbered resident partition ``fits`` accepts, else a
        new one from ``grow(self, fits)`` (a change sink's ``grow_segment``;
        with none, :meth:`allocate_partition`).  A request a fresh
        partition cannot hold — ``entity_need`` bytes of entities,
        ``heap_need`` of strings — is refused first, so it leaves no empty
        partition behind.

        Lock discipline: none of its own.  It changes the segment only by
        growing it, and no transaction reaches a new partition before it
        is installed."""
        partition = next(filter(fits, self._in_order), None)
        if partition is not None:
            return partition
        entity_capacity, heap_capacity = split_capacity(self.partition_size)
        if entity_need > entity_capacity or heap_need > heap_capacity:
            raise PartitionFullError(
                f"{entity_need}B of entity and {heap_need}B of strings exceed a fresh "
                f"partition of {self.name!r} ({entity_capacity}B + {heap_capacity}B)"
            )
        return self.allocate_partition() if grow is None else grow(self, fits)

    def install(self, partition: Partition) -> None:
        """Install a recovered partition (post-crash path), or a new one
        whose growth just committed.

        Lock discipline: recovery transactions (and a growth) own the
        partition exclusively until it is installed here, and normal
        transactions cannot see it before installation (section 2.5).
        """
        if partition.address.segment != self.segment_id:
            raise StorageError(
                f"partition {partition.address} does not belong to segment "
                f"{self.segment_id}"
            )
        number = partition.address.partition
        in_order = self._in_order
        position = bisect_left(in_order, number, key=_number)
        if number in self._partitions:
            in_order[position] = partition
        else:
            in_order.insert(position, partition)
        self._partitions[number] = partition
        self._missing.discard(number)
        if number >= self._next_partition:
            self._next_partition = number + 1

    def mark_missing(self, numbers: list[int]) -> None:
        """Record partitions known to the catalog but not yet recovered.

        Lock discipline: runs during restart phase 1, before any user
        transaction (or lock manager) exists.
        """
        self._missing.update(numbers)
        for number in numbers:
            if number >= self._next_partition:
                self._next_partition = number + 1

    def evict_all(self) -> None:
        """Drop every resident partition (crash simulation): the loss of
        main memory itself; the lock tables vanish in the same instant."""
        self._missing.update(self._partitions)
        self._partitions.clear()
        self._in_order.clear()

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

    def resident(self, number: int) -> Partition | None:
        """The partition if it is resident, else ``None``: one lookup,
        no error for a missing or unknown number."""
        return self._partitions.get(number)

    def resident_partitions(self) -> Iterator[Partition]:
        """The resident partitions in number order, as they stood when called."""
        return iter(tuple(self._in_order))

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
            f"Segment(id={self.segment_id}, name={self.name!r}, "
            f"resident={len(self._partitions)}, missing={len(self._missing)})"
        )


def _number(partition: Partition) -> int:
    return partition.address.partition
