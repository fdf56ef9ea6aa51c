"""Volatile memory manager: segment and partition allocation.

The memory manager owns every segment in main memory and hands out
segment ids.  It is entirely volatile: :meth:`MemoryManager.crash` models
the loss of main memory, after which segments must be re-registered from
the recovered catalogs and partitions re-installed one at a time.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import StorageError
from repro.common.types import PartitionAddress
from repro.storage.partition import Partition
from repro.storage.segment import Segment


class MemoryManager:
    """Allocator and directory for all in-memory segments."""

    def __init__(self, partition_size: int):
        if partition_size <= 0:
            raise ValueError("partition_size must be positive")
        self.partition_size = partition_size
        self._segments: dict[int, Segment] = {}
        self._next_segment = 1

    # -- allocation -------------------------------------------------------------

    def create_segment(self, name: str) -> Segment:
        """Allocate a fresh segment for a new database object."""
        segment_id = self._next_segment
        self._next_segment += 1
        segment = Segment(segment_id, name, self.partition_size)
        self._segments[segment_id] = segment
        return segment

    def register_segment(self, segment_id: int, name: str) -> Segment:
        """Re-create a segment shell with a known id (post-crash path).

        The segment starts with no resident partitions; recovery marks the
        catalogued partition numbers missing and installs them as their
        recovery transactions complete.
        """
        if segment_id in self._segments:
            raise StorageError(f"segment {segment_id} is already registered")
        segment = Segment(segment_id, name, self.partition_size)
        self._segments[segment_id] = segment
        if segment_id >= self._next_segment:
            self._next_segment = segment_id + 1
        return segment

    def drop_segment(self, segment_id: int) -> None:
        self.segment(segment_id)  # raise if unknown
        del self._segments[segment_id]

    # -- access -----------------------------------------------------------------

    def segment(self, segment_id: int) -> Segment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise StorageError(f"no segment {segment_id}") from None

    def partition(self, address: PartitionAddress) -> Partition:
        """Resolve a partition address; raises NotResidentError post-crash."""
        return self.segment(address.segment).get(address.partition)

    def segments(self) -> Iterator[Segment]:
        for segment_id in sorted(self._segments):
            yield self._segments[segment_id]

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._segments

    # -- crash simulation -----------------------------------------------------------

    def crash(self) -> None:
        """Lose main memory: every segment and partition vanishes."""
        self._segments.clear()
        self._next_segment = 1

    # -- statistics -------------------------------------------------------------------

    def resident_partition_count(self) -> int:
        return sum(
            1 for seg in self._segments.values() for _ in seg.resident_partitions()
        )

    def resident_bytes(self) -> int:
        return sum(
            part.used_bytes + part.heap.used_bytes
            for seg in self._segments.values()
            for part in seg.resident_partitions()
        )
