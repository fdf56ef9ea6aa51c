"""Core vocabulary types: addresses, LSNs, transaction ids.

The paper's memory organisation (section 2) names entities by a triple
(Segment Number, Partition Number, Partition Offset).  We model those three
levels with :class:`PartitionAddress` and :class:`EntityAddress`.

Log sequence numbers are plain integers; ``NULL_LSN`` (``-1``) denotes
"no log page yet".
"""

from __future__ import annotations

from typing import NamedTuple, NewType

TransactionId = NewType("TransactionId", int)

#: Sentinel LSN meaning "no page has been written".
NULL_LSN = -1


class PartitionAddress(NamedTuple):
    """Stable name of one partition: (segment number, partition number).

    The address is attached to every log page written for the partition and
    is checked during recovery (paper section 2.3.3, "Partition Address").
    A tuple, so hashing and comparing it — the lock table, the bin lookup
    and the node cache do so on every change — run in C; it equals the
    plain tuple of its fields.
    """

    segment: int
    partition: int

    def __str__(self) -> str:
        return f"S{self.segment}.P{self.partition}"


class EntityAddress(NamedTuple):
    """Memory address of a database entity: a tuple or an index component.

    Entities never cross partition boundaries, so (segment, partition,
    offset) uniquely names one entity for the life of the partition.  A
    tuple, like :class:`PartitionAddress`.
    """

    segment: int
    partition: int
    offset: int

    @property
    def partition_address(self) -> PartitionAddress:
        return PartitionAddress(self.segment, self.partition)

    def __str__(self) -> str:
        return f"S{self.segment}.P{self.partition}+{self.offset}"
