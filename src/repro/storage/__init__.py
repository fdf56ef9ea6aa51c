"""Volatile memory organisation of the MM-DBMS (paper section 2).

Every database object — relation, index, or system structure — occupies its
own logical :class:`~repro.storage.segment.Segment`, composed of fixed-size
:class:`~repro.storage.partition.Partition` objects.  Entities (tuples and
index components) live inside partitions and never cross partition
boundaries; partitions are the unit of checkpoint transfer and of
post-crash recovery.

Everything in this package is *volatile*: a simulated crash discards it all
and recovery rebuilds it from checkpoint images plus the log.
"""

from repro.storage.entries import ENTRY_CHARGE_BYTES
from repro.storage.heap import StringHeap
from repro.storage.memory_manager import MemoryManager
from repro.storage.partition import Partition
from repro.storage.segment import Segment

__all__ = [
    "ENTRY_CHARGE_BYTES",
    "MemoryManager",
    "Partition",
    "Segment",
    "StringHeap",
]
