"""Volatile UNDO records.

UNDO log records live only in the volatile UNDO space (section 2.3.1):
they are never written to stable memory or disk, because uncommitted data
is never allowed to reach the stable disk database.  At commit the chain
is discarded; at abort it is applied in reverse order while main memory is
still intact.

Each record carries the *before* state needed to reverse one operation.
Index components hold physical before-images — safe because components
are two-phase locked until commit (section 2.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.types import EntityAddress, PartitionAddress
from repro.storage.memory_manager import MemoryManager


@dataclass(frozen=True, slots=True)
class UndoRecord:
    """Base class for UNDO records."""

    def apply(self, memory: MemoryManager) -> None:
        raise NotImplementedError

    @property
    def size_bytes(self) -> int:
        """Approximate volatile-space charge for this record."""
        return 24


@dataclass(frozen=True, slots=True)
class UndoTupleInsert(UndoRecord):
    address: EntityAddress

    def apply(self, memory: MemoryManager) -> None:
        memory.partition(self.address.partition_address).delete(self.address.offset)


@dataclass(frozen=True, slots=True)
class UndoTupleUpdate(UndoRecord):
    address: EntityAddress
    before: bytes

    def apply(self, memory: MemoryManager) -> None:
        memory.partition(self.address.partition_address).update(
            self.address.offset, self.before
        )

    @property
    def size_bytes(self) -> int:
        return 24 + len(self.before)


@dataclass(frozen=True, slots=True)
class UndoTupleDelete(UndoRecord):
    address: EntityAddress
    before: bytes

    def apply(self, memory: MemoryManager) -> None:
        memory.partition(self.address.partition_address).insert_at(
            self.address.offset, self.before
        )

    @property
    def size_bytes(self) -> int:
        return 24 + len(self.before)


@dataclass(frozen=True, slots=True)
class UndoFieldPatch(UndoRecord):
    address: EntityAddress
    start: int
    before: bytes

    def apply(self, memory: MemoryManager) -> None:
        partition = memory.partition(self.address.partition_address)
        current = partition.read(self.address.offset)
        end = self.start + len(self.before)
        partition.update(
            self.address.offset,
            current[: self.start] + self.before + current[end:],
        )

    @property
    def size_bytes(self) -> int:
        return 24 + len(self.before)


@dataclass(frozen=True, slots=True)
class UndoHeapPut(UndoRecord):
    partition: PartitionAddress
    handle: int

    def apply(self, memory: MemoryManager) -> None:
        memory.partition(self.partition).heap.delete(self.handle)


@dataclass(frozen=True, slots=True)
class UndoHeapReplace(UndoRecord):
    partition: PartitionAddress
    handle: int
    before: bytes

    def apply(self, memory: MemoryManager) -> None:
        memory.partition(self.partition).heap.replace(self.handle, self.before)

    @property
    def size_bytes(self) -> int:
        return 24 + len(self.before)


@dataclass(frozen=True, slots=True)
class UndoHeapDelete(UndoRecord):
    partition: PartitionAddress
    handle: int
    before: bytes

    def apply(self, memory: MemoryManager) -> None:
        memory.partition(self.partition).heap.put_at(self.handle, self.before)

    @property
    def size_bytes(self) -> int:
        return 24 + len(self.before)


@dataclass(frozen=True, slots=True)
class UndoIndexNodeWrite(UndoRecord):
    """Restore an index component's before-image (or remove it if the
    component was created by the aborting transaction)."""

    address: EntityAddress
    before: bytes | None

    def apply(self, memory: MemoryManager) -> None:
        partition = memory.partition(self.address.partition_address)
        if self.before is None:
            if self.address.offset in partition:
                partition.delete(self.address.offset)
        elif self.address.offset in partition:
            partition.update(self.address.offset, self.before)
        else:
            partition.insert_at(self.address.offset, self.before)

    @property
    def size_bytes(self) -> int:
        return 24 + (len(self.before) if self.before is not None else 0)


@dataclass(frozen=True, slots=True)
class UndoIndexNodeFree(UndoRecord):
    """Reinstate an index component freed by the aborting transaction."""

    address: EntityAddress
    before: bytes

    def apply(self, memory: MemoryManager) -> None:
        memory.partition(self.address.partition_address).insert_at(
            self.address.offset, self.before
        )

    @property
    def size_bytes(self) -> int:
        return 24 + len(self.before)


@dataclass(frozen=True, slots=True)
class UndoPartitionAllocated(UndoRecord):
    """Take back a segment growth of the aborting transaction.

    Logged *before* the catalog update that records the partition, so by
    the time it applies every entity the transaction placed there is gone
    and the descriptor's bytes are restored; ``release`` drops what bytes
    do not cover — the decoded descriptor entry, the resident partition
    and its Stable Log Tail bin (:meth:`Database.release_partition`).
    """

    address: PartitionAddress
    release: Callable[[PartitionAddress], None]

    def apply(self, memory: MemoryManager) -> None:
        self.release(self.address)
