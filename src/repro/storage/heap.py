"""Per-partition string space.

Long variable-length values (strings) are stored in a heap region inside
the partition, with the owning tuple holding only a handle.  The paper
notes that this space "is managed as a heap and is not locked in a
two-phase manner", which is why relation log records are *operation* log
records (section 2.3.2): REDO re-executes the heap operation rather than
restoring bytes at a fixed offset.

Handle allocation is a deterministic monotone counter, so replaying the
same operations in the same (commit) order reproduces the same handles —
the property partition-level REDO recovery relies on.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.common.errors import PartitionFullError, StorageError
from repro.storage.entries import ENTRY_CHARGE_BYTES, STRING_ENTRY, decode_entries, encode_entries

_BLOB_HEADER = struct.Struct("<III")  # next_handle, count, used_bytes; then the strings


class StringHeap:
    """A capacity-bounded heap of immutable byte strings."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes cannot be negative")
        self.capacity_bytes = capacity_bytes
        self._strings: dict[int, bytes] = {}
        self._next_handle = 1
        self._used = 0

    # -- operations ---------------------------------------------------------

    def put(self, data: bytes) -> int:
        """Store ``data`` and return its handle."""
        charge = len(data) + ENTRY_CHARGE_BYTES
        if self._used + charge > self.capacity_bytes:
            raise PartitionFullError(
                f"string heap full: {self._used} + {charge} > {self.capacity_bytes}"
            )
        handle = self._next_handle
        self.put_at(handle, data)
        return handle

    def put_at(self, handle: int, data: bytes) -> None:
        """Install ``data`` under a specific handle.

        Normal operation allocates through :meth:`put`; recovery (REDO
        replay and UNDO of a delete) reinstalls the handle recorded in the
        log so recovered state is identical even when aborted transactions
        consumed intervening handles.  Not capped, unlike :meth:`put`: a
        replay puts back what was there.
        """
        if handle in self._strings:
            raise StorageError(f"string heap handle {handle} is occupied")
        self._strings[handle] = bytes(data)
        self._used += len(data) + ENTRY_CHARGE_BYTES
        if handle >= self._next_handle:
            self._next_handle = handle + 1

    def get(self, handle: int) -> bytes:
        try:
            return self._strings[handle]
        except KeyError:
            raise StorageError(f"string heap has no handle {handle}") from None

    def delete(self, handle: int) -> None:
        data = self.get(handle)
        del self._strings[handle]
        self._used -= len(data) + ENTRY_CHARGE_BYTES

    def replace(self, handle: int, data: bytes) -> None:
        """Overwrite the string stored at ``handle`` in place."""
        old = self.get(handle)
        charge_delta = len(data) - len(old)
        if self._used + charge_delta > self.capacity_bytes:
            raise PartitionFullError("string heap full on replace")
        self._strings[handle] = bytes(data)
        self._used += charge_delta

    # -- inspection -----------------------------------------------------------

    def __contains__(self, handle: int) -> bool:
        return handle in self._strings

    def __len__(self) -> int:
        return len(self._strings)

    def handles(self) -> Iterator[int]:
        return iter(sorted(self._strings))

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return max(0, self.capacity_bytes - self._used)

    # -- serialisation (checkpoint images) --------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise for inclusion in a partition checkpoint image."""
        header = _BLOB_HEADER.pack(self._next_handle, len(self._strings), self._used)
        return b"".join([header, *encode_entries(self._strings, STRING_ENTRY)])

    @classmethod
    def from_bytes(cls, blob: bytes, capacity_bytes: int) -> "StringHeap":
        """Rebuild a heap from a checkpoint image; :class:`StorageError`
        unless its strings end exactly where ``blob`` does."""
        if len(blob) < _BLOB_HEADER.size:
            raise StorageError(f"{len(blob)}-byte string heap image has no header")
        heap = cls(capacity_bytes)
        next_handle, count, used = _BLOB_HEADER.unpack_from(blob, 0)
        try:
            heap._strings, end = decode_entries(blob, _BLOB_HEADER.size, count, STRING_ENTRY)
        except StorageError as exc:
            raise StorageError(f"string heap image: {exc}") from None
        if end != len(blob):
            raise StorageError(
                f"string heap image: its {count} strings end at byte {end}, "
                f"the image at {len(blob)}"
            )
        heap._next_handle = next_handle
        heap._used = used
        return heap
