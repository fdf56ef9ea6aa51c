"""The audit trail log.

Section 2.3.2: "The logging component manages two logs: one log holds
regular audit trail data such as the contents of the message that
initiates the transaction, time of day, user data, etc., and the other
holds the REDO/UNDO information for the transaction.  The audit trail
log is managed in a manner described by DeWitt et al. and uses stable
memory."

Audit entries are appended to a stable-memory buffer at transaction
begin/commit/abort and flushed to the log disk in page-sized batches.
They are *not* used for database recovery — they answer "who did what
when" — so the flush is lazy and the recovery path only ever preserves
them (stable memory and disk both survive crashes).
"""

from __future__ import annotations

import functools
import json
import struct
import threading
from dataclasses import dataclass

from repro.common.errors import LogError
from repro.sim.stable_memory import StableMemory
from repro.wal.log_disk import LogDisk

#: Segment marker distinguishing audit pages from REDO/archive pages.
AUDIT_SEGMENT = -2

_ENTRY_HEADER = struct.Struct("<I")


@dataclass(frozen=True)
class AuditEntry:
    """One audit record: what started/finished, when, on whose behalf."""

    txn_id: int
    event: str  # "begin" | "commit" | "abort" | application-defined
    timestamp: float  # simulated seconds
    user_data: str = ""

    @functools.cached_property
    def _encoded(self) -> bytes:
        # Serialised once per entry: the byte count at append, the
        # reload sum and the page flush all read these same bytes.
        body = json.dumps(
            {
                "txn": self.txn_id,
                "event": self.event,
                "at": self.timestamp,
                "user": self.user_data,
            },
            sort_keys=True,
        ).encode("utf-8")
        return _ENTRY_HEADER.pack(len(body)) + body

    def encode(self) -> bytes:
        return self._encoded

    @classmethod
    def decode(cls, buf: bytes, pos: int) -> tuple["AuditEntry", int]:
        (length,) = _ENTRY_HEADER.unpack_from(buf, pos)
        pos += _ENTRY_HEADER.size
        doc = json.loads(buf[pos : pos + length].decode("utf-8"))
        entry = cls(doc["txn"], doc["event"], doc["at"], doc["user"])
        return entry, pos + length

    @property
    def size_bytes(self) -> int:
        return len(self._encoded)


class AuditLog:
    """Stable-memory audit buffer with lazy page-sized disk flushes.

    The buffer lives in stable memory, so committed audit entries survive
    a crash even before they reach the disk.

    Appends and flushes serialise on one internal mutex: concurrent
    scheduler workers record begin/commit/abort entries from any thread,
    and the buffer-append + byte-count + page-flush step must be atomic.
    Lock order: audit mutex → log-disk mutex (flush appends a page while
    holding it); nothing else nests inside.
    """

    STABLE_KEY = "audit-buffer"

    def __init__(self, stable: StableMemory, log_disk: LogDisk, page_size: int):
        if page_size <= 0:
            raise LogError("audit page size must be positive")
        self.log_disk = log_disk
        self.page_size = page_size
        self.entries_written = 0
        self.pages_flushed = 0
        self._mutex = threading.RLock()
        if self.STABLE_KEY in stable:
            self._buffer: list[AuditEntry] = stable.load(self.STABLE_KEY)
        else:
            self._buffer = []
            stable.allocate(self.STABLE_KEY, page_size * 2, self._buffer)
        self._buffer_bytes = sum(e.size_bytes for e in self._buffer)
        #: LSNs of flushed audit pages, newest last (kept in stable memory
        #: alongside the buffer so the trail remains discoverable).
        self._page_lsns_key = "audit-page-lsns"
        if self._page_lsns_key in stable:
            self._page_lsns: list[int] = stable.load(self._page_lsns_key)
        else:
            self._page_lsns = []
            stable.allocate(self._page_lsns_key, 4096, self._page_lsns)

    # -- writing ---------------------------------------------------------------

    def record(
        self, txn_id: int, event: str, timestamp: float, user_data: str = ""
    ) -> AuditEntry:
        """Append one entry; flushes a page when the buffer fills."""
        entry = AuditEntry(txn_id, event, timestamp, user_data)
        with self._mutex:
            self._buffer.append(entry)
            self._buffer_bytes += entry.size_bytes
            self.entries_written += 1
            if self._buffer_bytes >= self.page_size:
                self.flush()
        return entry

    def flush(self) -> int | None:
        """Write the buffered entries to the log disk as one audit page.

        Returns the page's LSN, or None when the buffer was empty.
        """
        with self._mutex:
            if not self._buffer:
                return None
            body = b"".join(entry.encode() for entry in self._buffer)
            lsn = self.log_disk.append_opaque_page(AUDIT_SEGMENT, body)
            self._page_lsns.append(lsn)
            self._buffer.clear()
            self._buffer_bytes = 0
            self.pages_flushed += 1
            return lsn

    # -- reading -----------------------------------------------------------------

    def pending_entries(self) -> list[AuditEntry]:
        """Entries still in stable memory, not yet flushed."""
        with self._mutex:
            return list(self._buffer)

    def read_page(self, lsn: int) -> list[AuditEntry]:
        body = self.log_disk.read_opaque_page(lsn, AUDIT_SEGMENT)
        entries = []
        cursor = 0
        while cursor < len(body):
            entry, cursor = AuditEntry.decode(body, cursor)
            entries.append(entry)
        return entries

    def trail(self) -> list[AuditEntry]:
        """The full audit trail: flushed pages (oldest first) + buffer."""
        with self._mutex:
            lsns = list(self._page_lsns)
            buffered = list(self._buffer)
        entries: list[AuditEntry] = []
        for lsn in lsns:
            entries.extend(self.read_page(lsn))
        entries.extend(buffered)
        return entries

    def entries_for(self, txn_id: int) -> list[AuditEntry]:
        return [entry for entry in self.trail() if entry.txn_id == txn_id]
