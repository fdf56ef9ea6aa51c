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

import json
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

from repro.common.errors import LogError
from repro.common.types import PartitionAddress
from repro.sim.stable_memory import StableMemory
from repro.wal.log_disk import LogDisk, LogPage

#: The owner an audit page carries, its segment marking it apart from
#: REDO and archive pages: a log page like any other, its body audit
#: entries, opaque to the REDO machinery.
AUDIT_OWNER = PartitionAddress(-2, 0)

_ENTRY_HEADER = struct.Struct("<I")


def _encode(txn_id: int, event: str, timestamp: float, user_data: str) -> bytes:
    """One entry's bytes: a ``u32`` length, then what ``json.dumps({...},
    sort_keys=True)`` writes, filled into its fixed key order directly.
    The byte count at append, the reload sum and the page flush all read
    these same bytes."""
    body = (
        f'{{"at": {float.__repr__(timestamp)}, "event": {_json_str(event)}, '
        f'"txn": {int.__repr__(txn_id)}, "user": {_json_str(user_data)}}}'
    ).encode("ascii")
    return _ENTRY_HEADER.pack(len(body)) + body


@dataclass(frozen=True)
class AuditEntry:
    """One audit record: what started/finished, when, on whose behalf.

    Built only when the trail is read: the log itself holds bytes."""

    txn_id: int
    event: str  # "begin" | "commit" | "abort" | application-defined
    timestamp: float  # simulated seconds
    user_data: str = ""

    def __post_init__(self) -> None:
        # Serialised once, at construction.
        encoded = _encode(self.txn_id, self.event, self.timestamp, self.user_data)
        object.__setattr__(self, "_encoded", encoded)

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


def _decode_all(body: bytes) -> list[AuditEntry]:
    """Every entry of a run of encoded entries, in order."""
    entries = []
    cursor = 0
    while cursor < len(body):
        entry, cursor = AuditEntry.decode(body, cursor)
        entries.append(entry)
    return entries


class AuditLog:
    """Stable-memory audit buffer with lazy page-sized disk flushes.

    The buffer lives in stable memory, so committed audit entries survive
    a crash even before they reach the disk.  It holds each entry's
    encoded bytes; :class:`AuditEntry` objects are made only by the
    readers.
    """

    STABLE_KEY = "audit-buffer"

    def __init__(self, stable: StableMemory, log_disk: LogDisk, page_size: int):
        if page_size <= 0:
            raise LogError("audit page size must be positive")
        self.log_disk = log_disk
        self.page_size = page_size
        self.entries_written = 0
        self.pages_flushed = 0
        if self.STABLE_KEY in stable:
            self._buffer: list[bytes] = stable.load(self.STABLE_KEY)
        else:
            self._buffer = []
            stable.allocate(self.STABLE_KEY, page_size * 2, self._buffer)
        self._buffer_bytes = sum(map(len, self._buffer))
        #: LSNs of flushed audit pages, newest last (kept in stable memory
        #: alongside the buffer so the trail remains discoverable).
        self._page_lsns_key = "audit-page-lsns"
        if self._page_lsns_key in stable:
            self._page_lsns: list[int] = stable.load(self._page_lsns_key)
        else:
            self._page_lsns = []
            stable.allocate(self._page_lsns_key, 4096, self._page_lsns)

    # -- writing ---------------------------------------------------------------

    def record(self, txn_id: int, event: str, timestamp: float, user_data: str = "") -> None:
        """Append one entry's bytes; flushes a page when the buffer fills."""
        entry = _encode(txn_id, event, timestamp, user_data)
        self._buffer.append(entry)
        self._buffer_bytes += len(entry)
        self.entries_written += 1
        if self._buffer_bytes >= self.page_size:
            self.flush()

    def flush(self) -> int | None:
        """Write the buffered entries to the log disk as one audit page.

        Returns the page's LSN, or None when the buffer was empty.
        """
        if not self._buffer:
            return None
        body = b"".join(self._buffer)
        lsn = self.log_disk.append_page(LogPage(AUDIT_OWNER, body))
        self._page_lsns.append(lsn)
        self._buffer.clear()
        self._buffer_bytes = 0
        self.pages_flushed += 1
        return lsn

    # -- reading -----------------------------------------------------------------

    def pending_entries(self) -> list[AuditEntry]:
        """Entries still in stable memory, not yet flushed."""
        return _decode_all(b"".join(self._buffer))

    def read_page(self, lsn: int) -> list[AuditEntry]:
        return _decode_all(self.log_disk.read_page(lsn, expected=AUDIT_OWNER).body)

    def trail(self) -> list[AuditEntry]:
        """The full audit trail: flushed pages (oldest first) + buffer."""
        entries: list[AuditEntry] = []
        for lsn in self._page_lsns:
            entries.extend(self.read_page(lsn))
        entries.extend(self.pending_entries())
        return entries

    def entries_for(self, txn_id: int) -> list[AuditEntry]:
        return [entry for entry in self.trail() if entry.txn_id == txn_id]
