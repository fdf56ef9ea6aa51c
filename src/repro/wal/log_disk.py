"""The log disk: page-addressed REDO storage with a reusable log window.

Section 2.3.3: the available log space is constant and reused over time.
The *log window* is a fixed span of pages that slides forward as new pages
are written; active log information about to fall off the end forces an
age-triggered checkpoint (with a grace period between trigger and actual
reuse).  Pages that leave the window are handed to the archive component —
the paper rolls them to tape for media recovery; we keep them in an
in-memory :class:`ArchiveStore` so media-failure scenarios remain
exercisable.

Log pages are duplexed across two simulated disks (section 2.2) and carry
the owning partition's address as a consistency check plus, on the first
page of each directory group, the embedded directory of the previous group
(section 2.3.3, Figure 4).
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict

from repro.common.errors import LogError, LogWindowOverrunError
from repro.common.counters import Counters
from repro.common.types import NULL_LSN, PartitionAddress
from repro.sim.chaos import (
    crash_point,
    fault_point,
    register_crash_point,
    register_fault_point,
)
from repro.sim.disk import DuplexedDisk
from repro.sim.faults import IO_COUNTERS, RetryPolicy, run_with_retry

register_crash_point(
    "log-disk.append.before-write",
    "LSN assigned, page not yet on either spindle",
)
register_crash_point(
    "log-disk.append.after-write",
    "page durable on both spindles, window not yet advanced",
)
register_fault_point(
    "log-disk.write",
    "transient controller fault on a duplexed log-page write",
)
register_fault_point(
    "log-disk.read",
    "transient controller fault on a duplexed log-page read",
)
from repro.storage.partition import Partition
from repro.wal.records import RedoRecord, decode_records, replay_records

#: Partition segment value marking a mixed archive page (section 2.4: partial
#: bin pages are combined with other partitions' records into full pages).
ARCHIVE_SEGMENT = -1

_PAGE_HEADER = struct.Struct("<iiqHI")  # segment, partition, lsn, dir_len, body_len


def _split_page(blob: bytes) -> tuple[PartitionAddress, int, int, slice]:
    """A page blob's header: (owner, lsn, directory entries, body span).

    The embedded directory — ``<q`` per entry — sits between the header
    and the body."""
    segment, partition, lsn, dir_len, body_len = _PAGE_HEADER.unpack_from(blob, 0)
    start = _PAGE_HEADER.size + 8 * dir_len
    return PartitionAddress(segment, partition), lsn, dir_len, slice(start, start + body_len)


class LogPage:
    """One page of REDO records for a single partition (or a mixed
    archive page).

    A page is made one of two ways.  The flush path builds it from record
    objects (:meth:`__init__`).  :meth:`decode` parses the header and the
    embedded directory of a page read back from disk and *keeps the body
    as bytes*: restart applies it from there (:meth:`replay`), and
    :attr:`records` builds the objects only for whoever routes or
    inspects individual records.  Equality is by decoded content.
    """

    __slots__ = ("partition", "embedded_directory", "lsn", "_records", "_body")

    def __init__(
        self,
        partition: PartitionAddress,
        records: list[RedoRecord] | None,
        embedded_directory: list[int] | None = None,
        lsn: int = NULL_LSN,
        *,
        body: bytes | None = None,
    ):
        """``records`` is ``None`` only from :meth:`decode`, which gives
        the ``body`` they are still encoded in."""
        self.partition = partition
        #: Directory of the previous group's page LSNs; non-empty only on
        #: the first page of a new directory group.
        self.embedded_directory = [] if embedded_directory is None else embedded_directory
        #: Assigned at write time.
        self.lsn = lsn
        self._records = records
        self._body = body

    @property
    def is_archive_page(self) -> bool:
        return self.partition.segment == ARCHIVE_SEGMENT

    @property
    def records(self) -> list[RedoRecord]:
        records = self._records
        if records is None:
            # First access of a page read from disk.  Restore workers may
            # get here together through the shared page cache; no lock is
            # needed: the body is immutable, so each builds an equal list
            # and the assignment is idempotent.
            records = self._records = decode_records(
                self._body, None if self.is_archive_page else self.partition
            )
        return records

    def replay(self, partition: Partition) -> int:
        """Apply this page's records, in order, to ``partition``; returns
        how many.  The owner is checked once, here: a page of another
        partition (or a mixed archive page) is refused before any record
        is applied.  A page from disk applies straight from its bytes, a
        page built from objects through ``record.apply``."""
        if self.partition != partition.address:
            raise LogError(
                f"log page {self.lsn} of {self.partition} applied to {partition.address}"
            )
        if self._body is not None:
            return replay_records(self._body, partition)
        for record in self._records:
            record.apply(partition)
        return len(self._records)

    def encode(self) -> bytes:
        # Dedicated pages condense the log: the partition address is
        # stripped from every record (section 2.3.3 point 3) — the page
        # header carries it once for all of them.  Mixed archive pages
        # span partitions, so their records keep the full form.
        compact = not self.is_archive_page
        body = b"".join(record.encode(compact) for record in self.records)
        header = _PAGE_HEADER.pack(
            self.partition.segment,
            self.partition.partition,
            self.lsn,
            len(self.embedded_directory),
            len(body),
        )
        directory = struct.pack(
            f"<{len(self.embedded_directory)}q", *self.embedded_directory
        )
        return header + directory + body

    @classmethod
    def decode(cls, blob: bytes) -> "LogPage":
        partition, lsn, dir_len, body = _split_page(blob)
        return cls(
            partition,
            None,
            list(struct.unpack_from(f"<{dir_len}q", blob, _PAGE_HEADER.size)),
            lsn,
            body=blob[body],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogPage):
            return NotImplemented
        return (self.partition, self.lsn, self.embedded_directory, self.records) == (
            other.partition,
            other.lsn,
            other.embedded_directory,
            other.records,
        )

    def __repr__(self) -> str:
        return (
            f"LogPage({self.partition}, lsn={self.lsn}, "
            f"embedded_directory={self.embedded_directory}, records={self.records})"
        )


class ArchiveStore:
    """Pages that slid out of the log window, 'rolled to tape'."""

    def __init__(self):
        self._pages: dict[int, bytes] = {}  # guarded-by: _lock
        #: The recovery thread archives expired pages while restore
        #: workers read archived history concurrently.
        self._lock = threading.Lock()

    def accept(self, lsn: int, blob: bytes) -> None:
        with self._lock:
            self._pages[lsn] = blob

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    def __contains__(self, lsn: int) -> bool:
        with self._lock:
            return lsn in self._pages

    def raw(self, lsn: int) -> bytes:
        """The stored page bytes, undecoded."""
        with self._lock:
            try:
                return self._pages[lsn]
            except KeyError:
                raise LogError(f"archive has no page {lsn}") from None

    def lsns(self) -> list[int]:
        with self._lock:
            return sorted(self._pages)

    def read(self, lsn: int) -> LogPage:
        return LogPage.decode(self.raw(lsn))


#: Default bound of a :class:`LogDisk`'s page LRU (0 disables it).
LOG_PAGE_CACHE_PAGES = 128


class LogDisk:
    """Duplexed log disks plus the sliding log window."""

    def __init__(
        self,
        disks: DuplexedDisk,
        window_pages: int,
        grace_pages: int,
        cache_pages: int = LOG_PAGE_CACHE_PAGES,
        retry_policy: RetryPolicy | None = None,
    ):
        if window_pages <= grace_pages:
            raise ValueError("window must be larger than the grace period")
        if cache_pages < 0:
            raise ValueError("cache_pages cannot be negative")
        self.disks = disks
        self.window_pages = window_pages
        self.grace_pages = grace_pages
        self.archive = ArchiveStore()
        #: Transient device faults are retried within this budget and
        #: escalate to ``MediaFailure`` past it; counters land in
        #: ``Database.stats()["transient_io"]["log"]``.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.io_stats = Counters(*IO_COUNTERS)
        self._next_lsn = 0
        self.pages_written = 0
        self.pages_read = 0
        #: Pages moved to the archive by condensing (docs/CONDENSING.md)
        #: before the window slide would have expired them.
        self.pages_condense_reclaimed = 0
        #: Serialises appends (LSN assignment + window slide) and the
        #: read/write counters.  Reads perform disk I/O outside this lock
        #: so phase-2 restore workers genuinely overlap their log reads.
        self._mutex = threading.RLock()
        #: Bounded LRU of pages read — verified bytes with the header
        #: parsed, not built records — shared by the media-recovery scan
        #: and restart reads.  Log pages are immutable once written (LSNs
        #: are never reused), so a cached page stays valid until it is
        #: dropped; it is volatile, so :meth:`crash` empties it.  Leaf lock.
        self.cache_pages = cache_pages
        self._page_cache: "OrderedDict[int, LogPage]" = OrderedDict()  # guarded-by: _cache_mutex
        self._cache_mutex = threading.Lock()
        self.cache_hits = 0

    # -- window geometry ----------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def window_start(self) -> int:
        """Oldest LSN still inside the log window."""
        return max(0, self._next_lsn - self.window_pages)

    @property
    def age_trigger_lsn(self) -> int:
        """Pages with first LSN below this must be checkpointed now so
        their space can be reclaimed after the grace period."""
        return max(0, self.window_start + self.grace_pages)

    def in_window(self, lsn: int) -> bool:
        return self.window_start <= lsn < self._next_lsn

    # -- I/O -----------------------------------------------------------------------

    def append_page(self, page: LogPage) -> int:
        """Assign the next LSN, write the page (both spindles), slide the
        window, and archive any page that just fell out."""
        with self._mutex:
            page.lsn = self._next_lsn
            self._next_lsn += 1
            self._write_duplexed(page.lsn, page.encode())
            self.pages_written += 1
            self._reclaim_expired()
            return page.lsn

    def append_opaque_page(self, marker_segment: int, body: bytes) -> int:
        """Write a non-REDO page (audit trail) in the same LSN space.

        The page carries the standard framing with ``marker_segment`` as
        its owner so scans can classify it, but its body is opaque to the
        REDO machinery.
        """
        with self._mutex:
            lsn = self._next_lsn
            self._next_lsn += 1
            header = _PAGE_HEADER.pack(marker_segment, 0, lsn, 0, len(body))
            # Same crash bracket and retry path as append_page: opaque
            # pages share the LSN space and the duplexed write path.
            self._write_duplexed(lsn, header + body)
            self.pages_written += 1
            self._reclaim_expired()
            return lsn

    def _write_duplexed(self, lsn: int, blob: bytes) -> None:  # caller-holds: _mutex
        # The fault hook and the primitive
        # write share one lambda so the retry wrapper re-runs both; a
        # fault past the budget escalates to MediaFailure.
        crash_point("log-disk.append.before-write")
        run_with_retry(
            lambda: (
                fault_point("log-disk.write"),
                self.disks.write_page(lsn, blob, sibling=True),
            ),
            self.retry_policy,
            self.io_stats,
            "write",
            f"log-disk write of page {lsn}",
        )
        crash_point("log-disk.append.after-write")

    def read_opaque_page(self, lsn: int, marker_segment: int) -> bytes:
        """Read back an opaque page's body, checking its marker."""
        blob = self.fetch_blob(lsn)
        owner, page_lsn, _, body = _split_page(blob)
        if owner.segment != marker_segment or page_lsn != lsn:
            raise LogError(f"page {lsn} is not an opaque page of {marker_segment}")
        return blob[body]

    def fetch_blob(self, lsn: int) -> bytes:
        """One verified read of a page's raw bytes, wherever it lives.

        Pages that left the window are transparently served from the
        archive (the paper's media-recovery path would do the same from
        tape)."""
        if self.disks.contains(lsn):
            blob = self._read_duplexed(lsn)
        elif lsn in self.archive:
            blob = self.archive.raw(lsn)
        else:
            raise LogError(f"log page {lsn} not found on disk or archive")
        with self._mutex:
            self.pages_read += 1
        return blob

    def _read_duplexed(self, lsn: int) -> bytes:
        return run_with_retry(
            lambda: (
                fault_point("log-disk.read"),
                self.disks.read_page(lsn, sibling=True),
            )[1],
            self.retry_policy,
            self.io_stats,
            "read",
            f"log-disk read of page {lsn}",
        )

    def decode_blob(self, lsn: int, blob: bytes) -> LogPage:
        """Turn a fetched blob into a :class:`LogPage`, via the cache.

        A cached page is returned as-is (pages are immutable); a fresh
        one has its header parsed — its records stay bytes — is verified
        against its addressed LSN, and is cached.
        """
        page = self._cache_get(lsn)
        if page is None:
            page = LogPage.decode(blob)
            if page.lsn != lsn:
                raise LogError(f"log page {lsn} carries LSN {page.lsn}")
            self._cache_put(lsn, page)
        return page

    def read_page(self, lsn: int, *, expected: PartitionAddress | None = None) -> LogPage:
        """Read one log page, optionally verifying its owner.

        A cache hit skips the disk read entirely; otherwise the blob
        comes from the active window or the archive via
        :meth:`fetch_blob`."""
        page = self._cache_get(lsn)
        if page is None:
            page = self.decode_blob(lsn, self.fetch_blob(lsn))
        if page.lsn != lsn:
            raise LogError(f"log page {lsn} carries LSN {page.lsn}")
        if expected is not None and page.partition != expected:
            raise LogError(
                f"log page {lsn} belongs to {page.partition}, expected {expected}"
            )
        return page

    def page_owner(self, lsn: int) -> PartitionAddress:
        """A page's owning partition (archive/audit markers included);
        reading a page decodes none of its records."""
        return self.read_page(lsn).partition

    def all_lsns(self) -> list[int]:
        """Every page LSN still held anywhere: active window plus archive."""
        return sorted(set(self.disks.block_ids()) | set(self.archive.lsns()))

    def drop_page(self, lsn: int) -> None:
        """Forget a page everywhere: both spindles and the page cache.

        Used by log-media rescue to discard unreadable blocks; without the
        cache eviction a previously read copy would keep serving a page
        the operator declared lost."""
        self.disks.free(lsn)
        with self._cache_mutex:
            self._page_cache.pop(lsn, None)

    # -- page cache ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the volatile part: cached pages live in main memory, so
        a restart reads every page it needs from the disks."""
        with self._cache_mutex:
            self._page_cache.clear()

    def _cache_get(self, lsn: int) -> LogPage | None:
        with self._cache_mutex:
            page = self._page_cache.get(lsn)
            if page is not None:
                self._page_cache.move_to_end(lsn)
                self.cache_hits += 1
            return page

    def _cache_put(self, lsn: int, page: LogPage) -> None:
        if self.cache_pages == 0:
            return
        with self._cache_mutex:
            self._page_cache[lsn] = page
            self._page_cache.move_to_end(lsn)
            while len(self._page_cache) > self.cache_pages:
                self._page_cache.popitem(last=False)

    def _reclaim_expired(self) -> None:
        start = self.window_start
        for lsn in [b for b in self.disks.block_ids() if b < start]:
            # Verified duplex read: the archive must never inherit a
            # corrupt copy, and a bad primary must not stop archival
            # while the mirror still holds the page.
            blob = self._read_duplexed(lsn)
            self.archive.accept(lsn, blob)
            self.disks.free(lsn)

    def reclaim_condensed(self, lsns: list[int]) -> int:
        """Retire pages whose records were condensed into a shadow image.

        Condensing (docs/CONDENSING.md) makes a page redundant for memory
        recovery, so its spindle block is freed early — this is how the
        condenser genuinely relieves log-window pressure.  The page still
        moves to the archive first: media recovery and the torn-shadow
        full-history fallback read archived pages transparently through
        :meth:`fetch_blob`.  Pages the window slide already expired are
        skipped.  Returns the number of blocks freed.
        """
        freed = 0
        with self._mutex:
            for lsn in lsns:
                if not self.disks.contains(lsn):
                    continue  # already expired into the archive
                blob = self._read_duplexed(lsn)
                self.archive.accept(lsn, blob)
                self.disks.free(lsn)
                freed += 1
            self.pages_condense_reclaimed += freed
        return freed

    # -- safety check ---------------------------------------------------------------

    def assert_recoverable(self, first_lsn: int, partition: PartitionAddress) -> None:
        """Raise if a partition's oldest log page left the window without a
        checkpoint — the failure the age trigger exists to prevent."""
        if first_lsn != NULL_LSN and first_lsn < self.window_start:
            raise LogWindowOverrunError(
                f"{partition}: first log page {first_lsn} fell off the log "
                f"window (starts at {self.window_start}) before checkpoint"
            )
