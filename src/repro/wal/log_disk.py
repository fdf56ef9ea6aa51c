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
from repro.sim.faults import DEFAULT_RETRY_BUDGET, IO_COUNTERS, run_with_retry

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
from repro.wal.records import replay_records

#: Partition segment value marking a mixed archive page (section 2.4: partial
#: bin pages are combined with other partitions' records into full pages).
ARCHIVE_SEGMENT = -1

_PAGE_HEADER = struct.Struct("<iiqHI")  # segment, partition, lsn, dir_len, body_len


class LogPage:
    """One page of REDO records for a single partition (or a mixed
    archive page), held as its body bytes.

    A dedicated page's body is its records in compact form, exactly as
    the partition's bin accumulated them; a mixed archive page's body is
    full-form records.  :meth:`decode` parses the header and embedded
    directory of a page read back from disk, and every restart path
    applies a body from its bytes (:meth:`replay`).
    """

    __slots__ = ("partition", "body", "embedded_directory", "lsn")

    def __init__(
        self,
        partition: PartitionAddress,
        body: bytes,
        embedded_directory: list[int] | None = None,
        lsn: int = NULL_LSN,
    ):
        self.partition = partition
        self.body = body
        #: Directory of the previous group's page LSNs; non-empty only on
        #: the first page of a new directory group.
        self.embedded_directory = [] if embedded_directory is None else embedded_directory
        #: Assigned at write time.
        self.lsn = lsn

    @property
    def is_archive_page(self) -> bool:
        return self.partition.segment == ARCHIVE_SEGMENT

    def replay(
        self,
        partition: Partition | None,
        start: int = 0,
        until: tuple[int, int] | None = None,
    ) -> tuple[int, int | None]:
        """Apply this page's records, in order, to ``partition`` (``None``:
        only walk) from body offset ``start``, halting at ``until`` as
        :func:`~repro.wal.records.replay_records` does; returns ``(records
        applied, halt)``.  The owner is checked once, here: a page of
        another partition (or a mixed archive page) is refused first."""
        if partition is not None and self.partition != partition.address:
            raise LogError(
                f"log page {self.lsn} of {self.partition} applied to {partition.address}"
            )
        return replay_records(self.body, partition, start, until)

    def tail(self, start: int) -> "LogPage":
        """This page from body offset ``start`` on."""
        return LogPage(self.partition, self.body[start:], lsn=self.lsn)

    def encode(self) -> bytes:
        header = _PAGE_HEADER.pack(
            self.partition.segment,
            self.partition.partition,
            self.lsn,
            len(self.embedded_directory),
            len(self.body),
        )
        directory = struct.pack(
            f"<{len(self.embedded_directory)}q", *self.embedded_directory
        )
        return header + directory + self.body

    @classmethod
    def decode(cls, blob: bytes) -> "LogPage":
        # the embedded directory — ``<q`` per entry — sits between the
        # header and the body
        segment, partition, lsn, dir_len, body_len = _PAGE_HEADER.unpack_from(blob, 0)
        start = _PAGE_HEADER.size + 8 * dir_len
        return cls(
            PartitionAddress(segment, partition),
            blob[start : start + body_len],
            list(struct.unpack_from(f"<{dir_len}q", blob, _PAGE_HEADER.size)),
            lsn,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogPage):
            return NotImplemented
        return (self.partition, self.lsn, self.embedded_directory, self.body) == (
            other.partition,
            other.lsn,
            other.embedded_directory,
            other.body,
        )

    def __repr__(self) -> str:
        return (
            f"LogPage({self.partition}, lsn={self.lsn}, "
            f"embedded_directory={self.embedded_directory}, body={len(self.body)} bytes)"
        )


class ArchiveStore:
    """Pages that slid out of the log window, 'rolled to tape'."""

    def __init__(self):
        self._pages: dict[int, bytes] = {}

    def accept(self, lsn: int, blob: bytes) -> None:
        self._pages[lsn] = blob

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, lsn: int) -> bool:
        return lsn in self._pages

    def raw(self, lsn: int) -> bytes:
        """The stored page bytes, undecoded."""
        try:
            return self._pages[lsn]
        except KeyError:
            raise LogError(f"archive has no page {lsn}") from None

    def lsns(self) -> list[int]:
        return sorted(self._pages)


class LogDisk:
    """Duplexed log disks plus the sliding log window."""

    #: Always 0 (no page cache): read only by ``benchmarks/host/repeat.py``
    #: (ROADMAP item 1 (b)).
    cache_hits = 0

    def __init__(
        self,
        disks: DuplexedDisk,
        window_pages: int,
        grace_pages: int,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ):
        if window_pages <= grace_pages:
            raise ValueError("window must be larger than the grace period")
        self.disks = disks
        self.window_pages = window_pages
        self.grace_pages = grace_pages
        self.archive = ArchiveStore()
        #: Transient device faults are retried within this budget and
        #: escalate to ``MediaFailure`` past it; counters land in
        #: ``Database.stats()["transient_io"]["log"]``.
        self.retry_budget = retry_budget
        self.io_stats = Counters(*IO_COUNTERS)
        self._next_lsn = 0
        #: Every block below this LSN has left the spindles for the archive.
        self._archived_below = 0
        self.pages_written = 0
        self.pages_read = 0

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

    # -- I/O -----------------------------------------------------------------------

    def append_page(self, page: LogPage) -> int:
        """Assign the next LSN, write the page (both spindles), slide the
        window, and archive any page that just fell out."""
        page.lsn = self._next_lsn
        self._next_lsn += 1
        self._write_duplexed(page.lsn, page.encode())
        self.pages_written += 1
        self._reclaim_expired()
        return page.lsn

    def _write_duplexed(self, lsn: int, blob: bytes) -> None:
        # The fault hook and the primitive write share one lambda so the
        # retry wrapper re-runs both; a fault past the budget escalates to
        # MediaFailure.
        crash_point("log-disk.append.before-write")
        run_with_retry(
            lambda: (
                fault_point("log-disk.write"),
                self.disks.write_page(lsn, blob, sibling=True),
            ),
            self.retry_budget,
            self.io_stats,
            "write",
            f"log-disk write of page {lsn}",
        )
        crash_point("log-disk.append.after-write")

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
        self.pages_read += 1
        return blob

    def _read_duplexed(self, lsn: int) -> bytes:
        return run_with_retry(
            lambda: (
                fault_point("log-disk.read"),
                self.disks.read_page(lsn, sibling=True),
            )[1],
            self.retry_budget,
            self.io_stats,
            "read",
            f"log-disk read of page {lsn}",
        )

    def decode_blob(self, lsn: int, blob: bytes) -> LogPage:
        """Turn a fetched blob into a :class:`LogPage` — its header
        parsed, its records still bytes — verified against its
        addressed LSN."""
        page = LogPage.decode(blob)
        if page.lsn != lsn:
            raise LogError(f"log page {lsn} carries LSN {page.lsn}")
        return page

    def read_page(self, lsn: int, *, expected: PartitionAddress | None = None) -> LogPage:
        """Read one log page from the active window or the archive,
        optionally verifying its owner."""
        page = self.decode_blob(lsn, self.fetch_blob(lsn))
        if expected is not None and page.partition != expected:
            raise LogError(
                f"log page {lsn} belongs to {page.partition}, expected {expected}"
            )
        return page

    def all_lsns(self) -> list[int]:
        """Every page LSN still held anywhere: active window plus archive."""
        return sorted(set(self.disks.block_ids()) | set(self.archive.lsns()))

    def drop_page(self, lsn: int) -> None:
        """Forget a page on both spindles: log-media rescue discards
        unreadable blocks this way."""
        self.disks.free(lsn)

    def _reclaim_expired(self) -> None:
        # Blocks are written at the next LSN only and the window slides
        # forward only: what expired since lies from the mark to its start.
        for lsn in range(self._archived_below, self.window_start):
            if self.disks.contains(lsn):
                # Verified duplex read: the archive must never inherit a
                # corrupt copy, and a bad primary must not stop archival
                # while the mirror still holds the page.
                blob = self._read_duplexed(lsn)
                self.archive.accept(lsn, blob)
                self.disks.free(lsn)
            self._archived_below = lsn + 1

    # -- safety check ---------------------------------------------------------------

    def assert_recoverable(self, first_lsn: int, partition: PartitionAddress) -> None:
        """Raise if a partition's oldest log page left the window without a
        checkpoint — the failure the age trigger exists to prevent."""
        if first_lsn != NULL_LSN and first_lsn < self.window_start:
            raise LogWindowOverrunError(
                f"{partition}: first log page {first_lsn} fell off the log "
                f"window (starts at {self.window_start}) before checkpoint"
            )
