"""The Stable Log Tail (SLT): per-partition bins in stable memory.

Section 2.3.3: the recovery CPU reads committed log records from the SLB
and *sorts* them into partition bins here.  Each partition has a small
permanent information block (we follow the paper's "simplicity in design"
choice of one entry per existing partition); only *active* partitions —
those with outstanding log information — hold the much larger log page
buffer.

The information block holds exactly the four entries of the paper:

* **Partition Address** — stamped on every log page (consistency check).
* **Update Count** — changes accumulated since the last checkpoint: one
  per record, and a command barrier the changes its command made here;
  crossing the threshold marks the partition for an update-count
  checkpoint.
* **LSN of First Log Page** — age monitor; the recovery manager keeps an
  ordered First-LSN list and checks only its head when the log window
  advances.
* **Log Page Directory** — LSNs of the current group of log pages.  When a
  group fills (``directory_size`` pages), the next page embeds the full
  group's directory and starts a new group, so recovery can reach the
  first page in about ``#pages / N`` reads and then stream pages in the
  order they were written.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.common.config import SystemConfig
from repro.common.errors import LogError
from repro.common.types import NULL_LSN, PartitionAddress
from repro.sim.stable_memory import StableMemory
from repro.wal.log_disk import LogPage
from repro.wal.records import (
    BIN_INDEX,
    ONE_CHANGE_TAGS,
    OWNER_END,
    OWNER_START,
    check_owner,
    count_updates,
    owner_pair,
)

#: Stable bytes for one permanent partition information block ("on the
#: order of 50 bytes", section 2.3.3).
INFO_BLOCK_BYTES = 50


class CheckpointReason:
    UPDATE_COUNT = "update-count"
    AGE = "age"


@dataclass
class PartitionBin:
    """One partition's bin: information block plus (when active) a page
    buffer of not-yet-flushed records."""

    bin_index: int
    partition: PartitionAddress
    update_count: int = 0
    #: ``partition`` as the (segment, partition) pair a full-form record
    #: carries, packed once for the sorting step's owner check.
    pair: bytes = b""
    first_page_lsn: int = NULL_LSN
    #: LSNs of the current directory group, oldest first (≤ directory_size).
    directory: list[int] = field(default_factory=list)
    #: Total pages flushed to the log disk since the last checkpoint.
    flushed_pages: int = 0
    #: The partition's next page body: its not-yet-flushed records in
    #: compact form, in the order sorted in.
    buffer: bytearray = field(default_factory=bytearray)
    #: The full-form size of those records, which decides when the page
    #: is full.
    buffer_bytes: int = 0
    marked_for_checkpoint: bool = False
    checkpoint_reason: str | None = None

    @property
    def active(self) -> bool:
        """Active = has outstanding log information (section 2.3.3)."""
        return bool(self.buffer) or self.flushed_pages > 0

    def next_page(self, embedded_directory: list[int] | None = None) -> LogPage:
        """The partition's next page as the buffer holds it now."""
        return LogPage(self.partition, bytes(self.buffer), embedded_directory)


class StableLogTail:
    """The bin table, living in stable reliable memory."""

    def __init__(self, stable: StableMemory, config: SystemConfig):
        self.stable = stable
        self.config = config
        self._bins: dict[int, PartitionBin] = {}
        self._by_partition: dict[PartitionAddress, int] = {}
        self._next_bin_index = 0
        #: First-LSN min-heap with lazy invalidation: (first_lsn, bin_index).
        self._first_lsn_heap: list[tuple[int, int]] = []
        #: Indexes of the unmarked bins whose update count reached the
        #: threshold: the update-count trigger's candidates, kept as
        #: deposits, marks, resets and drops change them, so no drain
        #: scans the bin table.
        self._due: set[int] = set()
        self._well_known: dict[str, object] = {}
        self.stable.allocate("slt-well-known", 16 * 1024, self._well_known)
        # statistics of the recovery CPU's sorting/sealing duties
        self.records_binned = 0
        self.pages_sealed = 0

    # -- registration --------------------------------------------------------------

    def register_partition(self, partition: PartitionAddress) -> int:
        """Create the permanent information block for a new partition."""
        if partition in self._by_partition:
            raise LogError(f"{partition} already has a bin")
        bin_index = self._next_bin_index
        self._next_bin_index += 1
        self.stable.allocate(f"slt-info-{bin_index}", INFO_BLOCK_BYTES)
        bin_ = PartitionBin(bin_index, partition, pair=owner_pair(partition))
        self._bins[bin_index] = bin_
        self._by_partition[partition] = bin_index
        return bin_index

    def drop_partition(self, partition: PartitionAddress) -> None:
        """Remove a de-allocated partition's bin entirely."""
        bin_index = self.bin_index_of(partition)
        bin_ = self._bins.pop(bin_index)
        del self._by_partition[partition]
        self._due.discard(bin_index)
        self.stable.release(f"slt-info-{bin_index}")
        if f"slt-page-{bin_index}" in self.stable:
            self.stable.release(f"slt-page-{bin_index}")
        bin_.buffer.clear()

    # -- lookup -----------------------------------------------------------------------

    def bin(self, bin_index: int) -> PartitionBin:
        try:
            return self._bins[bin_index]
        except KeyError:
            raise LogError(f"no partition bin {bin_index}") from None

    def bin_index_of(self, partition: PartitionAddress) -> int:
        try:
            return self._by_partition[partition]
        except KeyError:
            raise LogError(f"{PartitionAddress(*partition)} has no bin") from None

    def bin_for_partition(self, partition: PartitionAddress) -> PartitionBin:
        return self.bin(self.bin_index_of(partition))

    def has_partition(self, partition: PartitionAddress) -> bool:
        return partition in self._by_partition

    def bins(self) -> list[PartitionBin]:
        """Every bin, in bin index order: the order indexes are handed out."""
        return list(self._bins.values())

    def active_bins(self) -> list[PartitionBin]:
        return [b for b in self.bins() if b.active]

    # -- the sorting step ----------------------------------------------------------------

    def deposit(self, record: bytes) -> bool:
        """Place one committed record, full form as the SLB holds it, into
        its partition bin, in compact form.

        The bin index travels in the record's header (direct index — no
        search, section 2.3.2), and a record whose address names another
        partition is refused, as is a tag no record class registered; each
        refusal comes before the bin changes.  The update count grows by
        :func:`~repro.wal.records.count_updates`' rule: one for a record
        of ``ONE_CHANGE_TAGS``, read off the bytes for any other tag.
        Returns True when the bin's page buffer became full, i.e. the
        caller (recovery processor) should seal and flush a page.
        """
        bin_index = BIN_INDEX.unpack_from(record)[0]
        bin_ = self._bins.get(bin_index)
        if bin_ is None:
            raise LogError(f"no partition bin {bin_index}")
        if record[OWNER_START:OWNER_END] != bin_.pair:
            check_owner(record, bin_.partition)  # refuses it
        if record[0] in ONE_CHANGE_TAGS:
            updates = 1
        else:  # a command barrier, or a tag no class registered (refused)
            updates = count_updates(record[:OWNER_START] + record[OWNER_END:])
        buffer = bin_.buffer
        if not buffer and f"slt-page-{bin_index}" not in self.stable:
            # Partition becomes active: allocate its page buffer.
            self.stable.allocate(f"slt-page-{bin_index}", self.config.log_page_size)
        # The compact form: the record minus its (segment, partition) pair.
        buffer += record[:OWNER_START]
        buffer += record[OWNER_END:]
        bin_.buffer_bytes += len(record)
        bin_.update_count += updates
        if (
            bin_.update_count >= self.config.update_count_threshold
            and not bin_.marked_for_checkpoint
        ):
            self._due.add(bin_index)
        self.records_binned += 1
        return bin_.buffer_bytes >= self.config.log_page_size

    def seal_page(self, bin_index: int) -> LogPage:
        """Turn the bin's page buffer into a flushable log page.

        If the current directory group is full, the new page embeds that
        group's directory and will start a new group once its LSN is known.

        The buffered records stay in the stable bin until
        :meth:`note_page_written` confirms the page is durable on the log
        disk — a crash between seal and write must not lose them.
        """
        bin_ = self.bin(bin_index)
        if not bin_.buffer:
            raise LogError(f"bin {bin_index} has nothing to seal")
        embedded = (
            list(bin_.directory)
            if len(bin_.directory) >= self.config.log_directory_size
            else []
        )
        page = bin_.next_page(embedded)
        self.pages_sealed += 1
        return page

    def note_page_written(self, bin_index: int, lsn: int) -> None:
        """Record a flushed page: empty the now-durable page buffer and
        update the directory, first-LSN monitor, and the First-LSN list
        used for age triggers."""
        bin_ = self.bin(bin_index)
        bin_.buffer.clear()
        bin_.buffer_bytes = 0
        if bin_.first_page_lsn == NULL_LSN:
            bin_.first_page_lsn = lsn
            heapq.heappush(self._first_lsn_heap, (lsn, bin_index))
        if len(bin_.directory) >= self.config.log_directory_size:
            bin_.directory = [lsn]  # the page embedded the previous group
        else:
            bin_.directory.append(lsn)
        bin_.flushed_pages += 1

    # -- checkpoint triggers -----------------------------------------------------------------

    def update_count_candidates(self) -> list[PartitionBin]:
        """Bins whose update count crossed the threshold and are not yet
        marked for a checkpoint, in bin index order."""
        bins = self._bins
        return [bins[bin_index] for bin_index in sorted(self._due)]

    def age_candidates(self, age_trigger_lsn: int) -> list[PartitionBin]:
        """Bins whose first log page is about to fall off the log window.

        Only the heap head needs inspection per advance (section 2.3.3);
        stale heap entries (already checkpointed) are discarded lazily.
        """
        candidates = []
        while self._first_lsn_heap:
            lsn, bin_index = self._first_lsn_heap[0]
            bin_ = self._bins.get(bin_index)
            if bin_ is None:
                heapq.heappop(self._first_lsn_heap)  # dropped partition
                continue
            if bin_.first_page_lsn != lsn:
                heapq.heappop(self._first_lsn_heap)  # stale entry
                continue
            if lsn >= age_trigger_lsn:
                break
            heapq.heappop(self._first_lsn_heap)
            if not bin_.marked_for_checkpoint:
                candidates.append(bin_)
        return candidates

    def mark_for_checkpoint(self, bin_index: int, reason: str) -> None:
        bin_ = self.bin(bin_index)
        bin_.marked_for_checkpoint = True
        bin_.checkpoint_reason = reason
        self._due.discard(bin_index)

    def reset_after_checkpoint(self, bin_index: int) -> bytes:
        """Complete a checkpoint: the bin's log information is no longer
        needed for memory recovery.

        Returns the leftover buffered records as the bin holds them (a
        compact page body); the caller flushes them to the log disk
        (combined into full archive pages) because they are still needed
        for media recovery (section 2.4).
        """
        bin_ = self.bin(bin_index)
        leftovers = bytes(bin_.buffer)
        bin_.buffer.clear()
        bin_.buffer_bytes = 0
        bin_.update_count = 0
        bin_.first_page_lsn = NULL_LSN
        bin_.directory = []
        bin_.flushed_pages = 0
        bin_.marked_for_checkpoint = False
        bin_.checkpoint_reason = None
        self._due.discard(bin_index)
        if f"slt-page-{bin_index}" in self.stable:
            self.stable.release(f"slt-page-{bin_index}")
        return leftovers

    # -- well-known area (catalog address list duplicate, section 2.5) -------------------------

    def put_well_known(self, key: str, value: object) -> None:
        self._well_known[key] = value

    def get_well_known(self, key: str, default: object = None) -> object:
        return self._well_known.get(key, default)
