"""The Stable Log Tail (SLT): per-partition bins in stable memory.

Section 2.3.3: the recovery CPU reads committed log records from the SLB
and *sorts* them into partition bins here.  Each partition has a small
permanent information block (we follow the paper's "simplicity in design"
choice of one entry per existing partition); only *active* partitions —
those with outstanding log information — hold the much larger log page
buffer.

The information block holds exactly the four entries of the paper:

* **Partition Address** — stamped on every log page (consistency check).
* **Update Count** — records accumulated since the last checkpoint;
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
import threading
from dataclasses import dataclass, field

from repro.common.config import SystemConfig
from repro.common.errors import LogError
from repro.common.types import NULL_LSN, PartitionAddress
from repro.sim.stable_memory import StableMemory
from repro.wal.log_disk import LogPage
from repro.wal.records import RedoRecord

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
    first_page_lsn: int = NULL_LSN
    #: LSNs of the current directory group, oldest first (≤ directory_size).
    directory: list[int] = field(default_factory=list)
    #: Total pages flushed to the log disk since the last checkpoint.
    flushed_pages: int = 0
    buffer: list[RedoRecord] = field(default_factory=list)
    buffer_bytes: int = 0
    marked_for_checkpoint: bool = False
    checkpoint_reason: str | None = None
    #: Background-condenser chain (docs/CONDENSING.md), guarded by
    #: :attr:`mutex` like the rest of the bin.  ``condensed_slot`` is the
    #: newest shadow checkpoint image; ``condensed_base_slot`` the regular
    #: catalog slot the chain grew from (None = grown from an empty
    #: partition); pages with LSN ≤ ``condensed_lsn`` are folded into the
    #: shadow image and restart may skip them; ``condensed_pages`` counts
    #: folded pages so lag = flushed_pages - condensed_pages.
    condensed_slot: int | None = None
    condensed_base_slot: int | None = None
    condensed_lsn: int = NULL_LSN
    condensed_pages: int = 0
    #: Per-bin lock (the sharded replacement for the old structure-wide
    #: mutex): guards this bin's buffer, counters, directory and its
    #: ``slt-page-*`` stable area.  Lock order: table mutex -> bin lock ->
    #: stable-memory lock; the first-LSN heap mutex is never taken while
    #: a bin lock is held.
    mutex: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @property
    def active(self) -> bool:
        """Active = has outstanding log information (section 2.3.3)."""
        return bool(self.buffer) or self.flushed_pages > 0


class StableLogTail:
    """The bin table, living in stable reliable memory."""

    def __init__(self, stable: StableMemory, config: SystemConfig):
        self.stable = stable
        self.config = config
        self._bins: dict[int, PartitionBin] = {}
        self._by_partition: dict[PartitionAddress, int] = {}
        self._next_bin_index = 0  # guarded-by: _mutex
        #: First-LSN min-heap with lazy invalidation: (first_lsn, bin_index).
        self._first_lsn_heap: list[tuple[int, int]] = []  # guarded-by: _heap_mutex
        self._well_known: dict[str, object] = {}  # guarded-by: _mutex
        self.stable.allocate("slt-well-known", 16 * 1024, self._well_known)
        #: Table mutex: guards only the bin *maps* (registration, drop,
        #: snapshots) and the well-known area.  Per-bin state is sharded
        #: onto each :attr:`PartitionBin.mutex`, so the recovery thread
        #: sorting into one bin no longer contends with restore workers
        #: or checkpointers touching other bins.  Lock order:
        #: table mutex → bin lock → stable-memory lock.
        self._mutex = threading.RLock()
        #: Guards the first-LSN min-heap.  Ordered heap mutex → bin lock
        #: (never the reverse: pushes happen after the bin lock drops).
        self._heap_mutex = threading.Lock()
        # statistics; written only by the recovery CPU's sorting/sealing
        # duties (one thread under either engine), read by anyone
        self.records_binned = 0
        self.pages_sealed = 0

    # -- registration --------------------------------------------------------------

    def register_partition(self, partition: PartitionAddress) -> int:
        """Create the permanent information block for a new partition."""
        with self._mutex:
            if partition in self._by_partition:
                raise LogError(f"{partition} already has a bin")
            bin_index = self._next_bin_index
            self._next_bin_index += 1
            self.stable.allocate(f"slt-info-{bin_index}", INFO_BLOCK_BYTES)
            bin_ = PartitionBin(bin_index, partition)
            self._bins[bin_index] = bin_
            self._by_partition[partition] = bin_index
            return bin_index

    def drop_partition(self, partition: PartitionAddress) -> None:
        """Remove a de-allocated partition's bin entirely."""
        with self._mutex:
            bin_index = self.bin_index_of(partition)
            bin_ = self._bins.pop(bin_index)
            del self._by_partition[partition]
            with bin_.mutex:
                self.stable.release(f"slt-info-{bin_index}")
                if f"slt-page-{bin_index}" in self.stable:
                    self.stable.release(f"slt-page-{bin_index}")
                bin_.buffer.clear()

    # -- lookup -----------------------------------------------------------------------

    def bin(self, bin_index: int) -> PartitionBin:
        # Lock-free read: committing transactions resolve bin indexes on
        # every log record, and a single dict lookup is atomic under the
        # GIL; registration only ever adds entries.
        try:
            return self._bins[bin_index]
        except KeyError:
            raise LogError(f"no partition bin {bin_index}") from None

    def bin_index_of(self, partition: PartitionAddress) -> int:
        # Lock-free for the same reason as :meth:`bin`.
        try:
            return self._by_partition[partition]
        except KeyError:
            raise LogError(f"{partition} has no bin") from None

    def bin_for_partition(self, partition: PartitionAddress) -> PartitionBin:
        return self.bin(self.bin_index_of(partition))

    def has_partition(self, partition: PartitionAddress) -> bool:
        return partition in self._by_partition

    def bins(self) -> list[PartitionBin]:
        with self._mutex:
            return [self._bins[i] for i in sorted(self._bins)]

    def active_bins(self) -> list[PartitionBin]:
        return [b for b in self.bins() if b.active]

    # -- the sorting step ----------------------------------------------------------------

    def deposit(self, record: RedoRecord) -> bool:
        """Place one committed record into its partition bin.

        The bin index travels inside the record (direct index — no search,
        section 2.3.2).  Returns True when the bin's page buffer became
        full, i.e. the caller (recovery processor) should seal and flush a
        page.
        """
        bin_ = self.bin(record.bin_index)
        with bin_.mutex:
            if bin_.partition != record.partition_address:
                raise LogError(
                    f"record for {record.partition_address} carries bin index "
                    f"{record.bin_index} of {bin_.partition}"
                )
            if not bin_.buffer and f"slt-page-{bin_.bin_index}" not in self.stable:
                # Partition becomes active: allocate its page buffer.
                self.stable.allocate(
                    f"slt-page-{bin_.bin_index}", self.config.log_page_size
                )
            bin_.buffer.append(record)
            bin_.buffer_bytes += record.size_bytes
            bin_.update_count += 1
            self.records_binned += 1
            return bin_.buffer_bytes >= self.config.log_page_size

    def seal_page(self, bin_index: int) -> LogPage:
        """Turn the bin's buffered records into a flushable log page.

        If the current directory group is full, the new page embeds that
        group's directory and will start a new group once its LSN is known.

        The buffered records stay in the stable bin until
        :meth:`note_page_written` confirms the page is durable on the log
        disk — a crash between seal and write must not lose them.
        """
        bin_ = self.bin(bin_index)
        with bin_.mutex:
            if not bin_.buffer:
                raise LogError(f"bin {bin_index} has nothing to seal")
            embedded = (
                list(bin_.directory)
                if len(bin_.directory) >= self.config.log_directory_size
                else []
            )
            page = LogPage(
                partition=bin_.partition,
                records=list(bin_.buffer),
                embedded_directory=embedded,
            )
            self.pages_sealed += 1
            return page

    def note_page_written(
        self, bin_index: int, lsn: int, flushed_records: int | None = None
    ) -> None:
        """Record a flushed page: drain the now-durable records from the
        bin buffer and update the directory, first-LSN monitor, and the
        First-LSN list used for age triggers."""
        bin_ = self.bin(bin_index)
        newly_first = False
        with bin_.mutex:
            if flushed_records is None:
                flushed_records = len(bin_.buffer)
            flushed = bin_.buffer[:flushed_records]
            del bin_.buffer[:flushed_records]
            bin_.buffer_bytes -= sum(record.size_bytes for record in flushed)
            if bin_.first_page_lsn == NULL_LSN:
                bin_.first_page_lsn = lsn
                newly_first = True
            if len(bin_.directory) >= self.config.log_directory_size:
                bin_.directory = [lsn]  # the page embedded the previous group
            else:
                bin_.directory.append(lsn)
            bin_.flushed_pages += 1
        if newly_first:
            # outside the bin lock: heap mutex -> bin lock is the only
            # permitted nesting direction (see age_candidates)
            with self._heap_mutex:
                heapq.heappush(self._first_lsn_heap, (lsn, bin_index))

    # -- checkpoint triggers -----------------------------------------------------------------

    def update_count_candidates(self) -> list[PartitionBin]:
        """Bins whose update count crossed the threshold and are not yet
        marked for a checkpoint."""
        threshold = self.config.update_count_threshold
        # bins() snapshots the table; the per-bin field reads are racy by
        # design — a count crossing the threshold mid-scan is simply
        # picked up on the next pump, and marking is re-checked by the
        # (single) checkpoint service before a request is enqueued.
        return [
            b
            for b in self.bins()
            if not b.marked_for_checkpoint and b.update_count >= threshold
        ]

    def age_candidates(self, age_trigger_lsn: int) -> list[PartitionBin]:
        """Bins whose first log page is about to fall off the log window.

        Only the heap head needs inspection per advance (section 2.3.3);
        stale heap entries (already checkpointed) are discarded lazily.
        """
        candidates = []
        with self._heap_mutex:
            while self._first_lsn_heap:
                lsn, bin_index = self._first_lsn_heap[0]
                bin_ = self._bins.get(bin_index)
                if bin_ is None:
                    heapq.heappop(self._first_lsn_heap)  # dropped partition
                    continue
                with bin_.mutex:  # heap mutex -> bin lock, never reversed
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
        with bin_.mutex:
            bin_.marked_for_checkpoint = True
            bin_.checkpoint_reason = reason

    def reset_after_checkpoint(self, bin_index: int) -> list[RedoRecord]:
        """Complete a checkpoint: the bin's log information is no longer
        needed for memory recovery.

        Returns the leftover buffered records; the caller flushes them to
        the log disk (combined into full archive pages) because they are
        still needed for media recovery (section 2.4).
        """
        bin_ = self.bin(bin_index)
        with bin_.mutex:
            leftovers = list(bin_.buffer)
            bin_.buffer.clear()
            bin_.buffer_bytes = 0
            bin_.update_count = 0
            bin_.first_page_lsn = NULL_LSN
            bin_.directory = []
            bin_.flushed_pages = 0
            bin_.marked_for_checkpoint = False
            bin_.checkpoint_reason = None
            if f"slt-page-{bin_index}" in self.stable:
                self.stable.release(f"slt-page-{bin_index}")
            return leftovers

    def clear_condense_state(self, bin_index: int) -> int | None:
        """Forget the bin's condense chain (docs/CONDENSING.md).

        Returns the superseded shadow slot so the caller can free it on
        the checkpoint disk — a copy checkpoint or sweep just installed a
        newer image, so the chain is stale.  ``None`` when no chain
        existed (or the chain's image *is* the catalog slot, which a flip
        just installed — the caller must not free that one, so flips
        never route through here).
        """
        bin_ = self.bin(bin_index)
        with bin_.mutex:
            stale = bin_.condensed_slot
            bin_.condensed_slot = None
            bin_.condensed_base_slot = None
            bin_.condensed_lsn = NULL_LSN
            bin_.condensed_pages = 0
            return stale

    def reset_after_flip(self, bin_index: int, flip_lsn: int) -> None:
        """Complete a flip checkpoint (docs/CONDENSING.md).

        The catalog now points at the shadow image, which folds every log
        page with LSN ≤ ``flip_lsn`` — those pages leave the directory and
        the age monitor.  Unlike :meth:`reset_after_checkpoint` the buffer
        stays: its records post-date the image and are still needed for
        memory recovery.  Pages flushed between the flip decision and this
        acknowledgement carry higher LSNs and survive the filter, so the
        reset is race-safe.  The condense chain itself is kept — the next
        condenser pass rebases it onto the flipped image.
        """
        bin_ = self.bin(bin_index)
        push_first = NULL_LSN
        with bin_.mutex:
            # Flip eligibility required lag 0 (condensed_pages ==
            # flushed_pages) at decision time, and the condenser skips
            # bins whose checkpoint is in flight, so condensed_pages
            # still equals the at-decision flush count: the difference
            # is exactly the pages that raced in since.
            newer = bin_.flushed_pages - bin_.condensed_pages
            remaining = [lsn for lsn in bin_.directory if lsn > flip_lsn]
            bin_.flushed_pages = newer
            bin_.condensed_pages = 0
            if newer == len(remaining):
                bin_.directory = remaining
                new_first = remaining[0] if remaining else NULL_LSN
                if new_first != bin_.first_page_lsn:
                    bin_.first_page_lsn = new_first
                    push_first = new_first
            # else: so many pages raced in that a whole group rolled into
            # an embedded directory — keep directory and age monitor as
            # they are (conservatively old); condensed_lsn still bounds
            # what restart reads.
            bin_.update_count = len(bin_.buffer)
            bin_.marked_for_checkpoint = False
            bin_.checkpoint_reason = None
            if not bin_.buffer and f"slt-page-{bin_index}" in self.stable:
                self.stable.release(f"slt-page-{bin_index}")
        if push_first != NULL_LSN:
            # outside the bin lock: heap mutex -> bin lock only (the old
            # heap entry, if any, goes stale and is discarded lazily)
            with self._heap_mutex:
                heapq.heappush(self._first_lsn_heap, (push_first, bin_index))

    # -- well-known area (catalog address list duplicate, section 2.5) -------------------------

    def put_well_known(self, key: str, value: object) -> None:
        with self._mutex:
            self._well_known[key] = value

    def get_well_known(self, key: str, default: object = None) -> object:
        with self._mutex:
            return self._well_known.get(key, default)
