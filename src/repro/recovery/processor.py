"""The recovery CPU's normal-operation loop.

Section 2.3: during regular processing the recovery processor spends most
of its time moving committed log records from the Stable Log Buffer into
partition bins in the Stable Log Tail (the *sorting* step), a smaller
share initiating disk writes for full bin pages, and a sliver notifying
the main CPU of partitions due for a checkpoint.

Each step charges the Table 2 instruction costs to the recovery CPU's
meter, so the simulated instruction stream can be compared against the
closed-form model of section 3.2 (`benchmarks/bench_sim_vs_model.py`).
"""

from __future__ import annotations

import threading

from repro.checkpoint.protocol import CheckpointQueue
from repro.common.config import SystemConfig
from repro.common.types import PartitionAddress
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.cpu import CpuMeter
from repro.sim.faults import SimulatedCrash
from repro.wal.log_disk import ARCHIVE_SEGMENT, LogDisk, LogPage
from repro.wal.records import RedoRecord
from repro.wal.slb import StableLogBuffer
from repro.wal.slt import CheckpointReason, PartitionBin, StableLogTail

register_crash_point(
    "recovery.sort.after-deposit",
    "sorting step: record deposited in its bin, bin not yet flushed",
)
register_crash_point(
    "recovery.flush.after-seal",
    "bin flush: page sealed, not yet written to the log disk",
)
register_crash_point(
    "recovery.flush.after-write",
    "bin flush: page durable on the log disk, bin/directory not updated",
)
register_crash_point(
    "recovery.flush.after-directory-update",
    "bin flush: directory and first-LSN monitor updated",
)
register_crash_point(
    "recovery.archive.page-written",
    "archive flush: mixed page durable, buffer slice not yet dropped",
)
register_crash_point(
    "checkpoint.request.submitted",
    "step 1: checkpoint request entered in the SLB queue",
)
register_crash_point(
    "checkpoint.acknowledged",
    "step 7: bin reset and superseded slot freed for one checkpoint",
)


class RecoveryProcessor:
    """Runs the recovery CPU's duties, cooperatively stepped."""

    def __init__(
        self,
        cpu: CpuMeter,
        slb: StableLogBuffer,
        slt: StableLogTail,
        log_disk: LogDisk,
        checkpoint_queue: CheckpointQueue,
        config: SystemConfig,
    ):
        self.cpu = cpu
        self.slb = slb
        self.slt = slt
        self.log_disk = log_disk
        self.checkpoint_queue = checkpoint_queue
        self.config = config
        self.params = config.analysis
        #: Leftover records from checkpointed bins, combined into full
        #: mixed pages before hitting the log disk (section 2.4).  This
        #: buffer is part of the recovery component's *stable* state (it
        #: holds records already removed from their bins but not yet on
        #: disk); like the SLT it survives simulated crashes.
        self._archive_buffer: list[RedoRecord] = []
        self._archive_bytes = 0
        #: Guards the archive buffer: the recovery thread appends and
        #: flushes while restore workers read pending records during
        #: phase-2 partition recovery.
        self._archive_mutex = threading.RLock()
        self.records_sorted = 0
        self.pages_flushed = 0
        self.archive_pages_written = 0
        self.checkpoints_requested = 0

    # -- the sorting step -----------------------------------------------------------

    def step(self, max_records: int | None = None) -> int:
        """Drain committed records from the SLB into SLT bins.

        Returns the number of records sorted.  Full bin pages are flushed
        as they appear; checkpoint triggers are evaluated as pages are
        written (age) and after the drain (update count).
        """
        records = self.slb.drain_committed(max_records)
        deposited = 0
        try:
            for record in records:
                self._charge_sort(record)
                page_full = self.slt.deposit(record)
                deposited += 1
                crash_point("recovery.sort.after-deposit")
                if page_full:
                    self._flush_bin(record.bin_index)
        except SimulatedCrash:
            # The SLB → SLT move is stable-to-stable and record-atomic:
            # records drained but not yet deposited go back to the
            # committed list so the post-restart drain finds them.
            self.slb.requeue_committed(records[deposited:])
            raise
        self.records_sorted += len(records)
        if records:
            self._check_update_count_triggers()
        return len(records)

    def run_until_drained(self) -> int:
        """Sort everything currently committed (used at commit barriers,
        restart, and by back-pressure when the SLB fills)."""
        total = 0
        while True:
            sorted_now = self.step()
            if sorted_now == 0:
                break
            total += sorted_now
        return total

    def _charge_sort(self, record: RedoRecord) -> None:
        params = self.params
        self.cpu.charge(params.i_record_lookup, "record-lookup")
        self.cpu.charge(params.i_page_check, "page-check")
        self.cpu.charge_stable_bytes(record.size_bytes, "record-copy")
        self.cpu.charge(params.i_page_update, "page-update")

    # -- page flushing ----------------------------------------------------------------

    def _flush_bin(self, bin_index: int) -> None:
        params = self.params
        # Archive-order invariant: if this partition has leftover records
        # waiting in the shared archive buffer, force them out first so
        # the partition's records appear on the log disk in LSN order —
        # the property full-history (media) recovery replays by.
        partition = self.slt.bin(bin_index).partition
        with self._archive_mutex:
            if any(r.partition_address == partition for r in self._archive_buffer):
                self._flush_archive(force=True)
        page = self.slt.seal_page(bin_index)
        crash_point("recovery.flush.after-seal")
        self.cpu.charge(params.i_write_init, "write-init")
        self.cpu.charge(params.i_page_alloc, "page-alloc")
        lsn = self.log_disk.append_page(page)
        crash_point("recovery.flush.after-write")
        self.slt.note_page_written(bin_index, lsn, len(page.records))
        crash_point("recovery.flush.after-directory-update")
        self.cpu.charge(params.i_process_lsn, "process-lsn")
        self.pages_flushed += 1
        self._check_age_triggers()

    # -- checkpoint triggers --------------------------------------------------------------

    def _check_update_count_triggers(self) -> None:
        for bin_ in self.slt.update_count_candidates():
            self._request_checkpoint(bin_, CheckpointReason.UPDATE_COUNT)

    def _check_age_triggers(self) -> None:
        for bin_ in self.slt.age_candidates(self.log_disk.age_trigger_lsn):
            self._request_checkpoint(bin_, CheckpointReason.AGE)

    def _request_checkpoint(self, bin_: PartitionBin, reason: str) -> None:
        self.slt.mark_for_checkpoint(bin_.bin_index, reason)
        self.cpu.charge(self.params.i_checkpoint, "checkpoint-signal")
        self.checkpoint_queue.submit(bin_.partition, bin_.bin_index, reason)
        crash_point("checkpoint.request.submitted")
        self.checkpoints_requested += 1

    # -- finished-checkpoint acknowledgement ------------------------------------------------

    def acknowledge_finished(self) -> int:
        """Complete finished checkpoints: flush each partition's leftover
        log records to the (archive) log and reset its bin.

        Returns the number of checkpoints acknowledged.  The superseded
        checkpoint slot is freed here — only after the new image is
        durable and installed.
        """
        acknowledged = 0
        for request in self.checkpoint_queue.finished():
            if request.flip:
                # Pointer-flip checkpoint (docs/CONDENSING.md): the shadow
                # image *is* the new catalog image and already contains
                # every record at or below flip_lsn, so nothing is flushed
                # to the archive — the bin just forgets the covered prefix.
                self.slt.reset_after_flip(request.bin_index, request.flip_lsn)
            else:
                # A copy checkpoint supersedes any condense chain: the new
                # image was copied from memory, so the shadow is stale and
                # its slot is freed along with the previous catalog slot.
                stale = self.slt.clear_condense_state(request.bin_index)
                leftovers = self.slt.reset_after_checkpoint(request.bin_index)
                with self._archive_mutex:
                    for record in leftovers:
                        self._archive_buffer.append(record)
                        self._archive_bytes += record.size_bytes
                        self.cpu.charge_stable_bytes(
                            record.size_bytes, "archive-copy"
                        )
                    self._maybe_flush_archive()
                if stale is not None:
                    self._free_slot(stale)
            if request.previous_slot is not None:
                self._free_slot(request.previous_slot)
            self.checkpoint_queue.remove(request)
            acknowledged += 1
            crash_point("checkpoint.acknowledged")
        return acknowledged

    #: Set by the database so the processor can free superseded slots.
    _free_slot = staticmethod(lambda slot: None)

    def bind_slot_free(self, free_slot) -> None:
        self._free_slot = free_slot

    def _maybe_flush_archive(self) -> None:
        self._flush_archive(force=False)

    def _flush_archive(self, *, force: bool) -> None:
        """Write mixed archive pages once a full page accumulates —
        'thereby saving log space and disk transfer time by writing only
        full or mostly full pages to the log' (section 2.4).  ``force``
        flushes a partial page to preserve per-partition LSN order."""
        with self._archive_mutex:
            while self._archive_bytes >= self.config.log_page_size:
                taken: list[RedoRecord] = []
                taken_bytes = 0
                for record in self._archive_buffer:
                    if taken_bytes >= self.config.log_page_size:
                        break
                    taken.append(record)
                    taken_bytes += record.size_bytes
                self._emit_archive_page(taken, taken_bytes)
            if force and self._archive_buffer:
                self._emit_archive_page(
                    list(self._archive_buffer), self._archive_bytes
                )

    def _emit_archive_page(self, records: list[RedoRecord], nbytes: int) -> None:
        """Write one mixed archive page; the records leave the stable
        buffer only once the page is durable (crash between the two sees a
        harmless consecutive duplicate in the full history)."""
        page = LogPage(PartitionAddress(ARCHIVE_SEGMENT, 0), records)
        self.cpu.charge(self.params.i_write_init, "write-init")
        self.log_disk.append_page(page)
        crash_point("recovery.archive.page-written")
        with self._archive_mutex:
            del self._archive_buffer[: len(records)]
            self._archive_bytes -= nbytes
        self.archive_pages_written += 1
        self._check_age_triggers()  # archive pages advance the window too

    @property
    def archive_backlog_records(self) -> int:
        with self._archive_mutex:
            return len(self._archive_buffer)

    def pending_archive_records(self, partition: PartitionAddress) -> list[RedoRecord]:
        """Leftover records of one partition still awaiting an archive
        flush.  Thanks to the order invariant in :meth:`_flush_bin`, these
        are newer than every page of that partition on the log disk and
        older than the records in its bin buffer."""
        with self._archive_mutex:
            return [
                record
                for record in self._archive_buffer
                if record.partition_address == partition
            ]
