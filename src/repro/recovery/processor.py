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

from typing import TYPE_CHECKING

from repro.checkpoint.protocol import CheckpointQueue
from repro.common.config import SystemConfig
from repro.common.types import PartitionAddress
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.cpu import CpuMeter
from repro.wal.log_disk import ARCHIVE_SEGMENT, LogDisk, LogPage
from repro.wal.records import bin_index_of, compact_form, full_forms
from repro.wal.slb import StableLogBuffer
from repro.wal.slt import CheckpointReason, PartitionBin, StableLogTail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.events import EventRing

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
        events: EventRing,
    ):
        self.cpu = cpu
        self.slb = slb
        self.slt = slt
        self.log_disk = log_disk
        self.checkpoint_queue = checkpoint_queue
        self.config = config
        self.params = config.analysis
        self.events = events
        #: Leftover records from checkpointed bins, combined into full
        #: mixed pages before hitting the log disk (section 2.4): each is
        #: ``(partition, full-form bytes)``, the bytes a mixed page carries.
        #: This buffer is part of the recovery component's *stable* state
        #: (it holds records already removed from their bins but not yet
        #: on disk); like the SLT it survives simulated crashes.
        self._archive_buffer: list[tuple[PartitionAddress, bytes]] = []
        self._archive_bytes = 0
        self.records_sorted = 0
        self.pages_flushed = 0
        self.archive_pages_written = 0
        self.checkpoints_requested = 0

    # -- the sorting step -----------------------------------------------------------

    def step(self) -> int:
        """Drain committed records from the SLB into SLT bins.

        Returns the number of records sorted.  Full bin pages are flushed
        as they appear; checkpoint triggers are evaluated as pages are
        written (age) and after the drain (update count).
        """
        records = self.slb.drain_committed()
        if not records:
            return 0
        # Table 2's sorting costs, a run at a time: before a page flush, at
        # the end, and for every record whose deposit was tried if it stops.
        charge_sort, deposit = self.cpu.charge_sort, self.slt.deposit
        charged = attempted = deposited = 0
        try:
            for attempted, record in enumerate(records, 1):
                page_full = deposit(record)
                deposited = attempted
                crash_point("recovery.sort.after-deposit")
                if page_full:
                    charge_sort(map(len, records[charged:attempted]))
                    charged = attempted
                    self._flush_bin(bin_index_of(record))
        except BaseException:
            charge_sort(map(len, records[charged:attempted]))
            # The SLB → SLT move is stable-to-stable and record-atomic:
            # records drained but not yet deposited go back to the
            # committed list, whatever stopped the loop — a crash, a
            # failed page write, a refused record — so the next drain
            # finds them.
            self.slb.requeue_committed(records[deposited:])
            raise
        charge_sort(map(len, records[charged:]))
        self.records_sorted += len(records)
        self._check_update_count_triggers()
        return len(records)

    def run_until_drained(self) -> int:
        """Sort everything currently committed (used at commit barriers,
        restart, and by back-pressure when the SLB fills), acknowledging
        finished checkpoints first: a bin's reset keeps what sorts after.
        One step: its drain takes the whole committed list, and no step commits."""
        if self.checkpoint_queue.entries:
            self.acknowledge_finished()
        return self.step()

    # -- page flushing ----------------------------------------------------------------

    def _flush_bin(self, bin_index: int) -> None:
        params = self.params
        # Archive-order invariant: if this partition has leftover records
        # waiting in the shared archive buffer, force them out first so
        # the partition's records appear on the log disk in LSN order —
        # the property full-history (media) recovery replays by.
        partition = self.slt.bin(bin_index).partition
        if any(owner == partition for owner, _ in self._archive_buffer):
            self._flush_archive(force=True)
        page = self.slt.seal_page(bin_index)
        crash_point("recovery.flush.after-seal")
        self.cpu.charge(params.i_write_init, "write-init")
        self.cpu.charge(params.i_page_alloc, "page-alloc")
        lsn = self.log_disk.append_page(page)
        crash_point("recovery.flush.after-write")
        self.slt.note_page_written(bin_index, lsn)
        crash_point("recovery.flush.after-directory-update")
        self.cpu.charge(params.i_process_lsn, "process-lsn")
        self.pages_flushed += 1
        if self.checkpoint_queue.entries:  # a backlog's page, not every page
            self._emit("log.page-written", partition, lsn=lsn, bytes=len(page.body))
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
        self._emit("checkpoint.requested", bin_.partition, reason=reason)

    def _emit(self, event: str, partition: PartitionAddress, **fields) -> None:
        """One of the recovery CPU's events — a checkpoint's, or a log page
        written while the checkpoint queue holds a request — with the
        queue depth it left and the running totals of its sorting duty."""
        self.events.emit(
            event,
            partition=str(partition),
            queue_depth=len(self.checkpoint_queue),
            records_sorted=self.records_sorted,
            pages_flushed=self.pages_flushed,
            **fields,
        )

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
            leftovers = self.slt.reset_after_checkpoint(request.bin_index)
            self._archive(request.partition, leftovers)
            self._flush_archive(force=False)
            if request.previous_slot is not None:
                self._free_slot(request.previous_slot)
            self.checkpoint_queue.remove(request)
            acknowledged += 1
            crash_point("checkpoint.acknowledged")
            self._emit(
                "checkpoint.acknowledged",
                request.partition,
                freed_slot=request.previous_slot,
                leftover_bytes=len(leftovers),
            )
        return acknowledged

    def _archive(self, partition: PartitionAddress, leftovers: bytes) -> None:
        """Move a reset bin's leftovers into the archive buffer in full
        form, charging each record's copy into stable memory."""
        append, charge = self._archive_buffer.append, self.cpu.charge_stable_bytes
        for record in full_forms(leftovers, partition):
            append((partition, record))
            self._archive_bytes += len(record)
            charge(len(record), "archive-copy")

    #: Set by the database so the processor can free superseded slots.
    _free_slot = staticmethod(lambda slot: None)

    def bind_slot_free(self, free_slot) -> None:
        self._free_slot = free_slot

    def _flush_archive(self, *, force: bool) -> None:
        """Write mixed archive pages once a full page accumulates —
        'thereby saving log space and disk transfer time by writing only
        full or mostly full pages to the log' (section 2.4).  ``force``
        flushes a partial page to preserve per-partition LSN order."""
        while self._archive_bytes >= self.config.log_page_size:
            taken: list[bytes] = []
            taken_bytes = 0
            for _, record in self._archive_buffer:
                if taken_bytes >= self.config.log_page_size:
                    break
                taken.append(record)
                taken_bytes += len(record)
            self._emit_archive_page(taken, taken_bytes)
        if force and self._archive_buffer:
            self._emit_archive_page(
                [record for _, record in self._archive_buffer], self._archive_bytes
            )

    def _emit_archive_page(self, records: list[bytes], nbytes: int) -> None:
        """Write one mixed archive page of full-form ``records``; they
        leave the stable buffer only once the page is durable (crash
        between the two sees a harmless consecutive duplicate in the full
        history)."""
        page = LogPage(PartitionAddress(ARCHIVE_SEGMENT, 0), b"".join(records))
        self.cpu.charge(self.params.i_write_init, "write-init")
        lsn = self.log_disk.append_page(page)
        crash_point("recovery.archive.page-written")
        del self._archive_buffer[: len(records)]
        self._archive_bytes -= nbytes
        self.archive_pages_written += 1
        if self.checkpoint_queue.entries:
            self._emit("log.page-written", page.partition, lsn=lsn, bytes=len(page.body))
        self._check_age_triggers()  # archive pages advance the window too

    @property
    def archive_backlog_records(self) -> int:
        return len(self._archive_buffer)

    def pending_archive_records(self, partition: PartitionAddress) -> bytes:
        """Leftover records of one partition still awaiting an archive
        flush, as a dedicated page body (compact form).  Thanks to the
        order invariant in :meth:`_flush_bin`, these are newer than every
        page of that partition on the log disk and older than the records
        in its bin buffer."""
        return b"".join(
            compact_form(record) for owner, record in self._archive_buffer if owner == partition
        )
