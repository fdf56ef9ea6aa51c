"""Archive (media-failure) recovery — paper section 2.6.

The checkpoint disk holds the archive copy of the memory-resident
database; if *that* disk fails, the paper falls back to classical archive
recovery from the log history.  Our log history is fully retained: pages
that slide out of the log window land in the :class:`ArchiveStore`
("rolled to tape"), and the partition address stamped on every page —
plus the addresses inside mixed archive pages — "allows the log pages of
a partition to be located when the log is used for archive recovery".

Full-history replay rebuilds a partition *from empty* by applying every
committed record ever logged for it, in LSN order (the recovery
processor guarantees per-partition LSN order even across mixed archive
pages), finishing with the records still buffered in its Stable Log Tail
bin.

The whole-database restore is structured as **one verified pass over the
log disk** (:func:`~repro.recovery.redo.demultiplex_log_history`) that
routes dedicated pages whole and splits mixed archive pages
record-by-record into per-partition replay streams — each log page is
read exactly once regardless of how many partitions exist — followed by
per-partition rebuilds through the one pipeline
(:func:`~repro.recovery.redo.rebuild_partition_resilient`, handed the
streams as its ``history``) fanned out on the execution engine's restore
pool (:meth:`~repro.engine.base.ExecutionEngine.restore_map`).  Under the
SimEngine (or one worker) the rebuilds run sequentially in catalog order.

:func:`restore_after_checkpoint_media_failure` orchestrates the whole
event: every catalogued partition is rebuilt from history, fresh
checkpoint images are cut to the replacement disk, and the catalogs are
repointed — after which normal crash recovery works again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.catalog.catalog import CATALOG_LOCATIONS_KEY, Catalog
from repro.common.errors import MediaFailure, RecoveryError
from repro.common.types import PartitionAddress
from repro.recovery.redo import demultiplex_log_history, rebuild_partition_resilient
from repro.recovery.restart import register_catalogued_segments
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.clock import host_now
from repro.storage.partition import Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

register_crash_point(
    "media.apply.partition-rebuilt",
    "media restore: one partition rebuilt from its stream and installed",
)

#: Instructions charged to the recovery CPU per record replayed by the
#: whole-database media restore: one record lookup plus one page update
#: (Table 2), the same work the sorting step pays per record.
_REPLAY_CATEGORY = "media-replay"


def restore_after_checkpoint_media_failure(db: "Database") -> dict:
    """Recover the whole database after the checkpoint disk is destroyed.

    Precondition: the system has crashed (or is taken down) and the
    checkpoint disk's contents are unreadable.  The log disks, the stable
    memories, and the catalog partition address list all survive.

    Steps:

    1. Sort any remaining committed records into the Stable Log Tail.
    2. Demultiplex the complete log history into per-partition replay
       streams in ONE verified pass over the log disk.
    3. Rebuild the catalog partitions from their streams, rebuild the
       catalogs, and re-register every segment.
    4. Rebuild every catalogued data/index partition from its stream,
       fanned out on the engine's restore worker pool (sequential and in
       catalog order under SimEngine / one worker).
    5. Cut fresh checkpoint images for everything onto the (replacement)
       checkpoint disk and repoint the catalogs, so ordinary crash
       recovery is possible again.

    Returns restore statistics; the same dict is retained as
    ``db.last_media_restore`` and surfaced by ``Database.stats()`` and
    ``Monitor.snapshot()`` under ``"media_restore"``.
    """
    if not db.crashed:
        raise RecoveryError("media restore expects the system to be down")
    started = host_now()
    db.slb.discard_uncommitted()
    db.checkpoint_queue.revert_in_progress()
    db.recovery_processor.run_until_drained()
    # Finished-but-unacknowledged checkpoints: their images are gone with
    # the disk, so DO NOT reset their bins — drop the queue entries and
    # let full-history replay cover them.
    for request in list(db.checkpoint_queue.finished()):
        db.checkpoint_queue.remove(request)

    entry = db.slb.get_well_known(CATALOG_LOCATIONS_KEY) or db.slt.get_well_known(
        CATALOG_LOCATIONS_KEY
    )
    totals = {
        "partitions_rebuilt": 0,
        "records_applied": 0,
        "pages_scanned": 0,
        "pages_skipped": 0,
        "streams": 0,
        "workers": db.engine.workers,
        "wall_seconds": 0.0,
    }
    if not entry:
        db.catalog = Catalog(db.memory)
        db.crashed = False
        totals["wall_seconds"] = host_now() - started
        db.last_media_restore = dict(totals)
        return totals

    # One verified pass over the entire log history; every subsequent
    # rebuild replays from these in-memory streams.
    streams, scan_stats = demultiplex_log_history(db.log_disk)
    totals["pages_scanned"] = scan_stats["pages_scanned"]
    totals["pages_skipped"] = scan_stats["pages_skipped"]
    totals["streams"] = len(streams)
    replay_params = db.config.analysis
    replay_cost = replay_params.i_record_lookup + replay_params.i_page_update

    def rebuild_from_stream(address: PartitionAddress) -> tuple[Partition, dict]:
        partition, stats = rebuild_partition_resilient(
            address,
            None,  # image lost
            db.checkpoint_disk,
            db.log_disk,
            db.slt,
            db.config.partition_size,
            pending_archive=db.recovery_processor.pending_archive_records,
            history=streams,
        )
        # Replay is recovery-component work: charge the Table 2 lookup +
        # page-update costs per record, same as the sorting step does.
        if stats["records_applied"]:
            db.recovery_cpu.charge(
                replay_cost * stats["records_applied"], _REPLAY_CATEGORY
            )
        return partition, stats

    catalog, locations = Catalog.from_well_known_entry(db.memory, entry)
    for address, _lost_slot in locations:
        partition, stats = rebuild_from_stream(address)
        catalog.segment.install(partition)
        _accumulate(totals, stats)
        catalog.own_partition_slots[address.partition] = None  # image lost
    db.catalog = catalog
    catalog.rebuild()

    # Collect every data/index partition in catalog order, then fan the
    # per-partition applies out on the engine's restore pool.  The
    # sequential engines walk the very same list front to back.
    jobs: list[tuple[PartitionAddress, object]] = []
    for descriptor, segment in register_catalogued_segments(db):
        for number in sorted(descriptor.partitions):
            descriptor.partitions[number].checkpoint_slot = None  # image lost
            jobs.append((PartitionAddress(descriptor.segment_id, number), segment))
        # In the entity bytes too (unlogged: the fresh checkpoints below
        # log the descriptor whole): a failed attempt among them re-derives
        # the descriptor from its bytes and must not find a lost slot there.
        catalog.update(descriptor, None)

    def rebuild_and_install(job: tuple[PartitionAddress, object]) -> dict:
        address, segment = job
        partition, stats = rebuild_from_stream(address)
        with db.view_lock:
            segment.install(partition)
        crash_point("media.apply.partition-rebuilt")
        return stats

    for stats in db.engine.restore_map(rebuild_and_install, jobs):
        _accumulate(totals, stats)

    # The old images are gone; start the replacement disk's map clean and
    # cut fresh checkpoints so future crashes recover normally.
    db.checkpoint_disk.rebuild_map(set())
    db.crashed = False
    db.restart_coordinator = None
    for bin_ in db.slt.bins():
        db.slt.mark_for_checkpoint(bin_.bin_index, "media-restore")
        db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "media-restore")
    db.checkpoints.process_pending()
    db.recovery_processor.acknowledge_finished()
    db.publish_catalog_locations()
    totals["wall_seconds"] = host_now() - started
    db.last_media_restore = dict(totals)
    return totals


def scrub_log_disk(db: "Database") -> list[int]:
    """Probe every page still on the duplexed log disks with a verified
    (checksummed, failover) read.

    Returns the LSNs for which *both* copies are unreadable — a true
    media failure.  Blocks with one bad copy pass the scrub: the duplex
    read serves them from the surviving mirror.
    """
    unreadable: list[int] = []
    for lsn in sorted(db.log_disk.disks.block_ids()):
        try:
            db.log_disk.disks.read_page(lsn, sibling=True)
        except MediaFailure:
            unreadable.append(lsn)
    return unreadable


def restore_after_log_media_failure(db: "Database") -> dict:
    """Rescue a live system whose duplexed log disks both lost pages.

    Precondition: the system is up and every partition is memory-resident
    (run full recovery first after a restart).  Main memory plus the
    stable SLB/SLT hold the authoritative committed state, so the cure is
    to make the damaged log irrelevant: drop the unreadable pages, drain
    the sort pipeline, and cut a fresh checkpoint of every partition.
    Once the new images are acknowledged, no pre-existing log page is
    needed for memory recovery.

    Full-history (archive) replay across the damaged span is necessarily
    degraded — both copies of those pages are gone — which is why fresh
    checkpoints are mandatory, not optional, here.
    """
    if db.crashed:
        raise RecoveryError(
            "log media restore runs on a live system; restart first"
        )
    unreadable = scrub_log_disk(db)
    # Unreadable blocks would raise MediaFailure when the sliding window
    # tries to archive them; drop them (and any cached decode) before any
    # further log append.
    for lsn in unreadable:
        db.log_disk.drop_page(lsn)
    db.recovery_processor.run_until_drained()
    checkpoints_before = db.checkpoints.checkpoints_taken
    for bin_ in db.slt.bins():
        if not bin_.marked_for_checkpoint:
            db.slt.mark_for_checkpoint(bin_.bin_index, "media-restore")
            db.checkpoint_queue.submit(
                bin_.partition, bin_.bin_index, "media-restore"
            )
    while db.checkpoint_queue.pending():
        if db.checkpoints.process_pending() == 0:
            raise RecoveryError(
                "log media restore could not checkpoint every partition"
            )
        db.recovery_processor.acknowledge_finished()
    db.recovery_processor.acknowledge_finished()
    return {
        "unreadable_pages": unreadable,
        "checkpoints_cut": db.checkpoints.checkpoints_taken - checkpoints_before,
    }


def _accumulate(totals: dict, stats: dict) -> None:
    totals["partitions_rebuilt"] += 1
    totals["records_applied"] += stats["records_applied"]
