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
log disk** (:func:`demultiplex_log_history`) that routes dedicated pages
whole and splits mixed archive pages record-by-record into per-partition
replay streams — each log page is read exactly once regardless of how
many partitions exist — followed by per-partition applies fanned out on
the execution engine's restore pool
(:meth:`~repro.engine.base.ExecutionEngine.restore_map`).  Under the
SimEngine (or one worker) the applies run sequentially in catalog order,
the same order the pre-demultiplex implementation used.

:func:`restore_after_checkpoint_media_failure` orchestrates the whole
event: every catalogued partition is rebuilt from history, fresh
checkpoint images are cut to the replacement disk, and the catalogs are
repointed — after which normal crash recovery works again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import LogError, MediaFailure, RecoveryError
from repro.common.types import PartitionAddress
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.clock import host_now
from repro.storage.partition import Partition
from repro.wal.log_disk import ARCHIVE_SEGMENT, LogDisk, page_owner_from_blob
from repro.wal.records import RedoRecord
from repro.wal.slt import StableLogTail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

register_crash_point(
    "media.scan.page-routed",
    "media restore: one log page demultiplexed into its replay stream(s)",
)
register_crash_point(
    "media.apply.partition-rebuilt",
    "media restore: one partition rebuilt from its stream and installed",
)

#: Instructions charged to the recovery CPU per record replayed by the
#: whole-database media restore: one record lookup plus one page update
#: (Table 2), the same work the sorting step pays per record.
_REPLAY_CATEGORY = "media-replay"


def demultiplex_log_history(
    log_disk: LogDisk,
    wanted: "set[PartitionAddress] | None" = None,
) -> tuple[dict[PartitionAddress, list[RedoRecord]], dict]:
    """One verified pass over the complete log history, demultiplexed.

    Walks every retained LSN (active window plus archive) exactly once in
    LSN order and routes REDO records into per-partition replay streams:
    dedicated pages contribute their whole record list to their owner's
    stream, mixed archive pages are split record-by-record, and non-REDO
    pages (audit markers) are classified from the header alone — their
    bodies are never decoded.  Because the walk is in global LSN order,
    each stream preserves the per-partition LSN order the recovery
    processor guarantees on disk.

    ``wanted`` restricts the streams (and the decoding work) to the given
    partitions; ``None`` demultiplexes every partition encountered.

    Returns ``(streams, stats)`` where stats counts ``pages_scanned``
    (verified reads performed — one per readable page), ``pages_skipped``
    (unreadable pages, counted instead of silently dropped),
    ``dedicated_pages``, ``archive_pages``, and ``other_pages``.
    """
    streams: dict[PartitionAddress, list[RedoRecord]] = {}
    stats = {
        "pages_scanned": 0,
        "pages_skipped": 0,
        "dedicated_pages": 0,
        "archive_pages": 0,
        "other_pages": 0,
    }
    for lsn in log_disk.all_lsns():
        try:
            blob = log_disk.fetch_blob(lsn)
        except (LogError, MediaFailure):
            # Defensive: a page both mirrors lost mid-scan.  The skip is
            # *counted* — restore totals surface it — instead of
            # vanishing into a silent continue.
            stats["pages_skipped"] += 1
            continue
        stats["pages_scanned"] += 1
        owner = page_owner_from_blob(blob)
        if owner.segment == ARCHIVE_SEGMENT:
            page = log_disk.decode_blob(lsn, blob)
            stats["archive_pages"] += 1
            for record in page.records:
                target = record.partition_address
                if wanted is None or target in wanted:
                    streams.setdefault(target, []).append(record)
        elif owner.segment >= 0 and (wanted is None or owner in wanted):
            page = log_disk.decode_blob(lsn, blob)
            stats["dedicated_pages"] += 1
            streams.setdefault(owner, []).extend(page.records)
        else:
            # Audit/opaque markers, or dedicated pages of partitions the
            # caller does not want: header peek only, body never decoded.
            stats["other_pages"] += 1
        crash_point("media.scan.page-routed")
    return streams, stats


def build_partition_from_stream(
    address: PartitionAddress,
    stream: "list[RedoRecord] | None",
    slt: StableLogTail,
    partition_size: int,
    heap_fraction: float = 0.25,
    pending_archive: list | None = None,
) -> tuple[Partition, dict]:
    """Rebuild one partition from its demultiplexed replay stream.

    Apply order: the stream (every on-disk record in LSN order), then
    ``pending_archive`` — checkpoint leftovers still in the stable archive
    buffer, which postdate every on-disk page of this partition — then the
    records in the partition's bin buffer, which are newest.
    """
    partition = Partition(address, partition_size, heap_fraction)
    stats = {"records_applied": 0}
    for record in stream or []:
        record.apply(partition)
        stats["records_applied"] += 1
    for record in pending_archive or []:
        record.apply(partition)
        stats["records_applied"] += 1
    if slt.has_partition(address):
        bin_ = slt.bin_for_partition(address)
        for record in bin_.buffer:
            record.apply(partition)
            stats["records_applied"] += 1
        partition.bin_index = bin_.bin_index
    return partition, stats


def rebuild_partition_from_history(
    address: PartitionAddress,
    log_disk: LogDisk,
    slt: StableLogTail,
    partition_size: int,
    heap_fraction: float = 0.25,
    pending_archive: list | None = None,
) -> tuple[Partition, dict]:
    """Replay a partition's complete committed history from the log.

    Unlike normal memory recovery, no checkpoint image is used — this is
    the path for when the checkpoint disk itself is gone (and the
    fallback when a single checkpoint image turns out to be unusable).

    Single-partition form of the demultiplexed scan: each retained log
    page is fetched once (the old implementation peeked the owner and
    then read matching pages a second time), and only dedicated pages of
    ``address`` plus mixed archive pages are decoded.
    """
    streams, scan_stats = demultiplex_log_history(log_disk, wanted={address})
    partition, stats = build_partition_from_stream(
        address,
        streams.get(address),
        slt,
        partition_size,
        heap_fraction,
        pending_archive=pending_archive,
    )
    stats["pages_scanned"] = scan_stats["pages_scanned"]
    stats["pages_skipped"] = scan_stats["pages_skipped"]
    return partition, stats


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
    from repro.catalog.catalog import Catalog
    from repro.db.database import CATALOG_LOCATIONS_KEY

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
    pending = db.recovery_processor.pending_archive_by_partition()
    totals["pages_scanned"] = scan_stats["pages_scanned"]
    totals["pages_skipped"] = scan_stats["pages_skipped"]
    totals["streams"] = len(streams)
    replay_params = db.config.analysis
    replay_cost = replay_params.i_record_lookup + replay_params.i_page_update

    def rebuild_from_stream(address: PartitionAddress) -> tuple[Partition, dict]:
        partition, stats = build_partition_from_stream(
            address,
            streams.get(address),
            db.slt,
            db.config.partition_size,
            pending_archive=pending.get(address),
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

    from repro.catalog.catalog import IndexDescriptor
    from repro.common.types import SegmentKind

    # Collect every data/index partition in catalog order, then fan the
    # per-partition applies out on the engine's restore pool.  The
    # sequential engines walk the very same list front to back.
    jobs: list[tuple[PartitionAddress, object]] = []
    for descriptor in list(catalog.relations()) + list(catalog.indexes()):
        kind = (
            SegmentKind.INDEX
            if isinstance(descriptor, IndexDescriptor)
            else SegmentKind.RELATION
        )
        segment = db.memory.register_segment(
            descriptor.segment_id, kind, descriptor.name
        )
        for number in sorted(descriptor.partitions):
            descriptor.partitions[number].checkpoint_slot = None  # image lost
            jobs.append((PartitionAddress(descriptor.segment_id, number), segment))

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
