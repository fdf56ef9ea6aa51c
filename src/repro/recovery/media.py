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

:func:`restore_after_checkpoint_media_failure` is the ordinary restart
(:func:`repro.recovery.restart.restart`) told the images are lost — **one
verified pass over the log disk**
(:func:`~repro.recovery.redo.demultiplex_log_history`: each log page is
read exactly once regardless of how many partitions exist), then every
rebuild of phases 1 and 2 replays its stream, fanned out on the engine's
restore pool like any eager restart — followed by a fresh checkpoint
image of everything on the replacement disk, after which normal crash
recovery works again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import MediaFailure, RecoveryError
from repro.recovery.restart import RecoveryMode, restart
from repro.sim.clock import host_now

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


def _checkpoint_everything(db: "Database") -> int:
    """Cut a fresh checkpoint image of every partition; returns how many
    checkpoints that took.  A pass that completes nothing while requests
    are still queued cannot make progress and raises."""
    before = db.checkpoints.checkpoints_taken
    for bin_ in db.slt.bins():
        if not bin_.marked_for_checkpoint:
            db.slt.mark_for_checkpoint(bin_.bin_index, "media-restore")
            db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "media-restore")
    while db.checkpoint_queue.pending():
        if db.checkpoints.process_pending() == 0:
            raise RecoveryError("media restore could not checkpoint every partition")
        db.recovery_processor.acknowledge_finished()
    db.recovery_processor.acknowledge_finished()
    return db.checkpoints.checkpoints_taken - before


def restore_after_checkpoint_media_failure(db: "Database") -> dict:
    """Recover the whole database after the checkpoint disk is destroyed.

    Precondition: the system has crashed (or is taken down) and the
    checkpoint disk's contents are unreadable.  The log disks, the stable
    memories, and the catalog partition address list all survive.

    An eager restart with the images lost brings every partition back
    from the log history; fresh checkpoint images of everything on the
    (replacement) checkpoint disk then repoint the catalogs, so ordinary
    crash recovery is possible again.

    Returns restore statistics; until the next crash
    ``Database.stats()["restart"]`` reports the same restart, every
    rebuild under ``sources["history"]``.
    """
    started = host_now()
    coordinator = restart(db, RecoveryMode.EAGER, images_lost=True)
    scan, streams = coordinator.history_scan, len(coordinator.history or ())
    coordinator.history = None  # everything is resident: release the streams
    _checkpoint_everything(db)
    db.publish_catalog_locations()
    return {
        "partitions_rebuilt": coordinator.partitions_recovered,
        "records_applied": coordinator.records_replayed,
        "pages_scanned": scan["pages_scanned"],
        "pages_skipped": scan["pages_skipped"],
        "streams": streams,
        "workers": db.engine.workers,
        "wall_seconds": host_now() - started,
    }


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
    return {
        "unreadable_pages": unreadable,
        "checkpoints_cut": _checkpoint_everything(db),
    }
