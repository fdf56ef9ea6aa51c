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
rebuild of phases 1 and 2 replays its stream, like any eager restart —
followed by one whole-database checkpoint
(:meth:`~repro.checkpoint.manager.CheckpointManager.checkpoint_all`) onto
the replacement disk, after which normal crash recovery works again.
Until that checkpoint commits, the catalog names the lost images, so a
crash in between sends an ordinary restart to the log history too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import MediaFailure, RecoveryError
from repro.recovery.restart import RecoveryMode, restart
from repro.sim.clock import host_now

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


def restore_after_checkpoint_media_failure(db: "Database") -> dict:
    """Recover the whole database after the checkpoint disk is destroyed.

    Precondition: the system has crashed (or is taken down) and the
    checkpoint disk's contents are unreadable.  The log disks, the stable
    memories, and the catalog partition address list all survive.

    An eager restart with the images lost brings every partition back
    from the log history; one checkpoint transaction then writes fresh
    images of everything to the (replacement) checkpoint disk and repoints
    the catalogs, so ordinary crash recovery is possible again.

    Returns restore statistics; until the next crash
    ``Database.stats()["restart"]`` reports the same restart, every
    rebuild under ``sources["history"]``.
    """
    started = host_now()
    coordinator = restart(db, RecoveryMode.EAGER, images_lost=True)
    scan, streams = coordinator.history_scan, len(coordinator.history or ())
    coordinator.history = None  # everything is resident: release the streams
    db.checkpoints.checkpoint_all()
    return {
        "partitions_rebuilt": coordinator.partitions_recovered,
        "records_applied": coordinator.records_replayed,
        "pages_scanned": scan["pages_scanned"],
        "pages_skipped": scan["pages_skipped"],
        "streams": streams,
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
    if not all(segment.fully_resident for segment in db.memory.segments()):
        raise RecoveryError(
            "log media restore needs every partition resident; "
            "recover_everything() first"
        )
    unreadable = scrub_log_disk(db)
    # Unreadable blocks would raise MediaFailure when the sliding window
    # tries to archive them; drop them (and any cached decode) before any
    # further log append.
    for lsn in unreadable:
        db.log_disk.drop_page(lsn)
    return {
        "unreadable_pages": unreadable,
        "partitions_checkpointed": db.checkpoints.checkpoint_all(),
    }
