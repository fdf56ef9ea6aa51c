"""Rebuilding one partition: a base image plus an ordered record source.

Section 2.5: a recovery transaction reads the partition's checkpoint copy
from the checkpoint disk and its log pages from the log disk, then applies
the REDO records *in the order they were originally written*.  The log
page directory makes forward-order reading possible: the Stable Log Tail
holds the directory of the most recent group, and the first page of each
group embeds the directory of the group before it, so recovery walks back
roughly ``#pages / N`` pages to find the start and then streams forward.
Section 2.6 (archive recovery) is the same thing started from an empty
image and the whole log history.

This module is the only place stable state becomes a
:class:`~repro.storage.partition.Partition`.  :func:`plan_rebuild` picks
the base and the log pages still to apply;
:func:`rebuild_partition_resilient` replays them straight through, each
page from its bytes (:meth:`~repro.wal.log_disk.LogPage.replay`).
Restart, the torn-image fallback, the media restore, command replay and
the condenser all start here.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.common.errors import (
    ChecksumError,
    LogError,
    MediaFailure,
    RecoveryError,
    StorageError,
)
from repro.common.types import NULL_LSN, PartitionAddress
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import TornWriteError
from repro.storage.partition import Partition
from repro.wal.log_disk import LogDisk, LogPage
from repro.wal.records import RedoRecord, SweepMarker
from repro.wal.slt import PartitionBin, StableLogTail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.disk_queue import CheckpointDiskQueue

register_crash_point(
    "media.scan.page-routed",
    "media restore: one log page demultiplexed into its replay stream(s)",
)

#: Ways a checkpoint *image* can be unusable: torn by the crash, failing
#: its CRC, holding a stale image of the wrong partition, or lost to an
#: escalated transient-fault burst.  Restart survives these by taking the
#: next source; the condenser gives the slice up.
IMAGE_FAILURES = (TornWriteError, ChecksumError, StorageError, MediaFailure)

#: Per-partition replay streams, as :func:`demultiplex_log_history` builds them.
History = dict[PartitionAddress, list[LogPage]]
#: Lookup of a partition's leftovers in the stable archive buffer.
PendingArchive = Callable[[PartitionAddress], list[RedoRecord]]


def load_base(
    disk_queue: "CheckpointDiskQueue",
    slot: int | None,
    address: PartitionAddress,
    partition_size: int,
) -> Partition:
    """The image in ``slot``, or an empty partition when there is none."""
    if slot is None:
        return Partition(address, partition_size)
    return Partition.from_bytes(disk_queue.read_image(slot), address)


def enumerate_log_pages(
    bin_: PartitionBin, log_disk: LogDisk, condensed_lsn: int = NULL_LSN
) -> tuple[list[int], dict[int, LogPage], int]:
    """Write-order list of a partition's log page LSNs past ``condensed_lsn``.

    Returns ``(lsns, cache, backward_reads)``: the pages already fetched
    during the backward directory walk are cached so the forward pass does
    not reread them, and ``backward_reads`` reports how many reads the walk
    needed (the paper's ``#pages / N`` claim, measured by the benchmarks).

    With the default ``condensed_lsn`` of :data:`NULL_LSN` the full
    history is returned.  A real watermark (docs/CONDENSING.md) both
    *stops the backward walk early* — page LSNs are monotone across
    directory groups, so once a group starts at or below the watermark no
    older group can matter — and filters the result, which is how a
    condensed restart avoids touching the folded prefix at all.
    """
    if not bin_.directory:
        return [], {}, 0
    groups: list[list[int]] = [list(bin_.directory)]
    cache: dict[int, LogPage] = {}
    backward_reads = 0
    while True:
        first_lsn = groups[0][0]
        if first_lsn == bin_.first_page_lsn or first_lsn <= condensed_lsn:
            break
        page = log_disk.read_page(first_lsn, expected=bin_.partition)
        cache[first_lsn] = page
        backward_reads += 1
        if not page.embedded_directory:
            raise RecoveryError(
                f"log page {first_lsn} of {bin_.partition} should embed the "
                f"previous directory group but does not"
            )
        groups.insert(0, list(page.embedded_directory))
    lsns = [
        lsn for group in groups for lsn in group if lsn > condensed_lsn
    ]
    return lsns, cache, backward_reads


def cut_settled_prefix(pages: list[LogPage], command_watermark: int) -> list[LogPage]:
    """Drop the stream prefix already reflected in a settled image.

    A settlement sweep (docs/LOGGING.md) copies every partition of a
    command closure and appends a :class:`SweepMarker` carrying the new
    watermark to each partition's stream *while still holding the closure
    locks*, so the marker's position is exactly the image point.  Records
    before the last marker matching the owning relation's watermark are
    already inside the image — re-applying them over it would regress
    state past command effects the image contains but the value stream
    does not.  Markers with older watermarks (earlier sweeps) deeper in
    the stream are harmless no-ops and are simply cut along with the rest.

    Finding the marker reads records, so this is one of the places a
    page's records are built — only for relations with settled commands.
    """
    if command_watermark <= 0:
        return pages
    cut = None
    for index, page in enumerate(pages):
        for position, record in enumerate(page.records):
            if isinstance(record, SweepMarker) and record.watermark == command_watermark:
                cut = (index, position + 1)
    if cut is None:
        return pages
    index, position = cut
    page = pages[index]
    return [LogPage(page.partition, page.records[position:], lsn=page.lsn), *pages[index + 1 :]]


def partition_record_stream(
    bin_: PartitionBin, log_disk: LogDisk, condensed_lsn: int = NULL_LSN
) -> tuple[list[LogPage], dict]:
    """The bin's REDO stream past ``condensed_lsn``, in write order, as
    pages.

    Flushed log pages (directory walk, forward read), their records
    still bytes, followed by the records buffered in the bin — the
    partition's next page, in stable memory, newer than any flushed one.
    The default watermark of :data:`NULL_LSN` yields the full stream; a
    shadow base passes its own watermark so only the uncondensed suffix
    is read (docs/CONDENSING.md).
    """
    address = bin_.partition
    pages: list[LogPage] = []
    stats = {"pages_read": 0, "backward_reads": 0}
    if bin_.first_page_lsn != NULL_LSN:
        lsns, cache, backward_reads = enumerate_log_pages(
            bin_, log_disk, condensed_lsn
        )
        stats["backward_reads"] = backward_reads
        for lsn in lsns:
            page = cache.get(lsn)
            if page is None:
                page = log_disk.read_page(lsn, expected=address)
                stats["pages_read"] += 1
            pages.append(page)
    pages.append(LogPage(address, list(bin_.buffer)))
    return pages, stats


def demultiplex_log_history(
    log_disk: LogDisk,
    wanted: "set[PartitionAddress] | None" = None,
) -> tuple[History, dict]:
    """One verified pass over the complete log history, demultiplexed.

    Walks every retained LSN (active window plus archive) exactly once in
    LSN order and routes it into per-partition replay streams: a
    dedicated page joins its owner's stream as it is, records undecoded;
    a mixed archive page is split record by record into one page per
    partition it names; non-REDO pages (audit markers) are classified
    from the header alone.  Because the walk is in global LSN order, each
    stream preserves the per-partition LSN order the recovery processor
    guarantees on disk.

    ``wanted`` restricts the streams (and the splitting of archive pages)
    to the given partitions; ``None`` demultiplexes every partition
    encountered.  The
    two forms treat a page lost on both mirrors differently.  A page that
    cannot be read cannot be attributed either — its header is gone with
    it — so a ``wanted`` scan, which rebuilds those partitions from what
    is their last copy, lets the failure propagate.  The unrestricted
    scan is the operator's whole-database salvage after the checkpoint
    disk is gone: it skips the page and *counts* it in ``pages_skipped``
    for the restore totals to surface.

    Returns ``(streams, stats)`` where stats counts ``pages_scanned``
    (verified reads performed — one per readable page), ``pages_skipped``,
    ``dedicated_pages``, ``archive_pages``, and ``other_pages``.
    """
    streams: History = {}
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
            if wanted is not None:
                raise
            stats["pages_skipped"] += 1
            continue
        stats["pages_scanned"] += 1
        page = log_disk.decode_blob(lsn, blob)
        owner = page.partition
        if page.is_archive_page:
            stats["archive_pages"] += 1
            split: dict[PartitionAddress, list[RedoRecord]] = {}
            for record in page.records:
                target = record.partition_address
                if wanted is None or target in wanted:
                    split.setdefault(target, []).append(record)
            for target, records in split.items():
                streams.setdefault(target, []).append(LogPage(target, records, lsn=lsn))
        elif owner.segment >= 0 and (wanted is None or owner in wanted):
            stats["dedicated_pages"] += 1
            streams.setdefault(owner, []).append(page)
        else:
            # Audit/opaque markers, or dedicated pages of partitions the
            # caller does not want.
            stats["other_pages"] += 1
        crash_point("media.scan.page-routed")
    return streams, stats


def plan_rebuild(
    address: PartitionAddress,
    checkpoint_slot: int | None,
    disk_queue: "CheckpointDiskQueue",
    log_disk: LogDisk,
    slt: StableLogTail,
    partition_size: int,
    *,
    command_watermark: int = 0,
    pending_archive: PendingArchive | None = None,
    history: History | None = None,
) -> tuple[Partition, list[LogPage], dict]:
    """Choose how one partition comes back: ``(base, pages, stats)``.

    ``base`` is the starting image and ``pages`` the ordered REDO not yet
    applied to it — pages from disk undecoded, then what stable memory
    still holds wrapped as pages of record objects — so the command
    replay planner can interleave script re-execution at the barrier
    records.  ``stats["source"]`` names the starting point taken (table
    in docs/INTERNALS.md):

    * ``shadow`` — a valid condense shadow and the suffix past its
      watermark.  Valid means the chain grew from the catalog slot being
      recovered or *is* that slot (a flip published it); a later copy
      checkpoint invalidates it (docs/CONDENSING.md).
    * ``image`` / ``empty`` — the catalog slot's image, or an empty
      partition when there never was one, and the whole stream.
    * ``history`` — an empty partition and everything ever logged for it
      (paper section 2.6): the ``history`` streams the caller hands in
      because the checkpoint disk is gone, or a scan done here because
      every image above was unusable; then ``pending_archive(address)``,
      the leftovers in the stable archive buffer, which postdate every
      on-disk page of the partition; then the bin buffer, newest of all.

    ``command_watermark`` is the owning relation's settled watermark.
    When positive the stream is cut at the matching sweep marker
    (:func:`cut_settled_prefix`) and the history source is refused:
    settled command effects exist *only* in the checkpoint images — their
    after-images were never value-logged (docs/LOGGING.md).

    Only *image* reads fall back to the next source.  A log read that
    fails propagates: the log is the last copy.
    """
    if not slt.has_partition(address):
        raise RecoveryError(f"{address} has no Stable Log Tail bin")
    bin_ = slt.bin_for_partition(address)
    with bin_.mutex:
        shadow = bin_.condensed_slot
        chain_base = bin_.condensed_base_slot
        shadow_lsn = bin_.condensed_lsn
    images = [
        ("empty" if checkpoint_slot is None else "image", checkpoint_slot, NULL_LSN)
    ]
    if shadow is not None and checkpoint_slot in (chain_base, shadow):
        images.insert(0, ("shadow", shadow, shadow_lsn))
    failure: Exception | None = None
    for source, slot, condensed_lsn in images if history is None else ():
        try:
            base = load_base(disk_queue, slot, address, partition_size)
        except IMAGE_FAILURES as exc:
            failure = exc
            continue
        pages, stats = partition_record_stream(bin_, log_disk, condensed_lsn)
        pages = cut_settled_prefix(pages, command_watermark)
        break
    else:
        if command_watermark > 0:
            raise RecoveryError(
                f"no usable checkpoint image of {address} "
                f"({failure or 'checkpoint disk lost'}) and its "
                f"relation has settled commands (watermark "
                f"{command_watermark}); command logging suppressed their "
                f"after-images, so log history cannot rebuild this partition"
            ) from failure
        source = "history"
        stats = {"pages_read": 0, "backward_reads": 0}
        if history is None:
            history, scan = demultiplex_log_history(log_disk, wanted={address})
            stats["pages_read"] = scan["pages_scanned"]
        base = load_base(disk_queue, None, address, partition_size)
        pages = list(history.get(address, ()))
        if pending_archive is not None:
            pages.append(LogPage(address, pending_archive(address)))
        pages.append(LogPage(address, list(bin_.buffer)))
    base.bin_index = bin_.bin_index
    stats["source"] = source
    return base, pages, stats


def rebuild_partition_resilient(
    address: PartitionAddress,
    checkpoint_slot: int | None,
    disk_queue: "CheckpointDiskQueue",
    log_disk: LogDisk,
    slt: StableLogTail,
    partition_size: int,
    *,
    command_watermark: int = 0,
    pending_archive: PendingArchive | None = None,
    history: History | None = None,
) -> tuple[Partition, dict]:
    """Recover one partition to its committed state: plan, apply, return.

    Takes :func:`plan_rebuild`'s arguments.  Returns the partition plus a
    statistics dict (``source``, ``pages_read``, ``backward_reads``,
    ``records_applied``) that restart and the media restore aggregate.
    """
    partition, pages, stats = plan_rebuild(
        address,
        checkpoint_slot,
        disk_queue,
        log_disk,
        slt,
        partition_size,
        command_watermark=command_watermark,
        pending_archive=pending_archive,
        history=history,
    )
    stats["records_applied"] = sum(page.replay(partition) for page in pages)
    return partition, stats
