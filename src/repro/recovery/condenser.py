"""Background condensing: write-behind shadow checkpoints (docs/CONDENSING.md).

Lehman & Carey's recovery CPU is mostly idle between its sorting and
flushing duties; Sauer & Härder's "instant restore" observation (PAPERS.md)
is that this idle time can continuously propagate the log into the
persistent image so the REDO suffix — and with it restart wall-clock —
stays bounded no matter how much log accumulates.

The condenser realises that here as a per-partition *shadow chain*:

* Each slice picks the partition bin with the largest uncondensed lag,
  reads the chain's base image (the newest shadow, or the regular catalog
  image the chain grew from), folds the next few flushed log pages into
  it, writes the result to a **fresh** checkpoint-disk slot, and only then
  **publishes** it under the bin mutex: ``condensed_slot`` swings to the
  new image and ``condensed_lsn`` advances to the last folded page.  Old
  images are never overwritten and the superseded shadow is freed only
  after the publish, so every crash window leaves either the old chain or
  the new one intact — unpublished slots are simply unreferenced and are
  swept up by the restart map rebuild.
* Only committed records ever reach flushed pages, so a shadow image is
  transaction-consistent by construction; restart may load it in place of
  the regular image and replay just the suffix past ``condensed_lsn``
  (:func:`repro.recovery.redo.plan_rebuild`).
* Partitions whose owning relation has *live commands* are skipped: their
  streams carry :class:`~repro.wal.records.CommandBarrier` split points
  the replay planner must see in the log, not folded silently into an
  image.  Catalog partitions are skipped too — their images anchor the
  well-known location list.
* Once a slice is published, the folded log pages are moved to the
  archive and their spindle blocks freed
  (:meth:`~repro.wal.log_disk.LogDisk.reclaim_condensed`) — condensing
  actually relieves log-window pressure instead of merely shortening
  restart.

A fully condensed partition lets the checkpoint manager satisfy an age or
update-count trigger with a *flip* — installing the shadow slot as the
catalog image without copying anything (docs/CONDENSING.md, "checkpoint
as a consequence of condensing").
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.common.errors import CatalogError
from repro.recovery.redo import IMAGE_FAILURES, enumerate_log_pages, load_base
from repro.recovery.replay_plan import decode_live_commands
from repro.sim.chaos import crash_point, register_crash_point
from repro.wal.slt import PartitionBin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

register_crash_point(
    "condense.slice.applied",
    "condense: slice records folded into the side image, nothing durable yet",
)
register_crash_point(
    "condense.image.before-publish",
    "condense: shadow image durable in a fresh slot, chain not yet repointed",
)
register_crash_point(
    "condense.image.after-publish",
    "condense: chain repointed at the new shadow, old slot not yet freed",
)

#: Latch-owner ids for condenser slot allocations, far above transaction
#: ids (mirroring ``REPLAY_TXN_BASE``) so audit trails never confuse the
#: background duty with a checkpoint transaction.
CONDENSER_OWNER_BASE = 2_000_000_000

#: Upper bound on log pages folded per condense slice — one slice is one
#: unit of idle-time work, so this caps how long the recovery CPU stays
#: busy before checking for real duties again.
PAGES_PER_SLICE = 4
#: A partition becomes a condense candidate once it has more than this
#: many flushed-but-uncondensed log pages (0: whenever it has any).
LAG_TARGET_PAGES = 0


class Condenser:
    """The recovery CPU's idle-time condensing duty."""

    def __init__(self, db: "Database"):
        self.db = db
        #: Guards the pause counter only; all chain state lives in the
        #: stable bins under their own mutexes.
        self._mutex = threading.RLock()
        self._paused = 0  # guarded-by: _mutex
        # statistics (cumulative, like the checkpoint manager's counters)
        self.slices = 0
        self.pages_condensed = 0
        self.records_condensed = 0
        self.publishes = 0
        self.discards = 0
        self.failed_slices = 0

    # -- pause / resume ---------------------------------------------------------

    def pause(self) -> None:
        """Stop starting new slices (checkpoint transactions pause the
        condenser so a flip decision races at most one in-flight slice,
        which the publish-time snapshot check and the restart validity
        rule already tolerate)."""
        with self._mutex:
            self._paused += 1

    def resume(self) -> None:
        with self._mutex:
            self._paused = max(0, self._paused - 1)

    # -- the idle-time duty -----------------------------------------------------

    def step(self) -> int:
        """Run one condense slice; returns the number of pages folded.

        Engines append this to the recovery CPU's pump duties; it is a
        no-op while disabled, paused, or crashed.
        """
        db = self.db
        if not db.config.condense_enabled or db.crashed:
            return 0
        with self._mutex:
            if self._paused:
                return 0
        picked = self._pick_bin()
        if picked is None:
            return 0
        bin_, catalog_slot = picked
        return self._condense_slice(bin_, catalog_slot)

    def max_lag_pages(self) -> int:
        """Largest flushed-but-uncondensed page count over all bins.

        Racy field reads by design (cf. ``update_count_candidates``):
        this is an observability number, refreshed every snapshot.
        """
        lag = 0
        for bin_ in self.db.slt.bins():
            lag = max(lag, bin_.flushed_pages - bin_.condensed_pages)
        return lag

    def stats_snapshot(self) -> dict:
        db = self.db
        return {
            "enabled": db.config.condense_enabled,
            "slices": self.slices,
            "pages_condensed": self.pages_condensed,
            "records_condensed": self.records_condensed,
            "publishes": self.publishes,
            "discards": self.discards,
            "failed_slices": self.failed_slices,
            "flips_taken": db.checkpoints.flips_taken,
            "log_pages_reclaimed": db.log_disk.pages_condense_reclaimed,
            "max_lag_pages": self.max_lag_pages(),
        }

    # -- candidate selection ----------------------------------------------------

    def _pick_bin(self) -> tuple[PartitionBin, int | None] | None:
        """The eligible bin with the largest uncondensed lag, plus its
        current catalog slot.  Also reconciles every chain against the
        catalog on the way past (see :meth:`_reconcile`)."""
        db = self.db
        catalog_segment = db.catalog.segment.segment_id
        busy = {
            name
            for command in decode_live_commands(db)
            for name in command.relations
        }
        # A *queued* checkpoint request is no reason to stop — condensing
        # the bin further is what lets the eventual checkpoint flip instead
        # of copy.  Only a checkpoint already past REQUEST (running, or
        # finished and awaiting its bin reset) excludes the bin.
        in_flight = {e.partition for e in db.checkpoint_queue.in_flight()}
        best: tuple[PartitionBin, int | None] | None = None
        best_lag = LAG_TARGET_PAGES
        for bin_ in db.slt.bins():
            address = bin_.partition
            if address.segment == catalog_segment:
                continue
            try:
                descriptor = db.catalog.descriptor_for_segment(address.segment)
                relation = db.catalog.relation_of_segment(address.segment)
            except CatalogError:
                continue  # mid-DDL: not (or no longer) catalogued
            info = descriptor.partitions.get(address.partition)
            catalog_slot = info.checkpoint_slot if info is not None else None
            stale = self._reconcile(bin_, catalog_slot)
            if stale is not None:
                db.checkpoint_disk.free(stale)
            # racy field reads by design, like update_count_candidates
            if address in in_flight or relation.name in busy:
                continue
            lag = bin_.flushed_pages - bin_.condensed_pages
            if lag > best_lag:
                best = (bin_, catalog_slot)
                best_lag = lag
        return best

    def _reconcile(
        self, bin_: PartitionBin, catalog_slot: int | None
    ) -> int | None:
        """Align a bin's chain with the catalog.

        Three cases: the chain still grows from the current catalog slot
        (nothing to do); a flip installed the shadow *as* the catalog slot
        (rebase — the next extension grows from the flipped image); or a
        copy checkpoint / sweep superseded the chain entirely (discard it
        and return the stale shadow slot for the caller to free).
        """
        with bin_.mutex:
            shadow = bin_.condensed_slot
            if shadow is None or bin_.condensed_base_slot == catalog_slot:
                return None
            if shadow == catalog_slot:
                bin_.condensed_base_slot = catalog_slot
                return None
            self.db.slt.clear_condense_state(bin_.bin_index)
        self.discards += 1
        return shadow

    # -- one slice --------------------------------------------------------------

    def _condense_slice(
        self, bin_: PartitionBin, catalog_slot: int | None
    ) -> int:
        db = self.db
        address = bin_.partition
        with bin_.mutex:
            shadow = bin_.condensed_slot
            base_at_start = bin_.condensed_base_slot
            condensed_lsn = bin_.condensed_lsn
        # The chain's base: the newest shadow if one exists, else the
        # regular catalog image (recorded as the chain's base so restart
        # and reconciliation can tell whether the chain is still current).
        chain_base = base_at_start if shadow is not None else catalog_slot
        # A background duty absorbs I/O and corruption failures — it gives
        # the slice up (or drops the chain) instead of taking the pump
        # down; restart has its own fallbacks.
        try:
            staging = load_base(
                db.checkpoint_disk,
                shadow if shadow is not None else catalog_slot,
                address,
                db.config.partition_size,
            )
        except IMAGE_FAILURES:
            self.failed_slices += 1
            if shadow is not None:
                # The chain's own base is unreadable — the chain is dead
                # weight; drop it so the next pass regrows from the
                # regular image.  A torn *catalog* image is not ours to
                # touch: restart owns that fallback.
                dropped = False
                with bin_.mutex:
                    if bin_.condensed_slot == shadow:
                        db.slt.clear_condense_state(bin_.bin_index)
                        dropped = True
                if dropped:  # free outside the bin mutex (lock order)
                    self.discards += 1
                    db.checkpoint_disk.free(shadow)
            return 0
        try:
            lsns, cache, _ = enumerate_log_pages(bin_, db.log_disk, condensed_lsn)
            take = lsns[:PAGES_PER_SLICE]
            if not take:
                return 0
            folded_records = 0
            for lsn in take:
                page = cache.get(lsn)
                if page is None:
                    page = db.log_disk.read_page(lsn, expected=address)
                folded_records += page.replay(staging)
        except IMAGE_FAILURES:
            self.failed_slices += 1
            return 0
        cost = db.config.analysis
        db.recovery_cpu.charge(
            (cost.i_record_lookup + cost.i_page_update) * folded_records,
            "condense",
        )
        crash_point("condense.slice.applied")
        new_slot = db.checkpoint_disk.allocate(
            CONDENSER_OWNER_BASE + bin_.bin_index
        )
        db.recovery_cpu.charge(cost.i_write_init, "condense")
        try:
            db.checkpoint_disk.write_image(new_slot, staging.to_bytes())
        except IMAGE_FAILURES:
            db.checkpoint_disk.free(new_slot)
            self.failed_slices += 1
            return 0
        crash_point("condense.image.before-publish")
        freed: int | None = None
        published = False
        with bin_.mutex:
            # Publish only if the chain we extended is still the chain on
            # the bin — a checkpoint acknowledgement may have reset it
            # while the image write was in flight.
            if (
                not db.crashed
                and bin_.condensed_slot == shadow
                and bin_.condensed_base_slot == base_at_start
            ):
                freed = bin_.condensed_slot
                bin_.condensed_slot = new_slot
                bin_.condensed_base_slot = chain_base
                bin_.condensed_lsn = take[-1]
                bin_.condensed_pages += len(take)
                published = True
        crash_point("condense.image.after-publish")
        if not published:
            db.checkpoint_disk.free(new_slot)
            return 0
        self.slices += 1
        self.pages_condensed += len(take)
        self.records_condensed += folded_records
        self.publishes += 1
        if freed is not None and freed != chain_base and freed != catalog_slot:
            # The superseded shadow.  Never the chain's base image (a
            # just-rebased flip target) nor the catalog's current slot.
            db.checkpoint_disk.free(freed)
        # The folded pages are no longer needed for memory recovery:
        # archive them and free their spindle blocks.
        db.log_disk.reclaim_condensed(take)
        return len(take)
