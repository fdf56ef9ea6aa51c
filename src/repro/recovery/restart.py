"""Post-crash restart (paper section 2.5): the one way back up.

:func:`restart` is the whole sequence from "the system is down" to "it is
up":

1. Discard uncommitted SLB chains and settle prepared (in-doubt) ones
   (:func:`resolve_in_doubt`); the transaction manager stays (ids are the SLB's).
2. Revert in-progress checkpoint requests (their transactions died).
3. Drain the SLB's committed records into the Stable Log Tail — they were
   durable at commit, the sorting step just had not caught up — and
   acknowledge checkpoints that finished right before the crash so their
   bins do not replay pre-checkpoint records onto post-checkpoint images.
4. Read the catalog partition address list from the well-known stable
   area, recover the catalog partitions, and rebuild the catalogs.
5. Register every catalogued segment with all partitions marked missing.
6. Plan the live command-log suffix, if any, into closures, replaying
   none (docs/LOGGING.md), then signal the transaction manager to begin
   processing: partitions are restored on demand by recovery
   transactions — a closure's partitions by replaying the closure whole
   — while :meth:`RestartCoordinator.background_step` sweeps the
   remainder at low priority between regular transactions, or all at
   once (:attr:`RecoveryMode.EAGER`).

Section 2.6's archive recovery is this sequence with the checkpoint
images lost (``images_lost``): after step 3 the coordinator takes the
complete log history in ONE verified pass over the log disk
(:func:`~repro.recovery.redo.demultiplex_log_history`), every partition
it plans from then on starts empty and replays its history stream.  The
catalog still names the lost image slots: that is what its durable copy
says, and the map rebuild keeps those slot numbers reserved until a
fresh checkpoint supersedes them.  Nothing else differs.

Phase 2's pending work is the segments' own missing partitions.  Every
path restores through :meth:`RestartCoordinator.recover`, so a failed
restore needs no undoing: whatever it did not rebuild is still missing,
and a closure whose replay failed is pending again.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.catalog.catalog import CATALOG_LOCATIONS_KEY, Catalog
from repro.common.errors import RecoveryError, StorageError
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.common.types import PartitionAddress
from repro.recovery.redo import (
    History,
    demultiplex_log_history,
    rebuild_partition_resilient,
)
from repro.recovery.replay_plan import plan_replay, replay_live_commands
from repro.wal.records import TxnCommand, TxnPrepare

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.storage.partition import Partition
    from repro.storage.segment import Segment

register_crash_point(
    "restart.phase1.queue-reverted",
    "restart: in-progress checkpoints reverted, uncommitted chains dropped",
)
register_crash_point(
    "restart.phase1.log-drained",
    "restart: committed SLB records sorted, checkpoints acknowledged",
)
register_crash_point(
    "restart.phase1.catalog-recovered",
    "restart: catalog partitions rebuilt, segments not yet registered",
)
register_crash_point(
    "restart.phase2.partition-recovered",
    "restart: one data partition recovered and installed",
)
register_crash_point(
    "engine.restore.before-partition",
    "restart phase 2: a restore found a partition missing, rebuild not yet started",
)


#: What started a rebuild, as each ``partitions`` record names it: phase 1's
#: catalog restore; a transaction (or an index probe) touching a missing partition;
#: the pump's background sweep; a caller asking by name (a predeclared
#: relation, ``recover_everything``, ``recover``); a command closure's
#: replay.  ``stats()["restart"]["phases"]`` sums the simulated seconds of
#: each.
TRIGGERS = ("catalog", "touch", "background", "explicit", "closure")

#: Upper bounds, in simulated milliseconds, of the buckets
#: ``stats()["restart"]["restore_histogram"]`` counts rebuilds into; a
#: slower rebuild counts under ``"inf"``.
RESTORE_BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500)


class RecoveryMode(enum.Enum):
    """Post-crash restoration policy (paper section 2.5)."""

    #: Restore every partition before returning from restart — the
    #: database-level baseline behaviour.
    EAGER = "eager"
    #: Restore catalogs only; partitions recover when touched, plus one
    #: background partition per :meth:`Database.pump`.
    ON_DEMAND = "on-demand"


def in_doubt_verdicts(db: "Database") -> list[tuple[int, TxnPrepare, str]]:
    """``(txn_id, PREPARE record, verdict)`` for every prepared (in-doubt)
    SLB chain.  The verdict comes from the database's
    ``in_doubt_resolver`` (installed by :class:`~repro.shard.ShardedDatabase`,
    which consults the coordinator shard's stable decision table); without
    a resolver it is the presumed-abort default."""
    verdicts = []
    resolver = db.in_doubt_resolver
    for txn_id, record in db.slb.prepared_txns():
        verdict = "abort" if resolver is None else resolver.decide(record)
        verdicts.append((txn_id, record, verdict))
    return verdicts


def resolve_in_doubt(db: "Database") -> None:
    """Settle every prepared (in-doubt) SLB chain before phase 1.

    Runs right after uncommitted chains are discarded and *before*
    :class:`RestartCoordinator` drains the committed list: a chain
    resolved to COMMIT simply joins the committed list and flows
    through the ordinary restart pipeline, so no special replay path
    exists for 2PC branches.
    """
    resolver = db.in_doubt_resolver
    for txn_id, record, verdict in in_doubt_verdicts(db):
        db.twopc.inc("in_doubt_found")
        if verdict == "commit":
            db.slb.commit_prepared(txn_id)
            db.twopc.inc("in_doubt_committed")
        else:
            db.slb.abort_prepared(txn_id)
            db.twopc.inc("in_doubt_aborted")
        db.audit.record(txn_id, f"in-doubt-{verdict}", db.clock.now)
        if resolver is not None:
            resolver.acknowledge(record, verdict)


def restart(
    db: "Database", mode: RecoveryMode, *, images_lost: bool = False
) -> "RestartCoordinator":
    """Bring the system back: catalogs first, then data per ``mode``.

    ``images_lost`` is section 2.6: the checkpoint disk did not survive,
    so every partition comes back from the log history instead.
    """
    if not db.crashed:
        raise RecoveryError("restart() called but the system is not crashed")
    db.events.emit("restart.begin", mode=mode.value, images_lost=images_lost)
    db.slb.discard_uncommitted()
    resolve_in_doubt(db)
    coordinator = RestartCoordinator(db)
    coordinator.restore_system_state(images_lost)
    db.restart_coordinator = coordinator
    db.crashed = False
    # The live command-log suffix is planned into closures between the
    # phases; each replays on its first touch, before any transaction can
    # lock or observe it.
    coordinator.plan_commands()
    if mode is RecoveryMode.EAGER:
        coordinator.recover_everything()
    coordinator.note_if_recovered()
    return coordinator


class RestartCoordinator:
    """Drives the two-phase restart and the per-partition recovery
    transactions that follow."""

    def __init__(self, db: "Database"):
        self.db = db
        self.partitions_recovered = 0
        self.records_replayed = 0
        self.pages_read = 0
        self.backward_reads = 0
        #: Simulated seconds from restart to transaction-processing-ready.
        self.catalog_restore_seconds: float | None = None
        #: Rebuilds by where each started (:func:`plan_rebuild`'s
        #: ``source``): the checkpoint image, an empty partition, or the
        #: full log history.
        self.sources = dict.fromkeys(("image", "empty", "history"), 0)
        #: One record per rebuilt partition, in rebuild order: its address,
        #: source, trigger (:data:`TRIGGERS`), pages read, records applied
        #: and simulated seconds.
        self.partitions: list[dict] = []
        #: Set once a background step finds nothing missing; no partition
        #: goes missing after phase 1, so the pump's duty is then free.
        self._swept = False
        #: Section 2.6, images lost: the per-partition replay streams every
        #: plan starts from (``None`` at an ordinary restart), and the
        #: counters of the one scan that built them.
        self.history: History | None = None
        self.history_scan: dict = {}
        #: The planned command closures not yet replayed, each under every
        #: segment it restores: its relations and their indexes.  Empty in
        #: steady state — the one check the relation-lock fence costs.
        self.closures: dict[int, list[TxnCommand]] = {}
        #: Set once the ``restart.recovered`` event is emitted.
        self._recovered = False

    # -- phase one: system state ----------------------------------------------------

    def restore_system_state(self, images_lost: bool = False) -> None:
        db = self.db
        start = db.clock.now
        db.checkpoint_queue.revert_in_progress()
        crash_point("restart.phase1.queue-reverted")
        # The drain acknowledges finished checkpoints first; with the images
        # lost, the history source reads neither bin directory nor freed slot,
        # and a finished checkpoint's leftovers reach it via the archive buffer.
        db.recovery_processor.run_until_drained()
        crash_point("restart.phase1.log-drained")
        if images_lost:
            # One verified pass over the entire log history; every later
            # rebuild replays from these in-memory streams.
            self.history, self.history_scan = demultiplex_log_history(db.log_disk)
        entry = db.slb.get_well_known(CATALOG_LOCATIONS_KEY)
        if entry is None:
            # The SLT holds the duplicate copy (section 2.5).
            entry = db.slt.get_well_known(CATALOG_LOCATIONS_KEY)
        if not entry:
            # Nothing was ever created: come up empty.
            db.catalog = Catalog(db.memory)
            self.catalog_restore_seconds = db.clock.now - start
            return
        db.catalog, locations = Catalog.from_well_known_entry(db.memory, entry)
        for address, _ in locations:
            db.catalog.segment.install(self._rebuild(address, "catalog")[0])
        db.catalog.rebuild()
        crash_point("restart.phase1.catalog-recovered")
        self._register_segments()
        db.checkpoint_disk.rebuild_map(db.checkpoints.occupied_slots())
        self.catalog_restore_seconds = db.clock.now - start

    def _register_segments(self) -> None:
        """Register the memory segment of every descriptor the recovered
        catalog holds, all partitions missing: phase 2's work.

        First, a Stable Log Tail bin whose partition no recovered
        descriptor lists is dropped: the growth (or the DDL) that
        registered it died before committing the descriptor — nothing was
        ever logged to it, and the next one takes the same number — or a
        drop died between its commit and releasing its bins.
        """
        db = self.db
        listed = db.catalog.partition_addresses()
        for bin_ in db.slt.bins():
            if bin_.partition not in listed:
                db.slt.drop_partition(bin_.partition)
        for descriptor in (*db.catalog.relations(), *db.catalog.indexes()):
            segment = db.memory.register_segment(descriptor.segment_id, descriptor.name)
            segment.mark_missing(sorted(descriptor.partitions))

    # -- per-partition recovery transactions ------------------------------------------------

    def recover_partition(
        self, address: PartitionAddress, trigger: str = "touch"
    ) -> dict | None:
        """Recovery transaction for one partition; returns its stats, or
        None if the partition is already resident or came back with its
        command closure, which replays whole.  ``trigger`` is what asked
        for it (:data:`TRIGGERS`).

        An unusable checkpoint image — torn by the crash, failing its
        CRC on both mirrors, or holding a stale image of the wrong
        partition — is survived by falling back to full-history replay
        from the log, the archive-recovery path of section 2.6.
        """
        segment = self._missing_from(address)
        if segment is None or self.replay_closure(address.segment):
            return None
        partition, stats = self._rebuild(address, trigger)
        segment.install(partition)
        crash_point("restart.phase2.partition-recovered")
        if segment.fully_resident:
            self.note_if_recovered()
        return stats

    def _missing_from(self, address: PartitionAddress) -> "Segment | None":
        """The segment ``address`` is missing from, or None: resident
        already, or the object was dropped while awaiting recovery."""
        try:
            segment = self.db.memory.segment(address.segment)
        except StorageError:
            return None
        return None if segment.resident(address.partition) is not None else segment

    def _sources(self, address: PartitionAddress) -> dict:
        """The rebuild pipeline's arguments for one partition of this
        database, its image slot and command watermark as the catalog
        records them.  Both phases and the command replay planner pass the
        same inputs — the catalog partitions of phase 1 have leftovers in
        the stable archive buffer like anyone else's — and with the
        images lost every one of them replays the same ``history``."""
        db = self.db
        return dict(
            address=address,
            checkpoint_slot=db.catalog.image_slot(address),
            disk_queue=db.checkpoint_disk,
            log_disk=db.log_disk,
            slt=db.slt,
            partition_size=db.config.partition_size,
            command_watermark=db.catalog.command_watermark(address),
            pending_archive=db.recovery_processor.pending_archive_records,
            history=self.history,
        )

    def _rebuild(self, address: PartitionAddress, trigger: str) -> tuple[Partition, dict]:
        """Rebuild ``address``; a failure other than a crash emits
        ``restart.rebuild-failed``, naming the partition that stopped the
        restart, and propagates."""
        start = self.db.clock.now
        try:
            partition, stats = rebuild_partition_resilient(**self._sources(address))
        except SimulatedCrash:
            raise
        except Exception as exc:
            self.db.events.emit(
                "restart.rebuild-failed",
                address=str(address),
                trigger=trigger,
                error=type(exc).__name__,
                message=str(exc),
            )
            raise
        self._note(address, stats, self.db.clock.now - start, trigger)
        return partition, stats

    # -- command closures (docs/LOGGING.md) ---------------------------------------------------

    def plan_commands(self) -> None:
        """Plan the live command suffix into closures, all pending."""
        db = self.db
        for relations, batch in plan_replay(db):
            for member in db.catalog.with_indexes(sorted(relations)):
                self.closures[member.segment_id] = batch

    def replay_closure(self, segment_id: int) -> bool:
        """Replay the pending closure that restores ``segment_id``, if
        any; returns whether one replayed.

        The closure leaves the pending set first, so its own replay
        transaction locks through the fence.  A replay that fails puts it
        back, its segments missing again and their cached index objects
        dropped, for a retry to start from stable state."""
        batch = self.closures.get(segment_id)
        if batch is None:
            return False
        segments = [key for key, pending in self.closures.items() if pending is batch]
        for key in segments:
            del self.closures[key]
        try:
            replay_live_commands(self.db, batch)
        except BaseException:
            for key in segments:
                self.db.memory.segment(key).evict_all()
                self.closures[key] = batch
            self.db.forget_index_objects(segments)
            raise
        self.note_if_recovered()
        return True

    def replay_closures(self) -> None:
        """Replay every pending closure: what settles every live command
        must find them all resident."""
        while self.closures:
            self.replay_closure(next(iter(self.closures)))

    def recover_relation(self, name: str) -> int:
        """Predeclared access (section 2.5 method 1): restore a relation's
        tuple partitions and all of its index partitions.

        Returns the number of partitions recovered now.
        """
        return self.recover(self.db.commands.partitions([name]))

    def recover_everything(self) -> int:
        """Database-level restoration: restore all partitions now."""
        return self.recover(self._missing())

    def recover(
        self, addresses: Iterable[PartitionAddress], trigger: str = "explicit"
    ) -> int:
        """The one restore loop: rebuild those of ``addresses`` still
        missing, in order, for ``trigger`` (:data:`TRIGGERS`); returns how
        many it rebuilt.

        Nothing is claimed beforehand, so a failure needs no undoing:
        whatever was not rebuilt is still missing, for a retry or the
        background sweep to find.  A closure's partitions count too.
        """
        before = self.partitions_recovered
        for address in addresses:
            if self._missing_from(address) is not None:
                crash_point("engine.restore.before-partition")
                self.recover_partition(address, trigger)
        return self.partitions_recovered - before

    def background_step(self) -> PartitionAddress | None:
        """Low-priority sweep: restore one partition still missing, or
        the command closure it belongs to.

        Called between regular transactions (section 2.5's system
        transaction).  Returns the address recovered, or None when nothing
        is missing — and from then on without looking, since partitions
        only leave the missing sets after phase 1.
        """
        address = None if self._swept else next(self._missing(), None)
        if address is None:
            self._swept = True
            return None
        self.recover((address,), "background")
        return address

    def _missing(self) -> Iterator[PartitionAddress]:
        """Every partition still awaiting recovery, segment by segment."""
        for segment in self.db.memory.segments():
            for number in segment.missing_partitions():
                yield PartitionAddress(segment.segment_id, number)

    # -- progress -------------------------------------------------------------------------------

    @property
    def fully_recovered(self) -> bool:
        db = self.db
        return all(segment.fully_resident for segment in db.memory.segments())

    def note_if_recovered(self) -> None:
        """Emit ``restart.recovered`` the first time every partition is
        resident: after phase one, after a rebuild that completed its
        segment, and after each closure."""
        if not self._recovered and self.fully_recovered:
            self._recovered = True
            self.db.events.emit(
                "restart.recovered",
                partitions=self.partitions_recovered,
                records=self.records_replayed,
            )

    def pending_partitions(self) -> int:
        return sum(
            len(segment.missing_partitions()) for segment in self.db.memory.segments()
        )

    def phases(self) -> dict[str, float]:
        """Simulated seconds of the rebuilds so far, summed by trigger:
        which restores the restart spent its time on."""
        seconds = dict.fromkeys(TRIGGERS, 0.0)
        for entry in self.partitions:
            seconds[entry["trigger"]] += entry["seconds"]
        return seconds

    def restore_histogram(self) -> dict[str, int]:
        """The rebuilds so far counted by simulated seconds, each under the
        first bound of :data:`RESTORE_BOUNDS_MS` it does not exceed
        (``"1ms"`` … ``"500ms"``), else under ``"inf"``."""
        bounds = [ms / 1000 for ms in RESTORE_BOUNDS_MS]
        counts = [0] * (len(bounds) + 1)
        for entry in self.partitions:
            counts[bisect_left(bounds, entry["seconds"])] += 1
        return dict(zip([f"{ms}ms" for ms in RESTORE_BOUNDS_MS] + ["inf"], counts))

    def _note(
        self, address: PartitionAddress, stats: dict, seconds: float, trigger: str
    ) -> None:
        """Tally one finished rebuild of ``address``, which took
        ``seconds`` of simulated time for ``trigger`` — by the pipeline
        here or by the command replay planner, which walks the same
        streams — and record it."""
        db = self.db
        if self.history is not None and stats["records_applied"]:
            # Full-history replay is recovery-component work: charge the
            # Table 2 record lookup + page update per record, the same
            # work the sorting step pays.
            params = db.config.analysis
            db.recovery_cpu.charge(
                (params.i_record_lookup + params.i_page_update)
                * stats["records_applied"],
                "media-replay",
            )
        pages = stats["pages_read"] + stats["backward_reads"]
        self.partitions_recovered += 1
        self.records_replayed += stats["records_applied"]
        self.pages_read += pages
        self.backward_reads += stats["backward_reads"]
        self.sources[stats["source"]] += 1
        entry = {
            "address": str(address),
            "source": stats["source"],
            "trigger": trigger,
            "pages_read": pages,
            "records_applied": stats["records_applied"],
            "seconds": seconds,
        }
        self.partitions.append(entry)
        db.events.emit("restart.rebuilt", **entry)
