"""Post-crash restart (paper section 2.5): the one way back up.

:func:`restart` is the whole sequence from "the system is down" to "it is
up":

1. Discard uncommitted SLB chains and settle prepared (in-doubt) ones
   (:func:`resolve_in_doubt`); start a fresh transaction manager.
2. Revert in-progress checkpoint requests (their transactions died).
3. Drain the SLB's committed records into the Stable Log Tail — they were
   durable at commit, the sorting step just had not caught up — and
   acknowledge checkpoints that finished right before the crash so their
   bins do not replay pre-checkpoint records onto post-checkpoint images.
4. Read the catalog partition address list from the well-known stable
   area, recover the catalog partitions, and rebuild the catalogs.
5. Register every catalogued segment with all partitions marked missing.
6. Re-execute the live command-log suffix (docs/LOGGING.md), then signal
   the transaction manager to begin processing: partitions are restored
   on demand by recovery transactions, while
   :meth:`RestartCoordinator.background_step` sweeps the remainder at low
   priority between regular transactions — or all at once
   (:attr:`RecoveryMode.EAGER`).

Section 2.6's archive recovery is this sequence with the checkpoint
images lost (``images_lost``): after step 3 the coordinator takes the
complete log history in ONE verified pass over the log disk
(:func:`~repro.recovery.redo.demultiplex_log_history`), every partition
it plans from then on starts empty and replays its history stream, and
after step 4 everything that lived on the lost disk is forgotten
(:meth:`RestartCoordinator._forget_lost_images`).  Nothing else differs.
"""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING

from repro.catalog.catalog import CATALOG_LOCATIONS_KEY, Catalog, IndexDescriptor
from repro.common.errors import RecoveryError, StorageError
from repro.sim.chaos import crash_point, register_crash_point
from repro.common.types import PartitionAddress, SegmentKind
from repro.recovery.redo import (
    History,
    demultiplex_log_history,
    plan_rebuild,
    rebuild_partition_resilient,
)
from repro.recovery.replay_plan import replay_live_commands
from repro.txn.manager import TransactionManager
from repro.wal.records import TxnPrepare, decode_control

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.storage.partition import Partition
    from repro.wal.log_disk import LogPage

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


class RecoveryMode(enum.Enum):
    """Post-crash restoration policy (paper section 2.5)."""

    #: Restore every partition before returning from restart — the
    #: database-level baseline behaviour.
    EAGER = "eager"
    #: Restore catalogs only; partitions recover when touched, plus one
    #: background partition per :meth:`Database.pump`.
    ON_DEMAND = "on-demand"


def resolve_in_doubt(db: "Database") -> None:
    """Settle every prepared (in-doubt) SLB chain before phase 1.

    Runs right after uncommitted chains are discarded and *before*
    :class:`RestartCoordinator` drains the committed list: a chain
    resolved to COMMIT simply joins the committed list and flows
    through the ordinary restart pipeline, so no special replay path
    exists for 2PC branches.  The verdict comes from the database's
    ``in_doubt_resolver`` (installed by
    :class:`~repro.shard.ShardedDatabase`, which consults the
    coordinator shard's stable decision table); without a resolver
    the outcome is the presumed-abort default.
    """
    for txn_id, payload in db.slb.prepared_txns():
        record, _ = decode_control(payload)
        if not isinstance(record, TxnPrepare):
            raise RecoveryError(
                f"prepared chain of txn {txn_id} carries a "
                f"{type(record).__name__}, expected TxnPrepare"
            )
        db.twopc.inc("in_doubt_found")
        resolver = db.in_doubt_resolver
        verdict = "abort" if resolver is None else resolver.decide(record)
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
    db.slb.discard_uncommitted()
    resolve_in_doubt(db)
    db.transactions = TransactionManager(db)
    coordinator = RestartCoordinator(db)
    coordinator.restore_system_state(images_lost)
    db.restart_coordinator = coordinator
    db.crashed = False
    # Command replay runs unconditionally between the phases: the live
    # command-log suffix is re-executed (in dependency-batched parallel
    # under a worker engine) before any user transaction — or an eager
    # bulk restore — can observe a closure partition.
    replay_live_commands(db)
    if mode is RecoveryMode.EAGER:
        coordinator.recover_everything()
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
        #: ``source``): a condensed shadow, the checkpoint image, an empty
        #: partition, or the full log history.
        self.sources = dict.fromkeys(("shadow", "image", "empty", "history"), 0)
        self._background_queue: list[PartitionAddress] = []
        #: Guards the background work queue — phase-2 restore workers pull
        #: from it concurrently under the threaded engine.
        self._queue_mutex = threading.RLock()
        #: Guards the aggregate statistics above.
        self._stats_mutex = threading.Lock()
        #: Partitions currently being rebuilt by some worker; a second
        #: caller waits for the first instead of rebuilding twice.
        self._inflight: set[PartitionAddress] = set()
        self._inflight_cv = threading.Condition()
        #: Section 2.6, images lost: the per-partition replay streams every
        #: plan starts from (``None`` at an ordinary restart), and the
        #: counters of the one scan that built them.
        self.history: History | None = None
        self.history_scan: dict = {}

    # -- phase one: system state ----------------------------------------------------

    def restore_system_state(self, images_lost: bool = False) -> None:
        db = self.db
        start = db.clock.now
        db.checkpoint_queue.revert_in_progress()
        crash_point("restart.phase1.queue-reverted")
        db.recovery_processor.run_until_drained()
        # With the images lost too: the history source reads neither the
        # bin directory nor the freed slot, and a finished checkpoint's
        # leftovers reach it through the stable archive buffer.
        db.recovery_processor.acknowledge_finished()
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
        catalog, locations = Catalog.from_well_known_entry(db.memory, entry)
        for address, slot in locations:
            partition, stats = self._rebuild(address, slot)
            catalog.segment.install(partition)
            self._note(stats)
        db.catalog = catalog
        catalog.rebuild()
        if images_lost:
            self._forget_lost_images()
        crash_point("restart.phase1.catalog-recovered")
        self._register_segments()
        db.checkpoint_disk.rebuild_map(db.checkpoints.occupied_slots())
        self.catalog_restore_seconds = db.clock.now - start

    def _forget_lost_images(self) -> None:
        """Everything that lived on the lost checkpoint disk, forgotten in
        one place: the catalog's own slots, every descriptor slot, every
        condense chain.  The ordinary map rebuild then finds nothing
        occupied and the replacement disk starts clean."""
        db = self.db
        slots = db.catalog.own_partition_slots
        for number in slots:
            slots[number] = None
        for descriptor in (*db.catalog.relations(), *db.catalog.indexes()):
            for info in descriptor.partitions.values():
                info.checkpoint_slot = None
            # In the entity bytes too (unlogged: the fresh checkpoints that
            # follow log the descriptor whole): a failed attempt among them
            # re-derives the descriptor from its bytes and must not find a
            # lost slot there.
            db.catalog.update(descriptor, None)
        for bin_ in db.slt.bins():
            db.slt.clear_condense_state(bin_.bin_index)

    def _register_segments(self) -> None:
        """Register the memory segment of every descriptor the recovered
        catalog holds, all partitions missing and queued for phase 2.

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
            kind = (
                SegmentKind.INDEX
                if isinstance(descriptor, IndexDescriptor)
                else SegmentKind.RELATION
            )
            segment = db.memory.register_segment(
                descriptor.segment_id, kind, descriptor.name
            )
            numbers = sorted(descriptor.partitions)
            segment.mark_missing(numbers)
            with self._queue_mutex:
                self._background_queue.extend(
                    PartitionAddress(descriptor.segment_id, number)
                    for number in numbers
                )

    # -- per-partition recovery transactions ------------------------------------------------

    def recover_partition(self, address: PartitionAddress) -> dict | None:
        """Recovery transaction for one partition; returns its stats, or
        None if the partition is already resident.

        An unusable checkpoint image — torn by the crash, failing its
        CRC on both mirrors, or holding a stale image of the wrong
        partition — is survived by falling back to full-history replay
        from the log, the archive-recovery path of section 2.6.
        """
        db = self.db
        try:
            segment = db.memory.segment(address.segment)
        except StorageError:
            # the object was dropped while awaiting recovery: nothing to do
            return None
        with self._inflight_cv:
            while address in self._inflight:
                self._inflight_cv.wait()
            if segment.is_resident(address.partition):
                return None
            self._inflight.add(address)
        try:
            partition, stats = self._rebuild(
                address,
                self._checkpoint_slot(address),
                self._command_watermark(address),
            )
            with db.view_lock:
                segment.install(partition)
            self._note(stats)
            crash_point("restart.phase2.partition-recovered")
            return stats
        finally:
            with self._inflight_cv:
                self._inflight.discard(address)
                self._inflight_cv.notify_all()

    def _sources(
        self, address: PartitionAddress, slot: int | None, command_watermark: int
    ) -> dict:
        """The rebuild pipeline's arguments for one partition of this
        database.  Both phases and the command replay planner pass the
        same inputs — the catalog partitions of phase 1 have leftovers in
        the stable archive buffer like anyone else's — and with the
        images lost every one of them replays the same ``history``."""
        db = self.db
        return dict(
            address=address,
            checkpoint_slot=slot,
            disk_queue=db.checkpoint_disk,
            log_disk=db.log_disk,
            slt=db.slt,
            partition_size=db.config.partition_size,
            command_watermark=command_watermark,
            pending_archive=db.recovery_processor.pending_archive_records,
            history=self.history,
        )

    def plan(
        self, address: PartitionAddress, slot: int | None, command_watermark: int = 0
    ) -> tuple[Partition, list[LogPage], dict]:
        """:func:`~repro.recovery.redo.plan_rebuild` for one partition: the
        base and the pages still to apply, for the command replay
        planner to interleave script re-execution with."""
        return plan_rebuild(**self._sources(address, slot, command_watermark))

    def _rebuild(
        self, address: PartitionAddress, slot: int | None, command_watermark: int = 0
    ) -> tuple[Partition, dict]:
        partition, stats = rebuild_partition_resilient(
            **self._sources(address, slot, command_watermark)
        )
        if self.history is not None and stats["records_applied"]:
            # Full-history replay is recovery-component work: charge the
            # Table 2 record lookup + page update per record, the same
            # work the sorting step pays.
            params = self.db.config.analysis
            self.db.recovery_cpu.charge(
                (params.i_record_lookup + params.i_page_update)
                * stats["records_applied"],
                "media-replay",
            )
        return partition, stats

    def _checkpoint_slot(self, address: PartitionAddress) -> int | None:
        db = self.db
        if address.segment == db.catalog.segment.segment_id:
            return db.catalog.own_partition_slots.get(address.partition)
        descriptor = db.catalog.descriptor_for_segment(address.segment)
        info = descriptor.partitions.get(address.partition)
        if info is None:
            raise RecoveryError(f"{address} is not catalogued")
        return info.checkpoint_slot

    def _command_watermark(self, address: PartitionAddress) -> int:
        """The owning relation's settled-command watermark (0 for catalog
        partitions: catalog changes are always value-logged)."""
        db = self.db
        if address.segment == db.catalog.segment.segment_id:
            return 0
        return db.catalog.relation_of_segment(address.segment).command_watermark

    def recover_relation(self, name: str) -> int:
        """Predeclared access (section 2.5 method 1): restore a relation's
        tuple partitions and all of its index partitions.

        Returns the number of partitions recovered now.
        """
        db = self.db
        descriptor = db.catalog.relation(name)
        targets = descriptor.partition_addresses()
        for index_descriptor in db.catalog.indexes_of(name):
            targets.extend(index_descriptor.partition_addresses())
        return db.engine.restore_partitions(targets)

    def recover_everything(self) -> int:
        """Database-level restoration: restore all partitions now."""
        return self.db.engine.restore_partitions(self.drain_queue())

    def drain_queue(self) -> list[PartitionAddress]:
        """Claim the whole background work queue (for a bulk restore)."""
        with self._queue_mutex:
            addresses = list(self._background_queue)
            self._background_queue.clear()
        return addresses

    def requeue(self, addresses: list[PartitionAddress]) -> None:
        """Return claimed-but-unrecovered addresses to the queue head so a
        failed bulk restore leaves nothing stranded."""
        if not addresses:
            return
        with self._queue_mutex:
            self._background_queue[:0] = addresses

    def take_pending(self) -> PartitionAddress | None:
        """Claim one address from the background queue, or None."""
        with self._queue_mutex:
            if self._background_queue:
                return self._background_queue.pop(0)
        return None

    def background_step(self) -> PartitionAddress | None:
        """Low-priority sweep: restore one not-yet-recovered partition.

        Called between regular transactions (section 2.5's system
        transaction).  Returns the address recovered, or None when done.
        """
        while True:
            address = self.take_pending()
            if address is None:
                return None
            if self.recover_partition(address) is not None:
                return address

    # -- progress -------------------------------------------------------------------------------

    @property
    def fully_recovered(self) -> bool:
        db = self.db
        return all(segment.fully_resident for segment in db.memory.segments())

    def pending_partitions(self) -> int:
        return sum(
            len(segment.missing_partitions()) for segment in self.db.memory.segments()
        )

    def _note(self, stats: dict) -> None:
        with self._stats_mutex:
            self.partitions_recovered += 1
            self.records_replayed += stats["records_applied"]
            self.pages_read += stats["pages_read"] + stats["backward_reads"]
            self.backward_reads += stats["backward_reads"]
            self.sources[stats["source"]] += 1
