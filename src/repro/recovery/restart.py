"""Post-crash restart orchestration (paper section 2.5).

Order of operations:

1. Revert in-progress checkpoint requests (their transactions died) and
   discard uncommitted SLB chains.
2. Drain the SLB's committed records into the Stable Log Tail — they were
   durable at commit, the sorting step just had not caught up.
3. Acknowledge checkpoints that finished right before the crash so their
   bins do not replay pre-checkpoint records onto post-checkpoint images.
4. Read the catalog partition address list from the well-known stable
   area, recover the catalog partitions, and rebuild the catalogs.
5. Register every catalogued segment with all partitions marked missing.
6. Signal the transaction manager to begin processing: partitions are
   then restored on demand by recovery transactions, while
   :meth:`RestartCoordinator.background_step` sweeps the remainder at low
   priority between regular transactions.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator

from repro.catalog.catalog import (
    CATALOG_LOCATIONS_KEY,
    Catalog,
    IndexDescriptor,
    RelationDescriptor,
)
from repro.common.errors import RecoveryError, StorageError
from repro.sim.chaos import crash_point, register_crash_point
from repro.common.types import PartitionAddress, SegmentKind
from repro.recovery.redo import rebuild_partition_resilient

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


def register_catalogued_segments(
    db: "Database",
) -> Iterator[tuple[RelationDescriptor | IndexDescriptor, Segment]]:
    """Register the memory segment of every descriptor the recovered
    catalog holds, for the caller to fill.

    A listed partition with neither a Stable Log Tail bin nor a checkpoint
    image never held anything durable: catalog entities are not two-phase
    locked, so a committed after-image can carry a growth of another
    transaction that later aborted and released the partition and its bin
    (ROADMAP item 4).  It is dropped from the descriptor and its entity
    here (unlogged: the next restart decides the same from the same log).
    """
    for descriptor in (*db.catalog.relations(), *db.catalog.indexes()):
        released = [
            number
            for number, info in descriptor.partitions.items()
            if info.checkpoint_slot is None
            and not db.slt.has_partition(PartitionAddress(descriptor.segment_id, number))
        ]
        if released:
            for number in released:
                del descriptor.partitions[number]
            db.catalog.update(descriptor, None)
        kind = (
            SegmentKind.INDEX
            if isinstance(descriptor, IndexDescriptor)
            else SegmentKind.RELATION
        )
        yield descriptor, db.memory.register_segment(
            descriptor.segment_id, kind, descriptor.name
        )


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
        self.torn_images_survived = 0
        #: Partitions restored from a condensed shadow image, replaying
        #: only the uncondensed suffix (docs/CONDENSING.md).
        self.condensed_restores = 0
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

    # -- phase one: system state ----------------------------------------------------

    def restore_system_state(self) -> None:
        db = self.db
        start = db.clock.now
        db.checkpoint_queue.revert_in_progress()
        crash_point("restart.phase1.queue-reverted")
        db.recovery_processor.run_until_drained()
        db.recovery_processor.acknowledge_finished()
        crash_point("restart.phase1.log-drained")
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
        crash_point("restart.phase1.catalog-recovered")
        self._register_segments()
        db.checkpoint_disk.rebuild_map(db.checkpoints.occupied_slots())
        self.catalog_restore_seconds = db.clock.now - start

    def _register_segments(self) -> None:
        for descriptor, segment in register_catalogued_segments(self.db):
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

    def _rebuild(
        self, address: PartitionAddress, slot: int | None, command_watermark: int = 0
    ) -> tuple[Partition, dict]:
        """Both phases rebuild through the one pipeline with the same
        inputs — the catalog partitions of phase 1 have leftovers in the
        stable archive buffer like anyone else's."""
        db = self.db
        return rebuild_partition_resilient(
            address,
            slot,
            db.checkpoint_disk,
            db.log_disk,
            db.slt,
            db.config.partition_size,
            command_watermark=command_watermark,
            pending_archive=db.recovery_processor.pending_archive_records,
        )

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
            if stats["source"] == "shadow":
                self.condensed_restores += 1
            elif stats["source"] == "history":
                self.torn_images_survived += 1
