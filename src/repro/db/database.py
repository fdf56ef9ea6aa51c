"""The Database: wiring of the MM-DBMS recovery architecture.

One object owns the simulated hardware (clock, two CPUs, stable memories,
duplexed log disks, checkpoint disk), the volatile database (segments,
partitions, locks, catalogs), and the recovery component (Stable Log
Buffer, Stable Log Tail, recovery processor, checkpoint manager, restart
coordinator).  The restart sequence lives in
:func:`repro.recovery.restart.restart`; the between-transactions duties
are scheduled by an :class:`~repro.engine.ExecutionEngine`.

Scheduling: the recovery CPU's duties run when :meth:`Database.pump` is
called — the transaction manager's between-transactions moment of paper
section 2.4 — and transparently when the SLB fills (back-pressure).
``transaction()`` scopes pump on exit by default, so ordinary usage needs
no explicit pumping.  Under the default
:class:`~repro.engine.sim.SimEngine` everything is cooperative and
deterministic; the :class:`~repro.engine.threaded.ThreadedEngine` runs
the recovery processor on its own host thread and restores partitions
concurrently during restart phase 2 (see ``docs/ENGINES.md``).

Crash semantics: :meth:`crash` discards everything volatile (partitions,
lock tables, active transactions, catalog caches, index objects) and keeps
everything stable (SLB, SLT, disks).  :meth:`restart` drains the stable
log, recovers the catalogs, and then recovers partitions either eagerly
(:attr:`RecoveryMode.EAGER`) or on demand with background sweeping
(:attr:`RecoveryMode.ON_DEMAND`), exactly the two-phase restart of paper
section 2.5.
"""

from __future__ import annotations

import contextlib
import json
import threading
from typing import Callable

from repro.catalog.catalog import (
    CATALOG_LOCATIONS_KEY,
    Catalog,
    IndexDescriptor,
    PartitionInfo,
    RelationDescriptor,
)
from repro.catalog.schema import Schema
from repro.checkpoint.disk_queue import CheckpointDiskQueue
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.protocol import CheckpointQueue
from repro.common.config import LOGGING_MODES, SystemConfig, expect_one_of
from repro.common.counters import Counters
from repro.common.errors import (
    CatalogError,
    RecoveryError,
    StableMemoryFullError,
    StorageError,
)
from repro.common.types import EntityAddress, PartitionAddress, SegmentKind
from repro.concurrency.locks import LockManager, LockMode
from repro.db.relation import Relation
from repro.engine import ExecutionEngine, engine_from_env
from repro.index.linear_hash import LinearHashIndex
from repro.index.node_store import NodeStore
from repro.index.ttree import TTreeIndex
from repro.recovery.condenser import Condenser
from repro.recovery.processor import RecoveryProcessor
from repro.recovery.restart import RecoveryMode, RestartCoordinator, restart as restart_sequence
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuMeter
from repro.sim.disk import DuplexedDisk, SimulatedDisk
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import RetryPolicy
from repro.sim.stable_memory import StableMemory
from repro.storage.memory_manager import MemoryManager
from repro.storage.partition import Partition
from repro.storage.segment import Segment
from repro.txn.manager import TransactionManager
from repro.txn.registry import ScriptRegistry
from repro.txn.transaction import Transaction
from repro.wal.audit import AuditLog
from repro.wal.log_disk import LogDisk
from repro.wal.records import RedoRecord
from repro.wal.slb import StableLogBuffer
from repro.wal.slt import StableLogTail

__all__ = [
    "CATALOG_LOCATIONS_KEY",
    "Database",
    "MAIN_CPU_MIPS",
    "RecoveryMode",
]

MAIN_CPU_MIPS = 6.0

register_crash_point(
    "growth.catalogued", "segment growth: bin and descriptor entry logged, not yet committed"
)
register_crash_point(
    "growth.committed", "segment growth: committed, before the caller's first write to it"
)


class Database:
    """A main-memory DBMS with the paper's recovery architecture."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        engine: ExecutionEngine | None = None,
    ):
        self.config = config if config is not None else SystemConfig()
        #: Serialises partition installs against :meth:`stats`, so the
        #: snapshot reads a consistent view while restore workers install
        #: partitions concurrently.
        self.view_lock = threading.RLock()
        self._build_hardware()
        self._build_volatile()
        self._build_recovery_component()
        self.engine = engine if engine is not None else engine_from_env()
        self.engine.attach(self)
        self.crashed = False
        self.restart_coordinator: RestartCoordinator | None = None
        #: Plan statistics of the most recent command replay
        #: (:func:`~repro.recovery.replay_plan.replay_live_commands`);
        #: ``None`` until a restart has run one.
        self.last_command_replay: dict | None = None
        #: Registered transaction scripts (docs/LOGGING.md).  Volatile —
        #: the application re-registers at boot — but versions are
        #: mirrored in stable memory to fence schema drift at replay.
        self.scripts = ScriptRegistry(self.slb)
        #: Optional hook invoked as ``observer(txn)`` the instant a
        #: transaction becomes durable (used by the recovery oracle).
        self.commit_observer = None
        #: The most recent :class:`~repro.txn.scheduler.Scheduler`
        #: attached via :meth:`register_scheduler`; surfaces its counters in
        #: :meth:`stats`.
        self.scheduler = None
        #: Shard identity when this database is one node of a
        #: :class:`~repro.shard.ShardedDatabase` (``None`` standalone).
        self.shard_id: int | None = None
        #: 2PC counters for this node: phase-2 outcomes, decisions logged
        #: here, in-doubt resolutions at restart (prepares are the SLB's).
        self.twopc = Counters(
            "prepared_commits",
            "prepared_aborts",
            "decisions_logged",
            "in_doubt_found",
            "in_doubt_committed",
            "in_doubt_aborted",
        )
        #: In-doubt resolver consulted by restart for prepared chains.
        #: Duck-typed: ``decide(prepare) -> "commit" | "abort"`` and
        #: ``acknowledge(prepare, verdict)`` after the verdict applied.
        #: ``None`` means presumed abort (a standalone database has no
        #: coordinator to ask, so every in-doubt chain rolls back).
        self.in_doubt_resolver = None

    # -- construction ------------------------------------------------------------

    def _build_hardware(self) -> None:
        config = self.config
        self.clock = VirtualClock()
        self.main_cpu = CpuMeter("main", MAIN_CPU_MIPS, self.clock, config.analysis)
        self.recovery_cpu = CpuMeter(
            "recovery", config.analysis.p_recovery_mips, self.clock, config.analysis
        )
        self.slb_memory = StableMemory("slb", config.slb_capacity)
        self.slt_memory = StableMemory("slt", config.slt_capacity)
        log_pair = DuplexedDisk(
            SimulatedDisk("log-primary", config.log_disk, self.clock),
            SimulatedDisk("log-mirror", config.log_disk, self.clock),
        )
        retry_policy = RetryPolicy(budget=config.io_retry_budget)
        self.log_disk = LogDisk(
            log_pair,
            config.log_window_pages,
            config.log_window_grace_pages,
            retry_policy=retry_policy,
        )
        self.checkpoint_disk = CheckpointDiskQueue(
            SimulatedDisk("checkpoint", config.checkpoint_disk, self.clock),
            config.checkpoint_slots,
            retry_policy=retry_policy,
        )

    def _build_volatile(self) -> None:
        self.memory = MemoryManager(self.config.partition_size)
        self.locks = LockManager()
        self.catalog = Catalog(self.memory)
        self._relations: dict[str, Relation] = {}
        self._index_objects: dict[str, TTreeIndex | LinearHashIndex] = {}
        #: Guards the two handle caches above: concurrent-scheduler workers
        #: resolve tables and index objects simultaneously, and a torn
        #: check-then-insert would hand two threads distinct index objects
        #: over the same segment.  Leaf lock; handle construction that may
        #: recover segments runs outside it.
        self._handles_mutex = threading.RLock()
        #: The structure mutex of every index (``repro.index.base``): one,
        #: because a rollback restores components of all the indexes its
        #: transaction changed under what their operations hold — and one
        #: per index, taken mid-unwind by an abort raised inside another
        #: index's operation, would order both ways.
        self.index_mutex = threading.RLock()

    def _build_recovery_component(self) -> None:
        config = self.config
        self.slb = StableLogBuffer(self.slb_memory, config.log_block_size)
        self.slt = StableLogTail(self.slt_memory, config)
        self.checkpoint_queue = CheckpointQueue(self.slb)
        self.recovery_processor = RecoveryProcessor(
            self.recovery_cpu,
            self.slb,
            self.slt,
            self.log_disk,
            self.checkpoint_queue,
            config,
        )
        self.recovery_processor.bind_slot_free(self.checkpoint_disk.free)
        self.audit = AuditLog(self.slb_memory, self.log_disk, config.log_page_size)
        self.transactions = TransactionManager(self)
        self.checkpoints = CheckpointManager(self)
        self.condenser = Condenser(self)

    # -- transaction plumbing (called by Transaction) ----------------------------------

    def append_log(self, txn_id: int, record: RedoRecord) -> None:
        """Write a REDO record to the SLB, draining on back-pressure.

        Section 2.2: copying REDO records into the Stable Log Buffer is
        the only logging work the main CPU does, and it pays the
        stable-memory copy for it; everything downstream belongs to the
        recovery CPU.
        """
        self.main_cpu.charge_stable_bytes(record.size_bytes, "slb-write")
        try:
            self.slb.append(txn_id, record)
        except StableMemoryFullError:
            # The main CPU stalls while the recovery CPU frees blocks.
            self.engine.drain_log()
            self.slb.append(txn_id, record)

    def grow_segment(
        self, segment: Segment, fits: Callable[[Partition], bool], txn: Transaction
    ) -> Partition:
        """The one owner of segment growth: no resident partition of
        ``segment`` took what ``txn`` is placing, so return one that does.

        Serialised per segment, and the room is looked for again once in
        (two fillers do not both grow).  The new partition gets its SLT
        bin and descriptor entry under a system transaction of its own,
        committed before the partition is installed — the shape checkpoint
        transactions have (section 2.4).  ``txn`` logs and undoes nothing
        about it: its abort, a statement rollback or a crash leave at
        worst an empty, catalogued, bin-backed partition that the next
        insert uses.  Two segments grow in their caller instead: one
        ``txn`` created and has not committed (nobody else can reach it; a
        rollback takes all of it back), and the catalog's own, whose
        partition list is published to the well-known areas, not logged.
        """
        with segment.structure_mutex:
            partition = segment.first_fit(fits)
            if partition is not None:
                return partition  # a peer grew the segment while this one waited
            partition = segment.new_partition()
            if segment is self.catalog.segment:
                partition.bin_index = self.slt.register_partition(partition.address)
                self.catalog.own_partition_slots[partition.address.partition] = None
                self.publish_catalog_locations()
            elif segment.segment_id in txn.created_segments:
                self._catalogue(partition, txn)
            else:
                with self.transactions.scope(system=True) as growth:
                    self._catalogue(partition, growth)
                    crash_point("growth.catalogued")
                crash_point("growth.committed")
            segment.install(partition)
            return partition

    def _catalogue(self, partition: Partition, txn: Transaction) -> None:
        """A new partition's SLT bin (no byte image: a rollback drops it by
        compensation) and descriptor entry, under the ``txn`` that owns
        the growth."""
        address = partition.address
        partition.bin_index = self.slt.register_partition(address)
        txn.on_rollback(lambda: self.slt.drop_partition(address))
        descriptor = self.catalog.descriptor_for_segment(address.segment)
        descriptor.partitions[address.partition] = PartitionInfo(address.partition)
        self.catalog.update(descriptor, txn)

    def publish_catalog_locations(self) -> None:
        """Duplicate the catalog partition address list into both stable
        areas (section 2.5: 'stored twice, in the Stable Log Buffer and in
        the Stable Log Tail')."""
        entry = self.catalog.well_known_entry()
        self.slb.put_well_known(CATALOG_LOCATIONS_KEY, entry)
        self.slt.put_well_known(CATALOG_LOCATIONS_KEY, entry)

    # -- scheduling (delegated to the execution engine) -----------------------------------

    def pump(self) -> None:
        """Run the between-transactions duties of both processors."""
        self.engine.pump()

    @contextlib.contextmanager
    def transaction(
        self, *, pump: bool = True, relations: list[str] | None = None
    ):
        """``with db.transaction() as txn:`` — commit on success, abort on
        exception, then run the between-transactions pump.

        ``relations`` implements the paper's predeclared access (section
        2.5 method 1): the named relations — and their indexes — are
        recovered in their entirety *before* the transaction starts, so
        it can never stall on a missing partition mid-flight.  Without
        it, references recover partitions on demand (method 2).
        """
        if relations:
            self.ensure_recovered(relations)
        with self.transactions.scope() as txn:
            yield txn
        if pump:
            self.pump()

    def ensure_recovered(self, relations) -> None:
        """Predeclared recovery (section 2.5 method 1): while a restart
        is in progress, recover the named relations — and their indexes
        — in their entirety."""
        if self.restart_coordinator is not None:
            for name in relations:
                self.restart_coordinator.recover_relation(name)

    # -- scripted transactions (docs/LOGGING.md) -----------------------------------------------

    def register_script(self, name, fn, *, relations, version: str = "1"):
        """Register a command-loggable transaction script (see
        :class:`~repro.txn.registry.ScriptRegistry`)."""
        return self.scripts.register(name, fn, relations=relations, version=version)

    def run_script(
        self,
        name: str,
        *args,
        logging: str | None = None,
        pump: bool = True,
    ):
        """Run a registered script as one transaction, logged per mode.

        ``logging`` overrides ``config.logging_mode`` for this call:
        ``"value"`` logs after-images as usual; ``"command"`` logs one
        compact TxnCommand record instead (docs/LOGGING.md has what each
        costs, so a caller can choose per script).  Shard nodes always
        run value-logged — their transactions may be drafted into 2PC,
        which local re-execution cannot replay.

        A command-logged run takes exclusive relation locks on the
        script's whole declared list up front (sorted by segment id), the
        isolation that makes replay re-execution deterministic.  ``args``
        must round-trip through JSON.  Returns the script's return value.
        """
        info = self.scripts.get(name)
        mode = self.config.logging_mode if logging is None else logging
        expect_one_of("logging", mode, LOGGING_MODES)
        if self.shard_id is not None:
            mode = "value"
        self.ensure_recovered(info.relations)
        command = None
        if mode == "command":
            command = (info.name, info.version, json.dumps(list(args)).encode("utf-8"))
        with self.transactions.scope(
            command=command, declared_relations=info.relations
        ) as txn:
            if command is not None:
                txn.lock_declared()
            result = info.fn(txn, *args)
        if pump:
            self.pump()
        return result

    # -- DDL -----------------------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        schema: list[tuple[str, str]] | Schema,
        primary_key: str,
        primary_index: str = "hash",
    ) -> Relation:
        """Create a relation plus its primary-key index.

        ``primary_index`` picks the structure: ``"hash"`` (point lookups)
        or ``"ttree"`` (ordered).
        """
        if self.catalog.has_relation(name):
            raise CatalogError(f"relation {name!r} already exists")
        if not isinstance(schema, Schema):
            schema = Schema.of(schema)
        schema.position(primary_key)  # validate
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            segment = self._create_segment(txn, SegmentKind.RELATION, name)
            descriptor = RelationDescriptor(
                name=name,
                segment_id=segment.segment_id,
                schema=schema,
                primary_key=primary_key,
            )
            self.catalog.store_new(descriptor, txn)
            self._create_index_in_txn(
                txn, f"{name}__pk", name, primary_key, primary_index
            )
        self.pump()
        relation = Relation(self, name)
        self._relations[name] = relation
        return relation

    def create_index(
        self, index_name: str, relation_name: str, field: str, kind: str = "ttree"
    ) -> None:
        """Create a secondary index and backfill it from existing tuples."""
        # DDL fence: replaying a command logged before this index existed
        # would re-maintain the index on top of the value-logged backfill.
        self.checkpoints.settle_relation(relation_name)
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            # rewrites the relation's descriptor: no inserter, so no growth, beside it
            txn.lock_relation(self.catalog.relation(relation_name).segment_id, LockMode.SHARED)
            self._create_index_in_txn(txn, index_name, relation_name, field, kind)
            relation = self.table(relation_name)
            descriptor = self.catalog.index(index_name)
            index = self.index_object(descriptor, txn)
            for row in relation.scan(txn):
                index.insert(row[field], row.address)
        self.pump()

    def _create_index_in_txn(
        self, txn: Transaction, index_name: str, relation_name: str, field: str, kind: str
    ) -> None:
        if kind not in ("ttree", "hash"):
            raise CatalogError(f"unknown index kind {kind!r}")
        relation_descriptor = self.catalog.relation(relation_name)
        relation_descriptor.schema.position(field)  # validate
        segment = self._create_segment(txn, SegmentKind.INDEX, index_name)
        descriptor = IndexDescriptor(
            name=index_name,
            relation_name=relation_name,
            segment_id=segment.segment_id,
            kind=kind,
            key_field=field,
        )
        self.catalog.store_new(descriptor, txn)
        store = NodeStore(segment, txn)
        index = self._build_index(kind, store)
        descriptor.anchor = index.anchor
        self.catalog.update(descriptor, txn)
        relation_descriptor.index_names.append(index_name)
        self.catalog.update(relation_descriptor, txn)
        self._index_objects[index_name] = index
        txn.on_rollback(lambda: self._index_objects.pop(index_name, None))

    def _create_segment(self, txn: Transaction, kind: SegmentKind, name: str) -> Segment:
        """A DDL transaction's new segment.  A rollback takes it back:
        registered before anything touches the segment, so it runs after
        every entity, partition and catalog entry the transaction put
        there is gone."""
        segment = self.memory.create_segment(kind, name)
        txn.on_rollback(lambda: self.memory.drop_segment(segment.segment_id))
        txn.created_segments.add(segment.segment_id)
        return segment

    def drop_index(self, index_name: str) -> None:
        """Drop a secondary index (primary-key indexes cannot be dropped)."""
        descriptor = self.catalog.index(index_name)
        if index_name.endswith("__pk"):
            raise CatalogError("primary-key indexes cannot be dropped")
        # DDL fence: live commands expect this index among their barrier
        # targets at replay; settle them before changing the shape.
        self.checkpoints.settle_relation(descriptor.relation_name)
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            txn.lock_relation(descriptor.segment_id, LockMode.EXCLUSIVE)
            relation_descriptor = self.catalog.relation(descriptor.relation_name)
            # as in create_index: the relation's descriptor is rewritten
            txn.lock_relation(relation_descriptor.segment_id, LockMode.SHARED)
            relation_descriptor.index_names.remove(index_name)
            self.catalog.update(relation_descriptor, txn)
            self.catalog.drop(descriptor, txn)
        # physical release only after the drop is durable: an aborted or
        # crashed drop must leave the stable recovery state intact
        self._release_segment(descriptor)
        self._index_objects.pop(index_name, None)
        self.pump()

    def drop_relation(self, name: str) -> None:
        """Drop a relation, its indexes, and all of their partitions."""
        # DDL fence: a live command declaring this relation would have
        # nothing to re-execute against at replay.
        self.checkpoints.settle_relation(name)
        descriptor = self.catalog.relation(name)
        index_descriptors = list(self.catalog.indexes_of(name))
        with self.transactions.scope() as txn:
            txn.lock_relation(self.catalog.segment.segment_id, LockMode.INTENT_EXCLUSIVE)
            txn.lock_relation(descriptor.segment_id, LockMode.EXCLUSIVE)
            for index_descriptor in index_descriptors:
                self.catalog.drop(index_descriptor, txn)
            self.catalog.drop(descriptor, txn)
        for index_descriptor in index_descriptors:
            self._release_segment(index_descriptor)
            self._index_objects.pop(index_descriptor.name, None)
        self._release_segment(descriptor)
        self._relations.pop(name, None)
        self.pump()

    def _release_segment(self, descriptor) -> None:
        """Free a dropped object's partitions: SLT bins, checkpoint
        images, and the in-memory segment.  Runs after the catalog drop
        committed."""
        for number, info in sorted(descriptor.partitions.items()):
            address = PartitionAddress(descriptor.segment_id, number)
            if self.slt.has_partition(address):
                # A condense chain's shadow slot is referenced only by the
                # bin; free it before the bin disappears with the drop.
                stale = self.slt.clear_condense_state(
                    self.slt.bin_index_of(address)
                )
                if stale is not None:
                    self.checkpoint_disk.free(stale)
                self.slt.drop_partition(address)
            if info.checkpoint_slot is not None:
                self.checkpoint_disk.free(info.checkpoint_slot)
        if descriptor.segment_id in self.memory:
            self.memory.drop_segment(descriptor.segment_id)

    # -- handles -----------------------------------------------------------------------------------

    def table(self, name: str) -> Relation:
        self.catalog.relation(name)  # raise early if unknown
        with self._handles_mutex:
            if name not in self._relations:
                self._relations[name] = Relation(self, name)
            return self._relations[name]

    def index_object(
        self, descriptor: IndexDescriptor, txn: Transaction | None
    ) -> TTreeIndex | LinearHashIndex:
        """The live index structure for a descriptor, bound to ``txn``'s
        change sink for this call (the binding is thread-local, so
        concurrent workers sharing one cached index object each log and
        lock through their own transaction)."""
        index = self._index_objects.get(descriptor.name)
        if index is None:
            self.ensure_segment_resident(descriptor.segment_id)
            segment = self.memory.segment(descriptor.segment_id)
            store = NodeStore(segment)
            if descriptor.anchor is None:
                raise CatalogError(f"index {descriptor.name!r} has no anchor")
            built = self._build_index(descriptor.kind, store, descriptor.anchor)
            with self._handles_mutex:
                index = self._index_objects.setdefault(descriptor.name, built)
        index.store.sink = txn
        return index

    def _build_index(
        self, kind: str, store: NodeStore, anchor: EntityAddress | None = None
    ) -> TTreeIndex | LinearHashIndex:
        index_class = TTreeIndex if kind == "ttree" else LinearHashIndex
        index = index_class(store, anchor=anchor)
        index.structure_mutex = self.index_mutex
        return index

    def reload_index_mirrors(self, segment_ids: set[int]) -> None:
        """Flag cached index objects whose segments just rolled back.

        An abort (or statement rollback) restores index component *bytes*
        through UNDO records, but a cached ``TTreeIndex`` /
        ``LinearHashIndex`` also mirrors its anchor in decoded form
        (bucket directory, split pointer, root address, item count).
        Called by the transaction layer after applying UNDO; each flagged
        index re-decodes the mirror from the restored bytes at the start
        of its next serialised operation.
        """
        if not segment_ids:
            return
        with self._handles_mutex:
            stale = [
                index
                for index in self._index_objects.values()
                if index.store.segment.segment_id in segment_ids
            ]
        for index in stale:
            index.mark_mirror_stale()

    # -- residency / demand recovery --------------------------------------------------------------------

    def ensure_partition(self, address: PartitionAddress) -> Partition:
        """Resolve a partition, recovering it on demand after a crash.

        Section 2.5's rule is enforced here: a transaction must not hold a
        latch across a recovery wait — it would stall every other
        transaction for the duration of a disk read.
        """
        segment = self.memory.segment(address.segment)
        if segment.is_resident(address.partition):
            return segment.get(address.partition)
        if self.restart_coordinator is None:
            return segment.get(address.partition)  # raises the right error
        self.slb.block_latch.assert_unheld("on-demand partition recovery")
        self.checkpoint_disk.map_latch.assert_unheld("on-demand partition recovery")
        self.restart_coordinator.recover_partition(address)
        return segment.get(address.partition)

    def ensure_segment_resident(self, segment_id: int) -> None:
        """Recover every partition of a segment (index segments are used
        whole, so first touch restores them fully)."""
        missing = self.memory.segment(segment_id).missing_partitions()
        if not missing:
            return
        if self.restart_coordinator is None:
            raise RecoveryError(
                f"segment {segment_id} has unrecovered partitions but no "
                f"restart is in progress"
            )
        for number in missing:
            self.restart_coordinator.recover_partition(
                PartitionAddress(segment_id, number)
            )

    # -- crash / restart -----------------------------------------------------------------------------------

    def crash(self) -> None:
        """Lose main memory.  Stable memory and disks survive."""
        self.memory.crash()
        self.locks.crash()
        self.log_disk.crash()
        self.transactions.crash()
        self._relations.clear()
        self._index_objects.clear()
        self.restart_coordinator = None
        self.crashed = True

    def restart(self, mode: RecoveryMode = RecoveryMode.ON_DEMAND) -> RestartCoordinator:
        """Bring the system back: catalogs first, then data per ``mode``."""
        return restart_sequence(self, mode)

    def background_restore(self) -> None:
        """Pump duty: one low-priority phase-2 restore, if a restart is in
        progress."""
        if self.restart_coordinator is not None:
            self.restart_coordinator.background_step()

    # -- lifecycle ------------------------------------------------------------------------------------------

    def close(self) -> None:
        """Release engine resources (threads).  Idempotent; the database
        remains usable for inspection afterwards but must not be pumped."""
        self.engine.shutdown()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- statistics -----------------------------------------------------------------------------------------

    def register_scheduler(self, scheduler) -> None:
        """Attach a script scheduler for observability.

        Called by :class:`~repro.txn.scheduler.Scheduler` on
        construction; :meth:`stats` reports the registered scheduler's
        committed/conflict/retry counters.
        """
        self.scheduler = scheduler

    def stats(self) -> dict:
        """The one status snapshot of this database: every figure once,
        under the keys docs/API.md tabulates with their lifetimes.

        Taken under :attr:`view_lock`, so concurrent phase-2 partition
        installs cannot tear the residency figures; the figures behind the
        SLB mutex and the bin mutexes are fetched before it, so the
        snapshot never nests them under it.  The key set is the same
        whether the system is up, crashed, or mid-restart.
        """
        mode_commits, mode_bytes = self.slb.mode_stats()
        logging = {
            "mode": self.config.logging_mode,
            "mode_commits": mode_commits,
            "mode_bytes": mode_bytes,
            "log_bytes_per_txn": {
                mode: mode_bytes.get(mode, 0) / commits
                for mode, commits in mode_commits.items()
                if commits
            },
            "command_seq": self.slb.command_seq,
            "live_commands": len(self.slb.live_commands()),
            "sweeps_taken": self.checkpoints.sweeps_taken,
            "commands_settled": self.checkpoints.commands_settled,
            "command_replay": self.last_command_replay,
        }
        condenser = self.condenser.stats_snapshot()
        with self.view_lock:
            residency: dict[str, dict] = {}
            partitions: list[Partition] = []
            if not self.crashed:
                for descriptor in (*self.catalog.relations(), *self.catalog.indexes()):
                    try:
                        segment = self.memory.segment(descriptor.segment_id)
                    except StorageError:  # segment gone mid-recovery
                        continue
                    residency[descriptor.name] = {
                        "partitions": len(descriptor.partitions),
                        "resident": sum(1 for _ in segment.resident_partitions()),
                        "missing": len(segment.missing_partitions()),
                    }
                partitions = [
                    part
                    for segment in self.memory.segments()
                    for part in segment.resident_partitions()
                ]
            coordinator = self.restart_coordinator
            return {
                "engine": self.engine.name,
                "shard_id": self.shard_id,
                "scheduler": self.scheduler.stats() if self.scheduler is not None else None,
                "twopc": {**self.twopc.snapshot(), "prepares": self.slb.prepares},
                "clock_seconds": self.clock.now,
                "transactions_committed": sum(mode_commits.values()),
                "transactions_aborted": self.slb.aborts,
                "transactions_active": self.transactions.active_count,
                "slb_records_written": self.slb.records_written,
                "slb_bytes_written": self.slb.bytes_written,
                "slb_used_bytes": self.slb_memory.used_bytes,
                "slb_capacity_bytes": self.slb_memory.capacity_bytes,
                "slt_used_bytes": self.slt_memory.used_bytes,
                "slt_capacity_bytes": self.slt_memory.capacity_bytes,
                "slt_records_binned": self.slt.records_binned,
                "slt_pages_sealed": self.slt.pages_sealed,
                "slt_active_bins": len(self.slt.active_bins()),
                "log_pages_written": self.log_disk.pages_written,
                "archive_pages_written": self.recovery_processor.archive_pages_written,
                "log_window": {
                    "start": self.log_disk.window_start,
                    "next_lsn": self.log_disk.next_lsn,
                },
                "log_page_cache_hits": self.log_disk.cache_hits,
                "logging": logging,
                "checkpoints_taken": self.checkpoints.checkpoints_taken,
                "checkpoints_deferred": self.checkpoints.checkpoints_deferred,
                "checkpoints_requested": self.recovery_processor.checkpoints_requested,
                "checkpoint_queue_depth": len(self.checkpoint_queue),
                "checkpoint_slots_used": self.checkpoint_disk.occupied_count,
                "checkpoint_slots_total": self.checkpoint_disk.slots,
                "condenser": condenser,
                "main_cpu_instructions": self.main_cpu.total_instructions,
                "recovery_cpu_instructions": self.recovery_cpu.total_instructions,
                "recovery_busy_seconds": self.recovery_cpu.busy_seconds(),
                "recovery_breakdown": self.recovery_cpu.category_breakdown(),
                "resident_partitions": len(partitions),
                "resident_bytes": sum(p.used_bytes + p.heap.used_bytes for p in partitions),
                "overflow_bytes": sum(p.overflow_bytes for p in partitions),
                "residency": residency,
                "transient_io": {
                    "log": self.log_disk.io_stats.snapshot(),
                    "checkpoint": self.checkpoint_disk.io_stats.snapshot(),
                },
                "restart": None if coordinator is None else {
                    "sources": dict(coordinator.sources),
                    "partitions_recovered": coordinator.partitions_recovered,
                    "records_replayed": coordinator.records_replayed,
                    "pages_read": coordinator.pages_read,
                    "backward_reads": coordinator.backward_reads,
                    "catalog_restore_seconds": coordinator.catalog_restore_seconds,
                    "pending_partitions": coordinator.pending_partitions(),
                    "history_scan": dict(coordinator.history_scan) or None,
                },
                "audit_entries": self.audit.entries_written,
                "audit_pages_flushed": self.audit.pages_flushed,
            }
