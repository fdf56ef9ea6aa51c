"""Checkpoint transactions on the main CPU.

Section 2.4's seven-step procedure, executed between regular transactions
when the transaction manager polls the request queue:

1. (recovery CPU) request entered in the Stable Log Buffer.
2. main CPU finds the request, starts a checkpoint transaction, flips the
   flag to in-progress.
3. the checkpoint transaction read-locks the partition's *relation* — one
   relation read lock covers its tuple and index partitions, so only
   committed, transaction-consistent data is copied.
4. the partition is copied to a side buffer at memory speed and the lock
   is released immediately (minimal interference).
5. the disk-map and catalog updates are logged *before* the image write.
6. the image goes to a fresh slot (never overwriting the old image) and
   the checkpoint transaction commits, which atomically installs the new
   location and flips the flag to finished.
7. (recovery CPU) sees finished, flushes the partition's leftover log
   records to the log disk, and resets its bin.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

from repro.common.errors import CatalogError, NotResidentError, TransactionAborted
from repro.common.types import PartitionAddress
from repro.concurrency.locks import LockMode
from repro.checkpoint.protocol import CheckpointRequest, RequestState
from repro.recovery.replay_plan import decode_live_commands, relation_closure
from repro.sim.chaos import crash_point, register_crash_point
from repro.txn.transaction import Transaction, TxnState
from repro.wal.records import SweepMarker, TxnCommand

register_crash_point(
    "checkpoint.begin",
    "step 2: request found, before the checkpoint transaction starts",
)
register_crash_point(
    "checkpoint.locked",
    "step 3: relation read lock held, partition not yet copied",
)
register_crash_point(
    "checkpoint.copied",
    "step 4: partition copied to the side buffer, lock released",
)
register_crash_point(
    "checkpoint.slot-installed",
    "step 5: catalog/disk-map updates logged, image not yet written",
)
register_crash_point(
    "checkpoint.image-written",
    "step 6a: image durable in its fresh slot, transaction uncommitted",
)
register_crash_point(
    "checkpoint.committed",
    "step 6b: checkpoint transaction committed, flag not yet FINISHED",
)
register_crash_point(
    "checkpoint.sweep.markers-appended",
    "sweep: per-partition markers on the chain, transaction uncommitted",
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database

#: Instructions charged to the main CPU per byte of partition copy.
COPY_INSTRUCTIONS_PER_BYTE = 0.125


class CheckpointManager:
    """Executes pending checkpoint requests (main-CPU side)."""

    def __init__(self, db: "Database"):
        self.db = db
        self.checkpoints_taken = 0
        self.checkpoints_deferred = 0
        self.sweeps_taken = 0
        self.commands_settled = 0
        #: Checkpoints satisfied by installing a condensed shadow image
        #: instead of copying the partition (docs/CONDENSING.md).  A flip
        #: also counts in ``checkpoints_taken``.
        self.flips_taken = 0

    def process_pending(self, limit: int | None = None) -> int:
        """Run checkpoint transactions for queued requests.

        Returns the number completed.  Requests whose relation lock is
        unavailable or whose partition is not yet memory-resident are left
        queued for a later pass.  The condenser pauses for the duration so
        a flip decision races at most the one slice already in flight.
        """
        done = 0
        self.db.condenser.pause()
        try:
            for request in self.db.checkpoint_queue.pending():
                if limit is not None and done >= limit:
                    break
                if request.state is not RequestState.REQUEST:
                    # An earlier sweep in this pass already checkpointed this
                    # partition and flipped its entry to FINISHED.
                    continue
                closure, commands = self._command_closure_for(request)
                if commands:
                    if self._run_group(request, closure, commands):
                        done += 1
                elif self._run_one(request):
                    done += 1
        finally:
            self.db.condenser.resume()
        return done

    def _command_closure_for(
        self, request: CheckpointRequest
    ) -> tuple[list[str], list[TxnCommand]]:
        """The live-command closure a request's relation belongs to.

        Non-empty commands mean a plain checkpoint of this partition must
        escalate to a group settlement sweep: copying one partition of a
        relation with live commands would tear a command's effects across
        image and re-execution (docs/LOGGING.md)."""
        db = self.db
        segment_id = request.partition.segment
        if segment_id == db.catalog.segment.segment_id:
            return [], []  # catalog changes are always value-logged
        commands = decode_live_commands(db)
        if not commands:
            return [], []
        relation = db.catalog.relation_of_segment(segment_id)
        relations, batch = relation_closure(commands, relation.name)
        return sorted(relations), batch

    def _flip_lsn_for(self, request: CheckpointRequest) -> int | None:
        """The watermark to flip at, or ``None`` if a copy is needed.

        A request can be satisfied by installing the bin's condensed
        shadow image as the catalog image — no lock, no copy — exactly
        when the chain is *current* (grew from the catalog slot) and
        *complete* (every flushed page folded in): the shadow then equals
        what step 4 would have copied, minus the still-buffered records
        the bin keeps anyway (docs/CONDENSING.md).  ``shadow != catalog``
        rules out re-flipping an already-installed image, which would
        never relieve the trigger.
        """
        db = self.db
        if not db.config.condense_enabled:
            return None
        segment_id = request.partition.segment
        if segment_id == db.catalog.segment.segment_id:
            return None
        try:
            descriptor = db.catalog.descriptor_for_segment(segment_id)
        except CatalogError:
            return None
        info = descriptor.partitions.get(request.partition.partition)
        if info is None:
            return None
        catalog_slot = info.checkpoint_slot
        bin_ = db.slt.bin(request.bin_index)
        with bin_.mutex:
            if (
                bin_.condensed_slot is not None
                and bin_.condensed_slot != catalog_slot
                and bin_.condensed_base_slot == catalog_slot
                and bin_.directory
                and bin_.condensed_lsn >= bin_.directory[-1]
            ):
                return bin_.condensed_lsn
        return None

    @contextlib.contextmanager
    def _attempt(self, request: CheckpointRequest) -> Iterator[Transaction]:
        """One attempt at a checkpoint procedure: step 2, then the body as
        a system transaction inside the transaction frame
        (:meth:`TransactionManager.scope`).  A lock conflict or a partition
        still awaiting recovery *defers* the attempt — swallowed here, the
        caller finds the request back in ``REQUEST``; any other error
        propagates.  Either way a rolled-back attempt returns its request
        to the queue; a crash leaves it ``IN_PROGRESS`` for restart."""
        crash_point("checkpoint.begin")
        request.state = RequestState.IN_PROGRESS
        txn: Transaction | None = None
        try:
            with self.db.transactions.scope(system=True) as txn:
                yield txn
            crash_point("checkpoint.committed")
        except (TransactionAborted, NotResidentError):
            self.checkpoints_deferred += 1  # retry on a later pass
        finally:
            if txn is not None and txn.state is TxnState.ABORTED:
                request.state = RequestState.REQUEST
                request.previous_slot = None

    def _run_flip(self, request: CheckpointRequest, flip_lsn: int) -> bool:
        """Satisfy a checkpoint by installing the condensed shadow image.

        The shadow is already durable and transaction-consistent (only
        committed records reach flushed pages), so the whole procedure is
        the catalog update of step 5 inside a system transaction — steps
        3, 4, and 6a vanish.  The acknowledgement then resets the bin
        relative to ``flip_lsn`` instead of clearing it.
        """
        db = self.db
        mutex = db.memory.segment(request.partition.segment).structure_mutex
        with mutex, self._attempt(request) as txn:  # see _run_one, step 5
            bin_ = db.slt.bin(request.bin_index)
            with bin_.mutex:
                shadow = bin_.condensed_slot
            if shadow is None:  # chain vanished since the decision
                raise TransactionAborted("condense chain gone", txn_id=txn.txn_id)
            request.previous_slot = self.install_slot(request.partition, shadow, txn)
            crash_point("checkpoint.slot-installed")
        if request.state is RequestState.REQUEST:
            return False  # deferred
        if request.previous_slot == shadow:
            # The catalog already pointed at the shadow (re-run after a
            # crash between commit and FINISHED): freeing it would free
            # the live image.
            request.previous_slot = None
        request.flip = True
        request.flip_lsn = flip_lsn
        request.state = RequestState.FINISHED
        self.checkpoints_taken += 1
        self.flips_taken += 1
        return True

    def _run_one(self, request: CheckpointRequest) -> bool:
        db = self.db
        flip_lsn = self._flip_lsn_for(request)
        if flip_lsn is not None:
            return self._run_flip(request, flip_lsn)
        with contextlib.ExitStack() as until_committed, self._attempt(request) as txn:
            lock_segment = self.lock_segment_for(request.partition.segment)
            txn.lock_relation(lock_segment, LockMode.SHARED)
            crash_point("checkpoint.locked")
            partition = db.memory.partition(request.partition)
            # Step 4: copy at memory speed, then release the lock at once.
            image = partition.to_bytes()
            db.main_cpu.charge(
                COPY_INSTRUCTIONS_PER_BYTE * len(image), "checkpoint-copy"
            )
            db.locks.release(txn.txn_id, ("rel", lock_segment))
            crash_point("checkpoint.copied")
            # Step 5: log the catalog / disk-map updates before the write —
            # under the segment's structure mutex until the commit: with the
            # relation lock gone, a growth in between would log this
            # checkpoint's uncommitted slot and lose to its older after-image.
            until_committed.enter_context(
                db.memory.segment(request.partition.segment).structure_mutex
            )
            slot = self.claim_slot(txn)
            request.previous_slot = self.install_slot(request.partition, slot, txn)
            crash_point("checkpoint.slot-installed")
            # Step 6: write the image and commit.
            db.checkpoint_disk.write_image(slot, image)
            if request.partition.segment == db.catalog.segment.segment_id:
                # Publish the catalog's own new location only once the
                # image is durable: the well-known areas are not logged,
                # so an earlier publish would dangle if we crashed here.
                db.publish_catalog_locations()
            crash_point("checkpoint.image-written")
        if request.state is RequestState.REQUEST:
            return False  # deferred
        request.state = RequestState.FINISHED
        self.checkpoints_taken += 1
        return True

    # -- group settlement sweep (docs/LOGGING.md) --------------------------------------

    def _run_group(
        self,
        request: CheckpointRequest,
        closure: list[str],
        commands: list[TxnCommand],
    ) -> bool:
        """Checkpoint a whole declared closure atomically, settling its
        live commands.

        Unlike the single-partition procedure, the SHARED relation locks on
        the *entire* closure are held through the commit point: every
        partition of every closure relation (and index) is copied from the
        same transaction-consistent cut, a :class:`SweepMarker` carrying
        the captured command watermark is appended to each copied
        partition's stream while nothing else can write to it, and the
        descriptors' ``command_watermark`` advance together.  After commit,
        commands at or below the watermark are pruned from the stable
        command log — their effects now live in the images.
        """
        db = self.db
        with self._attempt(request) as txn:
            relation_descriptors = sorted(
                (db.catalog.relation(name) for name in closure),
                key=lambda descriptor: descriptor.segment_id,
            )
            for descriptor in relation_descriptors:
                txn.lock_relation(descriptor.segment_id, LockMode.SHARED)
            crash_point("checkpoint.locked")
            watermark = db.slb.command_seq
            members = []
            for descriptor in relation_descriptors:
                members.append(descriptor)
                members.extend(
                    db.catalog.index(index_name)
                    for index_name in descriptor.index_names
                )
            # Copy everything first: a partition awaiting recovery defers
            # the whole sweep before any catalog state has been touched.
            copies: list[tuple[object, int, bytes]] = []
            for member in members:
                for number in sorted(member.partitions):
                    address = PartitionAddress(member.segment_id, number)
                    image = db.memory.partition(address).to_bytes()
                    db.main_cpu.charge(
                        COPY_INSTRUCTIONS_PER_BYTE * len(image), "checkpoint-copy"
                    )
                    copies.append((member, number, image))
            crash_point("checkpoint.copied")
            previous: dict[PartitionAddress, int | None] = {}
            # Claim every slot before touching a descriptor: a sweep that
            # does not fit fails with nothing yet to re-derive.
            slots = [self.claim_slot(txn) for _ in copies]
            for (member, number, _), slot in zip(copies, slots):
                info = member.partitions[number]
                previous[PartitionAddress(member.segment_id, number)] = (
                    info.checkpoint_slot
                )
                info.checkpoint_slot = slot
            for descriptor in relation_descriptors:
                descriptor.command_watermark = watermark
            for member in members:
                # (the locks keep inserters out, not a DDL growing its new index)
                with db.memory.segment(member.segment_id).structure_mutex:
                    db.catalog.update(member, txn)
            crash_point("checkpoint.slot-installed")
            for member, number, image in copies:
                db.checkpoint_disk.write_image(
                    member.partitions[number].checkpoint_slot, image
                )
            crash_point("checkpoint.image-written")
            # One marker per copied partition, through this transaction's
            # own chain while the closure locks still exclude writers: the
            # marker's stream position is exactly the image point.
            for member, number, _ in copies:
                address = PartitionAddress(member.segment_id, number)
                db.append_log(
                    txn.txn_id,
                    SweepMarker(
                        txn.txn_id, db.slt.bin_index_of(address), address, watermark
                    ),
                )
            crash_point("checkpoint.sweep.markers-appended")
            # commit releases the closure locks, after the commit point
        if request.state is RequestState.REQUEST:
            return False  # deferred
        settled = [record.csn for record in commands if record.csn <= watermark]
        db.slb.discard_commands(settled)
        for member, number, _ in copies:
            address = PartitionAddress(member.segment_id, number)
            db.checkpoint_queue.finish_for(
                address, db.slt.bin_index_of(address), previous[address]
            )
        self.checkpoints_taken += 1
        self.sweeps_taken += 1
        self.commands_settled += len(settled)
        return True

    def settle_relation(self, name: str) -> int:
        """Force settlement of every live command whose closure includes
        ``name`` — the DDL fence: a relation cannot be dropped or change
        shape while a logged command might still re-execute against it.

        Returns the number of commands settled.  Retries around lock
        conflicts a bounded number of times, then surfaces the conflict.
        """
        db = self.db
        settled_total = 0
        attempts = 0
        while True:
            relations, batch = relation_closure(decode_live_commands(db), name)
            if not batch:
                return settled_total
            probe = CheckpointRequest(PartitionAddress(-1, -1), -1, "ddl-settlement")
            if self._run_group(probe, sorted(relations), batch):
                settled_total += len(batch)
                attempts = 0
                # Drain the sweep's markers (and any undrained barriers)
                # into their bins and acknowledge the finished entries
                # now: the caller is about to drop those bins, and neither
                # a committed record nor a FINISHED queue entry may
                # outlive its bin.
                db.engine.drain_log()
                db.recovery_processor.acknowledge_finished()
                continue
            attempts += 1
            if attempts >= 8:
                raise TransactionAborted(
                    f"could not settle live commands on relation {name!r}: "
                    f"closure relations stayed lock-busy",
                    txn_id=-1,
                )
            db.engine.drain_log()

    def lock_segment_for(self, segment_id: int) -> int:
        """The segment whose relation-level lock covers ``segment_id``'s
        partitions (paper section 2.4 step 3)."""
        if segment_id == self.db.catalog.segment.segment_id:
            return segment_id  # catalog partitions lock the catalog itself
        relation = self.db.catalog.relation_of_segment(segment_id)
        return relation.segment_id

    def claim_slot(self, txn: Transaction) -> int:
        """A fresh slot for a checkpoint transaction.  The allocation map
        is volatile and has no byte image, so a rollback frees the slot
        (and whatever image already reached it) by compensation."""
        disk = self.db.checkpoint_disk
        slot = disk.allocate(txn.txn_id)
        txn.on_rollback(lambda: disk.free(slot))
        return slot

    def install_slot(
        self, address: PartitionAddress, slot: int, txn: Transaction
    ) -> int | None:
        """Record the new checkpoint location in the catalogs (logged).

        Returns the superseded slot (freed after the acknowledgement).
        Catalog partitions keep their locations in the well-known stable
        areas instead, duplicated in the SLB and the SLT (section 2.4
        step 5 / section 2.5).
        """
        db = self.db
        segment_id, number = address.segment, address.partition
        if segment_id == db.catalog.segment.segment_id:
            slots = db.catalog.own_partition_slots
            previous = slots.get(number)
            slots[number] = slot
            txn.on_rollback(lambda: slots.__setitem__(number, previous))
            # well-known publish is deferred to after the image write
            return previous
        descriptor = db.catalog.descriptor_for_segment(segment_id)
        info = descriptor.partitions.get(number)
        if info is None:
            raise CatalogError(
                f"{address} is not catalogued under {descriptor.name!r}"
            )
        previous = info.checkpoint_slot
        info.checkpoint_slot = slot
        db.catalog.update(descriptor, txn)
        return previous

    # -- restart support -------------------------------------------------------------

    def occupied_slots(self) -> set[int]:
        """Every slot referenced by the catalogs (for map rebuild)."""
        occupied: set[int] = set()
        for descriptor in list(self.db.catalog.relations()) + list(
            self.db.catalog.indexes()
        ):
            for info in descriptor.partitions.values():
                if info.checkpoint_slot is not None:
                    occupied.add(info.checkpoint_slot)
        for slot in self.db.catalog.own_partition_slots.values():
            if slot is not None:
                occupied.add(slot)
        # Published shadow images (docs/CONDENSING.md) are referenced from
        # the stable bins rather than the catalog; the map rebuild must
        # not hand their slots out again.
        for bin_ in self.db.slt.bins():
            if bin_.condensed_slot is not None:
                occupied.add(bin_.condensed_slot)
        return occupied
