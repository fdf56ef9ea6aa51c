"""Checkpoint transactions on the main CPU.

Section 2.4's seven-step procedure, executed between regular transactions
when the transaction manager polls the request queue:

1. (recovery CPU) request entered in the Stable Log Buffer.
2. main CPU finds the request, starts a checkpoint transaction, sets the
   flag to in-progress.
3. the checkpoint transaction read-locks the partition's *relation* — one
   relation read lock covers its tuple and index partitions, so only
   committed, transaction-consistent data is copied.
4. the partition is copied to a side buffer at memory speed and the lock
   is released immediately (minimal interference).
5. the disk-map and catalog updates are logged *before* the image write.
6. the image goes to a fresh slot (never overwriting the old image) and
   the checkpoint transaction commits, which atomically installs the new
   location and sets the flag to finished.
7. (recovery CPU) sees finished, flushes the partition's leftover log
   records to the log disk, and resets its bin.

Steps 2-6 are one routine, :meth:`CheckpointManager.copy`, over a list of
partitions the caller picks: a request's own partition; the closure of
live commands a request escalates to, or the DDL fence settles (a group
settlement sweep, docs/LOGGING.md); or every resident partition
(:meth:`CheckpointManager.checkpoint_all`: the whole-database baseline,
and the fresh images both media restores end with).
"""

from __future__ import annotations

import contextlib
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.common.errors import CheckpointError, NotResidentError, TransactionAborted
from repro.common.types import PartitionAddress
from repro.concurrency.locks import LockMode
from repro.checkpoint.protocol import CheckpointRequest, RequestState
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
        #: What deferred the last deferred attempt (:meth:`_attempt`).
        self.last_refusal: TransactionAborted | NotResidentError | None = None

    def process_pending(self) -> int:
        """Run checkpoint transactions for queued requests.

        Returns the number completed.  Requests whose relation lock is
        unavailable or whose partition is not yet memory-resident are left
        queued for a later pass.
        """
        live = self.db.commands
        done = 0
        for request in self.db.checkpoint_queue.pending():
            if request.state is not RequestState.REQUEST:
                # An earlier sweep in this pass already checkpointed this
                # partition and set its entry to FINISHED.
                continue
            # A partition whose relation has live commands escalates to a
            # group settlement sweep of their closure: copying it alone
            # would tear a command's effects across image and
            # re-execution (docs/LOGGING.md).
            relations, commands = live.closure_of(request.partition.segment)
            addresses = live.partitions(relations) if commands else [request.partition]
            done += self.copy(addresses, commands, request)
        return done

    @contextlib.contextmanager
    def _attempt(self, request: CheckpointRequest | None) -> Iterator[Transaction]:
        """One attempt at a checkpoint procedure: step 2, then the body as
        a system transaction inside the transaction frame
        (:meth:`TransactionManager.scope`).  A lock conflict, a partition
        awaiting recovery or a refused log write *defers* the attempt —
        swallowed here and kept as :attr:`last_refusal`, the caller finds
        the transaction ``ABORTED``; any other error propagates.  Either
        way a rolled-back attempt returns its request to the queue; a
        crash leaves it ``IN_PROGRESS`` for restart."""
        crash_point("checkpoint.begin")
        if request is not None:
            request.state = RequestState.IN_PROGRESS
        txn: Transaction | None = None
        try:
            with self.db.transactions.scope() as txn:
                yield txn
            crash_point("checkpoint.committed")
        except (TransactionAborted, NotResidentError) as refused:
            self.checkpoints_deferred += 1  # retry on a later pass
            self.last_refusal = refused
            self.db.events.emit(
                "checkpoint.deferred",
                partition=None if request is None else str(request.partition),
                cause=type(refused).__name__,
                queue_depth=len(self.db.checkpoint_queue),
            )
        finally:
            if request is not None and txn is not None and txn.state is TxnState.ABORTED:
                request.state = RequestState.REQUEST
                request.previous_slot = None

    def copy(
        self,
        addresses: list[PartitionAddress],
        commands: Sequence[TxnCommand] = (),
        request: CheckpointRequest | None = None,
    ) -> bool:
        """The checkpoint transaction: copy ``addresses`` in one system
        transaction (steps 2-6); returns False if it was deferred.

        ``commands`` are live commands the copy settles — ``addresses``
        must cover their whole closure (``LiveCommands.partitions``).  Then
        the SHARED locks on the closure relations are held through the
        commit point instead of released after the copy: every partition
        comes from the same transaction-consistent cut, the relations'
        ``command_watermark`` advances with the slot installs, and a
        :class:`SweepMarker` carrying it goes to each closure partition's
        stream while nothing else can write to it.  After commit the
        settled commands leave the stable command log — their effects now
        live in the images — and every copied partition's queue entry is
        FINISHED: step 7 (``acknowledge_finished``) frees the superseded
        slots and archives the bins' leftovers.
        """
        db = self.db
        catalog = db.catalog
        settled = sorted(
            map(catalog.relation, {name for c in commands for name in c.relations}),
            key=attrgetter("segment_id"),
        )
        with self._attempt(request) as txn:
            # Step 3: read-lock every covering relation, in segment order.
            covering = [catalog.covering_segment(address) for address in addresses]
            locked = sorted({*covering, *(relation.segment_id for relation in settled)})
            for segment_id in locked:
                txn.lock_relation(segment_id, LockMode.SHARED)
            crash_point("checkpoint.locked")
            watermark = db.slb.command_seq
            # Step 4: copy at memory speed, all before any catalog state
            # is touched (a partition awaiting recovery defers the lot),
            # then release the locks at once unless settling.
            images = []
            for address in addresses:
                image = db.memory.partition(address).to_bytes()
                db.main_cpu.charge(
                    COPY_INSTRUCTIONS_PER_BYTE * len(image), "checkpoint-copy"
                )
                images.append(image)
            if not commands:
                for segment_id in locked:
                    txn.unlock_relation(segment_id)
            crash_point("checkpoint.copied")
            # Step 5: claim every slot (a copy that does not fit fails with
            # nothing yet to re-derive), then log the catalog updates
            # before any image is written.
            slots = {address: self.claim_slot(txn) for address in addresses}
            if catalog.segment.segment_id in covering:
                # run by a rollback after it restores the installs below: an
                # abort past the publish (a refused marker) republishes the old list
                txn.on_rollback(db.publish_catalog_locations, stable=True)
            previous = catalog.install_images(slots, txn, settled, watermark)
            crash_point("checkpoint.slot-installed")
            # Step 6: write the images to their fresh slots.
            for address, image in zip(addresses, images):
                db.checkpoint_disk.write_image(slots[address], image)
                db.events.emit(
                    "checkpoint.written",
                    partition=str(address),
                    slot=slots[address],
                    bytes=len(image),
                    queue_depth=len(db.checkpoint_queue),
                )
            if catalog.segment.segment_id in covering:
                # Publish the catalog's own new locations only once the
                # images are durable: the well-known areas are not logged,
                # so an earlier publish would dangle if we crashed here.
                db.publish_catalog_locations()
            crash_point("checkpoint.image-written")
            if commands:
                # One marker per closure partition, through this
                # transaction's own chain while the closure locks still
                # exclude writers: its stream position is the image point.
                # A marker refused even after a drain defers the sweep.
                closure = {relation.segment_id for relation in settled}
                for address, segment_id in zip(addresses, covering):
                    if segment_id in closure:
                        txn._redo(None, SweepMarker, address, watermark)
                crash_point("checkpoint.sweep.markers-appended")
            # commit releases any lock still held, after the commit point
        if txn.state is TxnState.ABORTED:
            return False  # deferred
        if commands:
            settled_csns = [c.csn for c in commands if c.csn <= watermark]
            db.commands.settle(settled_csns)
            self.sweeps_taken += 1
            self.commands_settled += len(settled_csns)
        for address in addresses:
            db.checkpoint_queue.finish_for(
                address, db.slt.bin_index_of(address), previous[address]
            )
        self.checkpoints_taken += 1
        return True

    def checkpoint_all(self) -> int:
        """The whole-database checkpoint: every resident partition —
        catalog, relations, indexes — copied in one checkpoint transaction
        that settles every live command with it (the settlement fence
        first replays every closure a restart left pending, so their
        partitions are among those copied), then acknowledged like any
        checkpoint: superseded slots freed, bin leftovers archived.
        Returns how many partitions it copied.

        Section 1.2's "database as a single object": the checkpoint pays
        for everything every time.  All or nothing — a failure rolls every
        descriptor back to the images it named before.
        """
        db = self.db
        if db.restart_coordinator is not None:
            db.restart_coordinator.replay_closures()
        # drain before the copy, as the pump does (``DUTIES``): the copy
        # holds every committed effect, so the acknowledgement's bin reset
        # must leave no committed record for restart to replay again
        db.recovery_processor.run_until_drained()
        addresses = [
            partition.address
            for segment in db.memory.segments()
            for partition in segment.resident_partitions()
        ]
        if not self.copy(addresses, db.commands.live()):
            refusal = self.last_refusal
            raise CheckpointError(f"whole-database checkpoint deferred: {refusal}") from refusal
        db.recovery_processor.acknowledge_finished()
        return len(addresses)

    def settle_relation(self, name: str) -> int:
        """Force settlement of every live command whose closure includes
        ``name`` — the DDL fence: a relation cannot be dropped or change
        shape while a logged command might still re-execute against it.

        Returns the number of commands settled.  Retries around lock
        conflicts a bounded number of times, then surfaces the conflict.
        """
        db = self.db
        segment_id = db.catalog.relation(name).segment_id
        if db.restart_coordinator is not None:
            # Settlement fence: replay the closure before the sweep's
            # transaction opens, not through the lock fence inside it.
            db.restart_coordinator.replay_closure(segment_id)
        settled_total = 0
        attempts = 0
        while True:
            relations, batch = db.commands.closure_of(segment_id)
            if not batch:
                return settled_total
            if self.copy(db.commands.partitions(relations), batch):
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

    def claim_slot(self, txn: Transaction) -> int:
        """A fresh slot for a checkpoint transaction.  The allocation map
        is volatile and has no byte image, so a rollback frees the slot
        (and whatever image already reached it) by compensation."""
        disk = self.db.checkpoint_disk
        slot = disk.allocate(txn.txn_id)
        txn.on_rollback(lambda: disk.free(slot), stable=True)
        return slot

    # -- restart support -------------------------------------------------------------

    def occupied_slots(self) -> set[int]:
        """Every slot referenced by the catalogs (for map rebuild)."""
        occupied = set(self.db.catalog.image_slots().values())
        occupied.discard(None)
        return occupied
