"""One transaction: its REDO chain, UNDO chain, and locks.

The transaction object doubles as the *change sink* for every layer that
mutates partitions on its behalf — relation operations, catalog updates,
and index component writes all report here, producing:

* a REDO record appended to the transaction's Stable Log Buffer chain
  (with the target partition's bin index stamped in, section 2.3.2),
* an UNDO entry in the volatile UNDO space — the *inverse* REDO record,
  the same operation with the before-image where the after-image was;
  never encoded, never stable (section 2.3.1), discarded at commit — and
* a two-phase lock on the touched entity, held until commit.

Lock policy is no-wait: a conflicting request aborts this transaction
immediately (conservative deadlock avoidance, natural for the cooperative
single-threaded simulation where a blocked transaction could never be
resumed by its blocker).
"""

from __future__ import annotations

import contextlib
import enum
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.common.errors import (
    StableMemoryFullError,
    TransactionAborted,
    TransactionStateError,
)
from repro.common.types import EntityAddress, PartitionAddress
from repro.concurrency.locks import LockMode
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.wal import records as redo

_Address = TypeVar("_Address", EntityAddress, PartitionAddress)

register_crash_point(
    "txn.commit.before-slb",
    "commit() entered, before the SLB chain moves to the committed list",
)
register_crash_point(
    "txn.commit.after-slb",
    "chain on the committed list, before locks release / undo discard",
)
register_crash_point(
    "txn.prepare.before-slb",
    "prepare() entered, before the SLB chain moves to the prepared list",
)
register_crash_point(
    "txn.prepare.after-slb",
    "chain prepared (in-doubt), before the coordinator learns of it",
)
register_crash_point(
    "txn.commit-prepared.before-slb",
    "phase-2 commit entered, before the prepared chain joins the committed list",
)
register_crash_point(
    "txn.commit.command-emitted",
    "command record and barriers stable (commit point passed), before "
    "locks release / undo discard",
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.storage.partition import Partition
    from repro.storage.segment import Segment


class TxnState(enum.Enum):
    ACTIVE = "active"
    #: A 2PC branch that forced its PREPARE: REDO chain stable, locks and
    #: UNDO retained, awaiting the coordinator's verdict.
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A unit of work with strict two-phase locking and instant commit."""

    def __init__(
        self,
        db: "Database",
        txn_id: int,
        *,
        system: bool = False,
        user_data: str = "",
        command: "tuple[str, str, bytes] | None" = None,
        declared_relations: "tuple[str, ...]" = (),
    ):
        self.db = db
        self.txn_id = txn_id
        self.system = system
        self.state = TxnState.ACTIVE
        #: The volatile UNDO space, oldest first: inverse REDO records
        #: (bytes) and compensations (:meth:`on_rollback`).
        self._undo: list[redo.RedoRecord | Callable[[], None]] = []
        self.redo_records = 0
        #: How this transaction is logged (docs/LOGGING.md), fixed at
        #: begin: ``None`` — after-images, the paper's scheme — or the
        #: script's (name, version, JSON args), logged as one TxnCommand
        #: at commit with no after-image appended.  Only
        #: :meth:`Database.run_script` supplies one, with the script's
        #: declared relation list — and holds exclusive relation locks on
        #: all of them, the isolation that makes re-execution
        #: deterministic.  (The catalogs, recovered before any replay runs,
        #: are all value-logged: only DDL and system transactions — a
        #: segment's growth is one — write catalog entities.)
        self.command = command
        self.declared_relations = tuple(declared_relations)
        #: The csn assigned at a command commit (stats / tests).
        self.command_csn: int | None = None
        #: DDL: segments it created, whose growth rides in it until it commits.
        self.created_segments: set[int] = set()
        self._open(user_data)

    def _open(self, user_data: str) -> None:
        """The stable effects of beginning: an empty REDO chain on the
        SLB's uncommitted list and the audit trail's ``begin`` entry."""
        self.db.slb.open_chain(self.txn_id)
        self.db.audit.record(self.txn_id, "begin", self.db.clock.now, user_data)

    # -- state ---------------------------------------------------------------

    def _ensure_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"txn {self.txn_id} is {self.state.value}, not active"
            )

    @property
    def undo_record_count(self) -> int:
        return len(self._undo)

    # -- locking ----------------------------------------------------------------

    def lock(self, resource, mode: LockMode) -> None:
        """Acquire a lock or die: a refused request aborts this transaction."""
        self._ensure_active()
        granted = self.db.locks.acquire(self.txn_id, resource, mode)
        if not granted:
            self.abort()
            raise TransactionAborted(
                f"txn {self.txn_id} aborted: lock conflict on {resource!r}",
                txn_id=self.txn_id,
            )

    def lock_entity(self, address: EntityAddress, mode: LockMode) -> None:
        self.lock(address, mode)

    def lock_relation(self, segment_id: int, mode: LockMode) -> None:
        self.lock(("rel", segment_id), mode)

    def lock_declared(self) -> None:
        """Exclusive relation locks on the whole declared set, in segment
        id order: the isolation that makes re-executing the script
        deterministic, taken by the live run and again by its replay."""
        relation = self.db.catalog.relation
        for segment_id in sorted(
            relation(name).segment_id for name in self.declared_relations
        ):
            self.lock_relation(segment_id, LockMode.EXCLUSIVE)

    # -- how a transaction ends (docs/INTERNALS.md, "How a transaction ends") ---------
    #
    # Every ending is: its own SLB transition, then the shared epilogue.
    # A rollback precedes the transition of the two aborts.

    def _rollback(self, mark: int = 0) -> None:
        """Undo everything past ``mark`` newest-first and drop it: an
        inverse record puts bytes back through its own ``apply``, a
        compensation takes back what bytes do not cover, and then every
        decoded mirror of the touched segments re-syncs from the restored
        bytes (docs/INTERNALS.md, "Decoded mirrors of byte state")."""
        db = self.db
        catalog_segment = db.catalog.segment.segment_id
        segments: set[int] = set()
        descriptors: set[EntityAddress] = set()
        suffix = self._undo[mark:]
        # Index components go back under the mutex index operations run
        # under, mirrors flagged before it is released.  (A system
        # transaction has none, and may hold a segment's structure mutex,
        # which index operations take *below* this one.)
        index_records = (redo.IndexNodeWrite, redo.IndexNodeFree)
        restores_index = any(isinstance(entry, index_records) for entry in suffix)
        with db.index_mutex if restores_index else contextlib.nullcontext():
            for entry in reversed(suffix):
                if isinstance(entry, redo.RedoRecord):
                    address = entry.partition_address
                    entry.apply(db.memory.partition(address))
                    segments.add(address.segment)
                    if address.segment == catalog_segment:
                        # catalog partitions hold entities only: the record names one
                        descriptors.add(getattr(entry, "address", None))
                else:
                    entry()
            del self._undo[mark:]
            # Before the locks release, so no later operation runs on a
            # rolled-back mirror: the catalog re-derives the descriptors whose
            # entities were restored (and only those), cached index objects
            # are flagged to re-decode their anchors.
            if descriptors:
                db.catalog.resync(descriptors)
            db.reload_index_mirrors(segments)

    def on_rollback(self, compensate: Callable[[], None]) -> None:
        """Register volatile state that has no byte image — a new
        partition's bin, a claimed checkpoint slot, a DDL-created segment
        — on the UNDO list: ``compensate()`` runs in the same newest-first loop as
        the inverse records (so statement rollback's mark covers it) and
        is discarded at commit."""
        self._ensure_active()
        self._undo.append(compensate)

    def _durable(self) -> None:
        """The chain just joined the committed list (which counted the
        commit): tell the observer, before any crash window."""
        self.state = TxnState.COMMITTED
        observer = self.db.commit_observer
        if observer is not None:
            # The oracle snapshots committed state here: durable the
            # instant the chain moved lists.
            observer(self)

    def _end(self, state: TxnState) -> None:
        """The epilogue of every ending, after its SLB transition."""
        self.state = state
        self._undo.clear()  # discarded at commit, spent by a rollback
        self.db.locks.release_all(self.txn_id)
        self._record_end("commit" if state is TxnState.COMMITTED else "abort")

    def _record_end(self, event: str) -> None:
        self.db.audit.record(self.txn_id, event, self.db.clock.now)
        # looked up at call time: restart replaces the manager
        self.db.transactions.finished(self)

    def commit(self) -> None:
        """Instant commit: the REDO chain is already stable."""
        self._ensure_active()
        if self.command is not None:
            self._commit_as_command()
            return
        crash_point("txn.commit.before-slb")
        self.db.slb.commit(self.txn_id)
        self._durable()
        crash_point("txn.commit.after-slb")
        self._end(TxnState.COMMITTED)

    # -- command-mode commit (docs/LOGGING.md) --------------------------------------

    def _commit_as_command(self) -> None:
        """Commit by emitting one TxnCommand plus per-partition barriers.

        The commit point is unchanged: one stable-memory transition under
        the SLB mutex (csn assigned, command record in the stable command
        log, barriers on the chain, chain on the committed list).  The
        barriers drain through the ordinary bins in commit order, marking
        in every involved partition's stream exactly where re-execution
        belongs relative to the surrounding value REDO.
        """
        db = self.db
        targets = self._barrier_targets()
        name, version, args = self.command  # type: ignore[misc]

        def build(csn: int):
            record = redo.TxnCommand(
                self.txn_id, csn, name, version, args, self.declared_relations
            )
            barriers = [
                redo.CommandBarrier(self.txn_id, bin_index, address, csn)
                for address, bin_index in targets
            ]
            return record.encode(), barriers

        crash_point("txn.commit.before-slb")
        try:
            self.command_csn = db.slb.commit_command(self.txn_id, build)
        except StableMemoryFullError:
            # Back-pressure, as in append_log: stall while the recovery
            # CPU frees blocks, then retry once.
            db.engine.drain_log()
            self.command_csn = db.slb.commit_command(self.txn_id, build)
        self._durable()
        crash_point("txn.commit.command-emitted")
        self._end(TxnState.COMMITTED)

    def _barrier_targets(self) -> list[tuple[PartitionAddress, int]]:
        """Every partition of every declared relation (and its indexes),
        with its bin index.

        Stable between here and the commit point: the transaction holds
        exclusive relation locks on the whole declared set, so no
        concurrent transaction can allocate partitions in (or write to)
        these relations.
        """
        db = self.db
        targets: list[tuple[PartitionAddress, int]] = []
        for relation_name in self.declared_relations:
            descriptor = db.catalog.relation(relation_name)
            descriptors = [descriptor] + [
                db.catalog.index(index_name)
                for index_name in descriptor.index_names
            ]
            for desc in descriptors:
                for number in sorted(desc.partitions):
                    address = PartitionAddress(desc.segment_id, number)
                    targets.append((address, self._bin_index(address)))
        return targets

    # -- two-phase commit (repro.shard) ----------------------------------------------

    def prepare(self, prepare_record: bytes) -> None:
        """Force this branch's PREPARE: the chain becomes in-doubt.

        The encoded :class:`~repro.wal.records.TxnPrepare` moves into
        stable memory with the chain.  Locks and UNDO survive — the
        branch must stay able to go either way until the coordinator's
        verdict arrives (:meth:`commit_prepared` / :meth:`abort_prepared`).
        """
        self._ensure_active()
        if self.command is not None:
            # its effects span shards: local re-execution cannot replay it
            raise TransactionStateError(
                f"txn {self.txn_id} is command-logged and cannot prepare; "
                f"distributed transactions are value-logged"
            )
        crash_point("txn.prepare.before-slb")
        self.db.slb.prepare(self.txn_id, prepare_record)
        self.state = TxnState.PREPARED
        crash_point("txn.prepare.after-slb")
        self.db.audit.record(self.txn_id, "prepare", self.db.clock.now)

    def _ensure_prepared(self) -> None:
        if self.state is not TxnState.PREPARED:
            raise TransactionStateError(
                f"txn {self.txn_id} is {self.state.value}, not prepared"
            )

    def commit_prepared(self) -> None:
        """Phase-2 COMMIT of a prepared branch (coordinator said yes)."""
        self._ensure_prepared()
        crash_point("txn.commit-prepared.before-slb")
        self.db.slb.commit_prepared(self.txn_id)
        self.db.twopc.inc("prepared_commits")
        self._durable()
        self._end(TxnState.COMMITTED)

    def abort_prepared(self) -> None:
        """Phase-2 ABORT of a prepared branch (presumed abort)."""
        self._ensure_prepared()
        self._rollback()
        self.db.slb.abort_prepared(self.txn_id)
        self.db.twopc.inc("prepared_aborts")
        self._end(TxnState.ABORTED)

    def abort(self) -> None:
        """Roll back: apply UNDO records newest-first, discard REDO chain."""
        self._ensure_active()
        self._rollback()
        self._discard_chain()
        self._end(TxnState.ABORTED)

    def _discard_chain(self) -> None:
        self.db.slb.abort(self.txn_id)

    # -- statement-level atomicity -------------------------------------------------------

    def statement(self):
        """``with txn.statement():`` — make one multi-step operation
        atomic within the transaction.

        If the body raises, every mutation it performed is undone (UNDO
        suffix applied in reverse) and its REDO records are removed from
        the stable chain, so a later commit of the surrounding
        transaction replays exactly the work that logically happened.
        The exception propagates; the transaction itself stays active.
        """
        return _StatementScope(self)

    def _statement_mark(self) -> tuple[int, int]:
        return len(self._undo), self.redo_records

    def _statement_rollback(self, mark: tuple[int, int]) -> None:
        undo_mark, redo_mark = mark
        self._rollback(undo_mark)
        if self.redo_records > redo_mark:  # never true of a replay: no chain
            self.db.slb.truncate_chain(self.txn_id, redo_mark)
            self.redo_records = redo_mark

    # -- logging core ------------------------------------------------------------------

    def _bin_index(self, partition_address: PartitionAddress) -> int:
        return self.db.slt.bin_index_of(partition_address)

    def _log(self, record: redo.RedoRecord, inverse: redo.RedoRecord) -> None:
        # UNDO first: the mutation is already applied, so if the REDO
        # write fails (stable buffer exhausted even after draining — a
        # transaction too large for the SLB) the rollback must already
        # know how to reverse it.
        self._undo.append(inverse)
        if self.command is not None:
            # Command-logged: this after-image is replaced by the
            # commit-time TxnCommand record.  UNDO still accumulates
            # (abort and statement rollback are unchanged); only the
            # stable REDO copy is skipped.
            return
        try:
            self.db.append_log(self.txn_id, record)
        except SimulatedCrash:
            # a crash is not an abort (txn/manager.py: settle) — and it can
            # surface here: back-pressure draining runs instrumented
            # recovery-CPU code inside append_log
            raise
        except Exception as exc:
            self.abort()
            raise TransactionAborted(
                f"txn {self.txn_id} aborted: log write failed ({exc})",
                txn_id=self.txn_id,
            ) from exc
        self.redo_records += 1

    # -- the nine change sinks ------------------------------------------------------------------

    def _head(self, address: _Address, owner: PartitionAddress) -> tuple[int, int, _Address]:
        """(txn id, bin index of ``owner``, address): the header a change's
        forward record and its inverse share, resolved once."""
        self._ensure_active()
        return self.txn_id, self._bin_index(owner), address

    # EntitySink: tuple / catalog entity changes

    def entity_inserted(self, address: EntityAddress, data: bytes) -> None:
        head = self._head(address, address.partition_address)
        self._log(redo.TupleInsert(*head, data), redo.TupleDelete(*head))

    def entity_updated(self, address: EntityAddress, before: bytes, after: bytes) -> None:
        head = self._head(address, address.partition_address)
        self._log(redo.TupleUpdate(*head, after), redo.TupleUpdate(*head, before))

    def entity_patched(
        self, address: EntityAddress, start: int, before: bytes, after: bytes
    ) -> None:
        """A single-field byte-range update (the compact relation record)."""
        head = self._head(address, address.partition_address)
        self._log(redo.FieldPatch(*head, start, after), redo.FieldPatch(*head, start, before))

    def entity_deleted(self, address: EntityAddress, before: bytes) -> None:
        head = self._head(address, address.partition_address)
        self._log(redo.TupleDelete(*head), redo.TupleInsert(*head, before))

    # heap (string space) operations

    def heap_put(self, partition: PartitionAddress, handle: int, data: bytes) -> None:
        head = self._head(partition, partition)
        self._log(redo.HeapPut(*head, handle, data), redo.HeapDelete(*head, handle))

    def heap_replace(
        self, partition: PartitionAddress, handle: int, before: bytes, after: bytes
    ) -> None:
        head = self._head(partition, partition)
        self._log(
            redo.HeapReplace(*head, handle, after), redo.HeapReplace(*head, handle, before)
        )

    def heap_delete(
        self, partition: PartitionAddress, handle: int, before: bytes
    ) -> None:
        head = self._head(partition, partition)
        self._log(redo.HeapDelete(*head, handle), redo.HeapPut(*head, handle, before))

    # ChangeSink: index component changes (physical before-images — safe
    # because components are two-phase locked until commit, section 2.3.2)

    def lock_component(self, address: EntityAddress) -> None:
        """Settle the no-wait exclusive lock before a component mutates.

        ``NodeStore`` calls this ahead of the physical write/free so a
        refused lock (which aborts this transaction immediately) finds the
        component untouched — at that point no UNDO entry for the change
        exists yet.
        """
        self._ensure_active()
        self.lock_entity(address, LockMode.EXCLUSIVE)

    def index_node_written(
        self, address: EntityAddress, before: bytes | None, after: bytes
    ) -> None:
        head = self._head(address, address.partition_address)
        self.lock_entity(address, LockMode.EXCLUSIVE)
        self._log(
            redo.IndexNodeWrite(*head, after),
            # a component this transaction created is removed again
            redo.IndexNodeFree(*head) if before is None else redo.IndexNodeWrite(*head, before),
        )

    def index_node_freed(self, address: EntityAddress, before: bytes) -> None:
        head = self._head(address, address.partition_address)
        self.lock_entity(address, LockMode.EXCLUSIVE)
        self._log(redo.IndexNodeFree(*head), redo.IndexNodeWrite(*head, before))

    # -- segment growth ----------------------------------------------------------------------------

    def grow_segment(self, segment: Segment, fits: Callable[[Partition], bool]) -> Partition:
        """No resident partition took what this transaction is placing: one
        ``fits`` accepts, from the one owner of segment growth."""
        self._ensure_active()
        return self.db.grow_segment(segment, fits, self)

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.txn_id}, state={self.state.value}, "
            f"redo={self.redo_records}, undo={len(self._undo)})"
        )


class _StatementScope:
    """Context manager backing :meth:`Transaction.statement`."""

    def __init__(self, txn: Transaction):
        self._txn = txn
        self._mark: tuple[int, int] | None = None

    def __enter__(self) -> Transaction:
        self._txn._ensure_active()
        self._mark = self._txn._statement_mark()
        return self._txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self._txn.state is TxnState.ACTIVE:
            assert self._mark is not None
            self._txn._statement_rollback(self._mark)
        return False  # never swallow the exception
