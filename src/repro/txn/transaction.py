"""One transaction: its REDO chain, UNDO chain, and locks.

The transaction object doubles as the *change sink* for every layer that
mutates partitions on its behalf — relation operations, catalog updates,
and index component writes all report here, producing:

* a REDO record, packed straight to its bytes (no record object) and
  appended to the transaction's Stable Log Buffer chain, with the target
  partition's bin index stamped in (section 2.3.2),
* an UNDO entry in the volatile UNDO space — the *inverse* REDO record's
  class, address and fields, the before-image where the after-image was,
  packed and applied as bytes only by a rollback, never stable (section
  2.3.1), discarded at commit — and
* a two-phase lock on the touched entity, held until commit.

A command-logged transaction skips the REDO record: its commit logs the
script instead (docs/LOGGING.md), so only the inverse is built.

Locks are hierarchical: a transaction holding S or X on a relation asks
for no row or intent lock in that relation's segment that the mode
covers — any other transaction is refused at the relation's intent lock
before it can reach a row.  Lock policy is no-wait: a conflicting
request aborts this transaction immediately (conservative deadlock
avoidance, natural for the cooperative simulation where a blocked
transaction could never be resumed by its blocker).
"""

from __future__ import annotations

import enum
from collections import Counter
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn

from repro.common.errors import (
    ShardingError,
    StableMemoryFullError,
    TransactionAborted,
    TransactionStateError,
)
from repro.common.types import EntityAddress, PartitionAddress
from repro.concurrency.locks import _COVERS, _JOIN, LockMode
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.wal import records as redo

#: (segment, partition) of either address kind: the partition a change is in.
_PARTITION_KEY = attrgetter("segment", "partition")

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


class _StableRelease(NamedTuple):
    """A compensation that changes stable storage (frees an SLT bin or a
    checkpoint-disk block, republishes the catalog's list): a crash keeps
    what it would change."""

    release: Callable[[], None]


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
        user_data: str = "",
        command: "tuple[str, str, bytes] | None" = None,
        declared_relations: "tuple[str, ...]" = (),
    ):
        self.db = db
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        #: The volatile UNDO space, oldest first: inverse REDO records as
        #: tuples ``(class, address, *fields)`` — no header: the applier
        #: skips it — and compensations (:meth:`on_rollback`).
        self._undo: list[tuple | _StableRelease | Callable[[], None]] = []
        #: segment id -> the S or X lock held on its relation, which
        #: covers the segment's rows (:meth:`lock_relation`).
        self._covering: dict[int, LockMode] = {}
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
        #: Command-logged: the address of every change, one entry per
        #: change — the records a value-logged run would append — so each
        #: barrier can carry its partition's count.
        self._changed: list[EntityAddress | PartitionAddress] = []
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

    def resolve(self, db: "Database") -> "Transaction":
        """The transaction that may touch ``db``'s relations: this one, on
        its own database only.  Every public ``Relation`` method asks."""
        if db is not self.db:
            raise ShardingError(
                f"txn {self.txn_id} belongs to another database (shard "
                f"{self.db.shard_id}, not {db.shard_id}); declare the relation "
                f"in the transaction's access list"
            )
        return self

    # -- locking (coverage inline: ``_COVERS`` has no pair with ``None``) ------

    def lock(self, resource, mode: LockMode) -> None:
        """Acquire a lock or die: a refused request aborts this transaction."""
        if self.state is not TxnState.ACTIVE:
            self._ensure_active()
        if not self.db.locks.acquire(self.txn_id, resource, mode):
            self._lock_refused(resource)

    def _lock_refused(self, resource) -> NoReturn:
        """A refused lock request: abort this transaction and say why."""
        self.abort()
        raise TransactionAborted(
            f"txn {self.txn_id} aborted: lock conflict on {resource!r}",
            txn_id=self.txn_id,
        )

    def lock_entity(self, address: EntityAddress, mode: LockMode) -> None:
        if self.state is not TxnState.ACTIVE:
            self._ensure_active()
        if (self._covering.get(address.segment), mode) not in _COVERS and not (
            self.db.locks.acquire(self.txn_id, address, mode)
        ):
            self._lock_refused(address)

    def lock_relation(self, segment_id: int, mode: LockMode) -> None:
        """Lock a relation; an S or X grant covers its rows from here on.

        After a restart, the relation's pending command closure replays
        first (docs/LOGGING.md): no transaction locks a closure, or reads
        it, before its replay has taken and released its own locks."""
        if self.state is not TxnState.ACTIVE:
            self._ensure_active()
        if (self._covering.get(segment_id), mode) in _COVERS:
            return
        coordinator = self.db.restart_coordinator
        if coordinator is not None and coordinator.closures:
            coordinator.replay_closure(segment_id)
        resource = ("rel", segment_id)
        if not self.db.locks.acquire(self.txn_id, resource, mode):
            self._lock_refused(resource)
        held = self._covering.get(segment_id)
        if held is not None:
            self._covering[segment_id] = _JOIN[held, mode]
        elif mode is LockMode.SHARED or mode is LockMode.EXCLUSIVE:
            self._covering[segment_id] = mode

    def unlock_relation(self, segment_id: int) -> None:
        """Release a relation lock before commit — a checkpoint's S lock
        once its copy is made (section 2.4) — and the coverage with it."""
        self._covering.pop(segment_id, None)
        self.db.locks.release(self.txn_id, ("rel", segment_id))

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

    def _rollback(self, mark: int = 0, *, crashing: bool = False) -> None:
        """Undo everything past ``mark`` newest-first and drop it: an
        inverse tuple ``(class, address, *fields)`` is packed and applied
        as bytes (:func:`repro.wal.records.apply_fields`,
        the applier replay uses), putting its very before-image object
        back; a compensation takes back what bytes do not cover (a hash
        index's item count among them), and then the catalog's
        descriptors re-sync from the restored bytes (docs/INTERNALS.md,
        "Decoded mirrors of byte state").
        ``crashing`` is the recovery oracle's rollback at a crash: stable
        storage stays as the crash leaves it, so stable releases are
        skipped."""
        db = self.db
        catalog_segment = db.catalog.segment.segment_id
        descriptors: set[EntityAddress] = set()
        for entry in reversed(self._undo[mark:]):
            if type(entry) is tuple:  # an inverse: a _StableRelease is a subclass
                address = entry[1]
                redo.apply_fields(db.memory.partition(address), *entry)
                if address.segment == catalog_segment:  # entities only: an entity address
                    descriptors.add(address)
            elif isinstance(entry, _StableRelease):
                if not crashing:
                    entry.release()
            else:
                entry()
        del self._undo[mark:]
        # Before the locks release, so no later operation runs on a
        # rolled-back mirror: the catalog re-derives the descriptors whose
        # entities were restored (and only those).
        if descriptors:
            db.catalog.resync(descriptors)

    def on_rollback(self, compensate: Callable[[], None], *, stable: bool = False) -> None:
        """Register state that has no byte image — a new partition's bin,
        a claimed checkpoint slot, a DDL-created segment — on the UNDO
        list: ``compensate()`` runs in the same newest-first loop as the
        inverse records (so statement rollback's mark covers it) and is
        discarded at commit.  ``stable`` marks one that changes stable
        storage, which the oracle's rollback at a crash skips."""
        if self.state is not TxnState.ACTIVE:
            self._ensure_active()
        self._undo.append(_StableRelease(compensate) if stable else compensate)

    def _end(self, state: TxnState) -> None:
        """The epilogue of every ending, after its SLB transition."""
        self.state = state
        self._undo.clear()  # discarded at commit, spent by a rollback
        self._covering.clear()
        self.db.locks.release_all(self.txn_id)
        self._record_end("commit" if state is TxnState.COMMITTED else "abort")

    def _record_end(self, event: str) -> None:
        self.db.audit.record(self.txn_id, event, self.db.clock.now)
        # the manager's dict directly: no frame of its own
        self.db.transactions._active.pop(self.txn_id, None)

    def commit(self) -> None:
        """Instant commit: the REDO chain is already stable."""
        if self.state is not TxnState.ACTIVE:
            self._ensure_active()
        if self.command is not None:
            self._commit_as_command()
            return
        crash_point("txn.commit.before-slb")
        self.db.slb.commit(self.txn_id)
        # acknowledged from here: the chain is on the committed list
        self.state = TxnState.COMMITTED
        crash_point("txn.commit.after-slb")
        self._end(TxnState.COMMITTED)

    # -- command-mode commit (docs/LOGGING.md) --------------------------------------

    def _commit_as_command(self) -> None:
        """Commit by emitting one TxnCommand plus per-partition barriers,
        each carrying the changes the command made in its partition.

        The commit point is unchanged: one stable-memory transition (csn
        assigned, command record in the stable command log, barriers on
        the chain, chain on the committed list).  The
        barriers drain through the ordinary bins in commit order, marking
        in every involved partition's stream exactly where re-execution
        belongs relative to the surrounding value REDO.
        """
        db = self.db
        # Every partition of every declared relation and its indexes, with
        # its bin index as the resident partition carries it: run_script
        # recovered the declared relations before the script ran, and the
        # exclusive locks on them keep the set stable to the commit point.
        targets: list[tuple[PartitionAddress, int]] = []
        for member in db.catalog.with_indexes(self.declared_relations):
            segment = db.memory.segment(member.segment_id)
            for number in sorted(member.partitions):
                partition = segment.get(number)
                assert partition.bin_index is not None  # resident, so registered
                targets.append((partition.address, partition.bin_index))
        name, version, args = self.command  # type: ignore[misc]
        changes = Counter(map(_PARTITION_KEY, self._changed))

        def build(csn: int):
            command = redo.TxnCommand(
                self.txn_id, csn, name, version, args, self.declared_relations
            )
            barriers = [
                redo.CommandBarrier.pack(
                    self.txn_id, bin_index, address, csn, changes.get(address, 0)
                )
                for address, bin_index in targets
            ]
            return command, barriers

        crash_point("txn.commit.before-slb")
        try:
            self.command_csn = db.slb.commit_command(self.txn_id, build)
        except StableMemoryFullError:
            # Back-pressure, as in _redo: stall while the recovery
            # CPU frees blocks, then retry once.
            db.engine.drain_log()
            self.command_csn = db.slb.commit_command(self.txn_id, build)
        self.state = TxnState.COMMITTED
        crash_point("txn.commit.command-emitted")
        self._end(TxnState.COMMITTED)

    # -- two-phase commit (repro.shard) ----------------------------------------------

    def prepare(self, record: redo.TxnPrepare) -> None:
        """Force this branch's PREPARE: the chain becomes in-doubt.

        ``record`` moves into stable memory with the chain.  Locks and
        UNDO survive — the branch must stay able to go either way until
        the coordinator's verdict arrives (:meth:`commit_prepared` /
        :meth:`abort_prepared`).
        """
        self._ensure_active()
        if self.command is not None:
            # its effects span shards: local re-execution cannot replay it
            raise TransactionStateError(
                f"txn {self.txn_id} is command-logged and cannot prepare; "
                f"distributed transactions are value-logged"
            )
        crash_point("txn.prepare.before-slb")
        self.db.slb.prepare(self.txn_id, record)
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
        if self.state is not TxnState.ACTIVE:
            self._ensure_active()
        return _StatementScope((self, len(self._undo), self.redo_records, len(self._changed)))

    def _statement_rollback(self, undo_mark: int, redo_mark: int, changed_mark: int) -> None:
        self._rollback(undo_mark)
        del self._changed[changed_mark:]
        if self.redo_records > redo_mark:  # never true of a replay: no chain
            self.db.slb.truncate_chain(self.txn_id, redo_mark)
            self.redo_records = redo_mark

    # -- logging core ------------------------------------------------------------------

    def _redo(
        self,
        inverse: tuple | None,
        cls: type[redo.RedoRecord],
        address: EntityAddress | PartitionAddress,
        *fields,
    ) -> None:
        """The one door a change takes into the stable chain: look up the
        bin of ``address``'s partition in the SLT's map, push ``inverse`` on
        UNDO (a sweep's marker has none), pack ``cls``'s full form with its
        compiled struct, charge the main CPU the stable copy (section 2.2;
        ``charge_stable_bytes``' float additions, in order) and append it.
        A full SLB stalls for a drain and one retry; a second refusal
        aborts, and the abort reverses the applied mutation.  Command-logged,
        only the inverse is kept and the change tallied for its barrier."""
        if self.state is not TxnState.ACTIVE:
            self._ensure_active()
        if self.command is not None:
            self._changed.append(address)
            self._undo.append(inverse)
            return
        db = self.db
        slt = db.slt
        bin_index = slt._by_partition.get(address[:2])
        if bin_index is None:
            slt.bin_index_of(address[:2])  # refuses it, naming the partition
        if inverse is not None:
            self._undo.append(inverse)
        tag, pack, blob = cls._WIRE
        if blob:
            data = fields[-1]
            record = pack(tag, bin_index, self.txn_id, *address, *fields[:-1], len(data)) + data
        else:
            record = pack(tag, bin_index, self.txn_id, *address, *fields)
        try:
            cpu = db.main_cpu
            instructions = cpu._copy_fixed + cpu._copy_per_byte * len(record)
            cpu._by_category["slb-write"] += instructions
            cpu._total_instructions += instructions
            cpu.clock._now += instructions / cpu._rate
            try:
                db.slb.append(self.txn_id, record)
            except StableMemoryFullError:
                db.engine.drain_log()
                db.slb.append(self.txn_id, record)
        except SimulatedCrash:
            # a crash is not an abort (txn/manager.py: settle) — and the
            # back-pressure drain runs instrumented recovery-CPU code
            raise
        except Exception as exc:
            self.abort()
            raise TransactionAborted(
                f"txn {self.txn_id} aborted: log write failed ({exc})",
                txn_id=self.txn_id,
            ) from exc
        self.redo_records += 1

    # -- the nine change sinks ------------------------------------------------------------------
    #
    # Each hands :meth:`_redo` its change's inverse, ``(class, address,
    # *fields)``, and the forward record's class, address and fields.

    # EntitySink: tuple / catalog entity changes

    def entity_inserted(self, address: EntityAddress, data: bytes) -> None:
        self._redo((redo.TupleDelete, address), redo.TupleInsert, address, data)

    def entity_updated(self, address: EntityAddress, before: bytes, after: bytes) -> None:
        self._redo((redo.TupleUpdate, address, before), redo.TupleUpdate, address, after)

    def entity_patched(
        self, address: EntityAddress, start: int, before: bytes, after: bytes
    ) -> None:
        """A single-field byte-range update (the compact relation record)."""
        inverse = (redo.FieldPatch, address, start, before)
        self._redo(inverse, redo.FieldPatch, address, start, after)

    def entity_deleted(self, address: EntityAddress, before: bytes) -> None:
        self._redo((redo.TupleInsert, address, before), redo.TupleDelete, address)

    # heap (string space) operations

    def heap_put(self, partition: PartitionAddress, handle: int, data: bytes) -> None:
        self._redo((redo.HeapDelete, partition, handle), redo.HeapPut, partition, handle, data)

    def heap_delete(
        self, partition: PartitionAddress, handle: int, before: bytes
    ) -> None:
        self._redo((redo.HeapPut, partition, handle, before), redo.HeapDelete, partition, handle)

    # ChangeSink: index component changes (physical before-images — safe
    # because components are two-phase locked until commit, section 2.3.2)

    def lock_component(self, address: EntityAddress) -> None:
        """Settle the no-wait exclusive lock before a component mutates.

        ``NodeStore`` calls this ahead of the physical write/free (and
        ahead of reporting a new component) so a refused lock (which
        aborts this transaction immediately) finds the component
        untouched — at that point no UNDO entry for the change exists
        yet.  It is the component's one lock request: the write and free
        sinks that follow take none.
        """
        self.lock_entity(address, LockMode.EXCLUSIVE)

    def index_node_written(
        self, address: EntityAddress, before: bytes | None, after: bytes
    ) -> None:
        # a component this transaction created is removed again
        if before is None:
            inverse: tuple = (redo.IndexNodeFree, address)
        else:
            inverse = (redo.IndexNodeWrite, address, before)
        self._redo(inverse, redo.IndexNodeWrite, address, after)

    def index_node_freed(self, address: EntityAddress, before: bytes) -> None:
        self._redo((redo.IndexNodeWrite, address, before), redo.IndexNodeFree, address)

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


class _StatementScope(tuple):
    """What :meth:`Transaction.statement` returns: the transaction and its
    (UNDO, REDO, changed) marks as the statement began."""

    __slots__ = ()

    #: ``statement()`` took the marks, so entering is a no-op C slot.
    __enter__ = object.__init__

    def __exit__(self, exc_type, exc, tb) -> bool:
        txn = self[0]
        if exc_type is not None and txn.state is TxnState.ACTIVE:
            txn._statement_rollback(*self[1:])
        return False  # never swallow the exception
