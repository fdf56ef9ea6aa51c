"""Presumed-abort two-phase commit over the no-wait 2PL.

Cross-shard transactions run one *branch* transaction per participant
node.  Commit is the lightweight protocol the paper's instant-commit
machinery makes almost free:

* **Prepare** — each branch forces a :class:`~repro.wal.records.TxnPrepare`
  into its node's Stable Log Buffer (:meth:`Transaction.prepare`): the
  chain moves to the stable prepared list, locks and UNDO stay held.
  Because the SLB is stable memory, "force" costs a list move, not an
  I/O — the same trick as single-shard instant commit.
* **Decision** — with every branch prepared, the coordinator (lowest
  participant shard id) logs COMMIT into its SLB's well-known decision
  table.  That single stable write is the transaction's commit point.
  Aborts are never logged: an absent decision *is* ABORT (presumed
  abort), so read-only and failed transactions cost the coordinator
  nothing.
* **Phase 2** — each branch's chain moves prepared → committed and its
  locks release; each ack removes the participant from the decision
  entry, and a fully-acknowledged decision is forgotten.

Recovery: a crashed node restarts with in-doubt chains; its resolver
(installed per node by :class:`~repro.shard.ShardedDatabase`) reads the
coordinator's decision table — stable memory, readable even while the
coordinator node itself is down — commits or aborts each chain, and
acks.  A coordinator that died between prepare and decision left no
entry, so every branch resolves to the presumed abort.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.common.errors import ReproError
from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.txn.transaction import TxnState
from repro.wal.records import TxnDecision, TxnPrepare

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.shard.sharded import DistributedTransaction, ShardedDatabase

#: Well-known SLB key of a coordinator's stable decision table.
DECISIONS_KEY = "2pc-decisions"

register_crash_point(
    "shard.2pc.before-decision",
    "every branch prepared, before the coordinator logs COMMIT",
)
register_crash_point(
    "shard.2pc.after-decision",
    "COMMIT decision logged, before any branch runs phase 2",
)


class TwoPCError(ReproError):
    """A protocol-state violation in the 2PC layer."""


class _NodeResolver:
    """One node's in-doubt resolver: consult the coordinator's table.

    Installed as ``db.in_doubt_resolver`` on every shard node; restart's
    :func:`~repro.recovery.restart.resolve_in_doubt` calls ``decide`` per
    prepared chain and ``acknowledge`` after the verdict is applied.
    """

    def __init__(self, twopc: "TwoPhaseCommit", shard_id: int):
        self._twopc = twopc
        self.shard_id = shard_id

    def decide(self, prepare: TxnPrepare) -> str:
        return self._twopc.lookup_decision(prepare.coordinator, prepare.gtid)

    def acknowledge(self, prepare: TxnPrepare, verdict: str) -> None:
        if verdict == "commit":
            self._twopc.acknowledge(prepare.coordinator, prepare.gtid, prepare.shard)


class TwoPhaseCommit:
    """The facade's commit coordinator for distributed transactions."""

    def __init__(self, facade: "ShardedDatabase"):
        self.facade = facade
        #: In-flight distributed transactions by gtid, so a shard crash
        #: can settle the survivors' branches (presumed abort or re-driven
        #: phase 2) without waiting for the dead node's restart.
        self._pending: dict[str, "DistributedTransaction"] = {}  # guarded-by: _mutex
        self._mutex = threading.Lock()
        #: Serialises copy-modify-put cycles on every node's decision
        #: table (facade-wide: restart resolution on one node and phase-2
        #: acks on another may target the same coordinator entry).
        self._decision_mutex = threading.RLock()
        self._stats_mutex = threading.Lock()
        self.distributed_started = 0
        self.distributed_committed = 0
        self.distributed_aborted = 0

    # -- registry -----------------------------------------------------------------

    def register(self, dtxn: "DistributedTransaction") -> None:
        with self._mutex:
            self._pending[dtxn.gtid] = dtxn
        with self._stats_mutex:
            self.distributed_started += 1

    def forget(self, gtid: str) -> None:
        with self._mutex:
            self._pending.pop(gtid, None)

    def pending_gtids(self) -> list[str]:
        with self._mutex:
            return sorted(self._pending)

    def _node_db(self, shard_id: int) -> "Database":
        return self.facade.nodes[shard_id].db

    # -- the protocol -------------------------------------------------------------

    def commit_distributed(self, dtxn: "DistributedTransaction") -> None:
        """Prepare every branch, log the decision, run phase 2."""
        try:
            for sid in dtxn.shard_ids:
                txn = dtxn.branches[sid]
                record = TxnPrepare(
                    txn.txn_id, dtxn.gtid, sid, dtxn.coordinator, dtxn.shard_ids
                )
                txn.prepare(record.encode())
        except SimulatedCrash:
            # a crash is not an abort (txn/manager.py: settle); the dead
            # node's crash_shard() sweep settles the surviving branches
            raise
        except BaseException:
            self.abort_distributed(dtxn)
            raise
        crash_point("shard.2pc.before-decision")
        self._log_decision(dtxn)
        crash_point("shard.2pc.after-decision")
        for sid in dtxn.shard_ids:
            dtxn.branches[sid].commit_prepared()
            self.acknowledge(dtxn.coordinator, dtxn.gtid, sid)
        dtxn.state = TxnState.COMMITTED
        with self._stats_mutex:
            self.distributed_committed += 1
        self.forget(dtxn.gtid)

    def abort_distributed(self, dtxn: "DistributedTransaction") -> None:
        """Roll back every live branch; no decision is ever logged."""
        for sid in dtxn.shard_ids:
            if self._node_db(sid).crashed:
                continue  # resolved by that node's restart (presumed abort)
            txn = dtxn.branches[sid]
            if txn.state is TxnState.ACTIVE:
                txn.abort()
            elif txn.state is TxnState.PREPARED:
                txn.abort_prepared()
        dtxn.state = TxnState.ABORTED
        with self._stats_mutex:
            self.distributed_aborted += 1
        self.forget(dtxn.gtid)

    # -- the stable decision table ------------------------------------------------

    def _log_decision(self, dtxn: "DistributedTransaction") -> None:
        """The commit point: one stable write on the coordinator node."""
        record = TxnDecision(0, dtxn.gtid, "commit", dtxn.shard_ids)
        coordinator_db = self._node_db(dtxn.coordinator)
        with self._decision_mutex:
            table = dict(coordinator_db.slb.get_well_known(DECISIONS_KEY) or {})
            table[dtxn.gtid] = {
                "verdict": "commit",
                "pending": list(dtxn.shard_ids),
                "record": record.encode(),
            }
            coordinator_db.slb.put_well_known(DECISIONS_KEY, table)
        coordinator_db.twopc.inc("decisions_logged")

    def lookup_decision(self, coordinator: int, gtid: str) -> str:
        """The coordinator's verdict for ``gtid`` — absent means abort."""
        with self._decision_mutex:
            table = self._node_db(coordinator).slb.get_well_known(DECISIONS_KEY) or {}
            entry = table.get(gtid)
        if entry is not None and entry["verdict"] == "commit":
            return "commit"
        return "abort"

    def acknowledge(self, coordinator: int, gtid: str, shard: int) -> None:
        """One participant applied the verdict; forget fully-acked entries."""
        coordinator_db = self._node_db(coordinator)
        with self._decision_mutex:
            table = dict(coordinator_db.slb.get_well_known(DECISIONS_KEY) or {})
            entry = table.get(gtid)
            if entry is None:
                return
            pending = [sid for sid in entry["pending"] if sid != shard]
            if pending:
                table[gtid] = {**entry, "pending": pending}
            else:
                del table[gtid]
            coordinator_db.slb.put_well_known(DECISIONS_KEY, table)

    def decision_table(self, coordinator: int) -> dict:
        """A copy of one node's decision table (tests / monitoring)."""
        with self._decision_mutex:
            return dict(self._node_db(coordinator).slb.get_well_known(DECISIONS_KEY) or {})

    # -- shard-crash handling -----------------------------------------------------

    def on_shard_crashed(self, shard_id: int) -> None:
        """Settle every in-flight distributed txn touching a dead node.

        Presumed abort does the heavy lifting: without a logged COMMIT
        the survivors' branches roll back immediately — no blocking on
        the dead node, which is the point of choosing presumed abort
        over presumed commit for a no-wait system.  With a logged COMMIT
        the survivors' prepared branches are driven through phase 2
        (the dead node's branch resolves the same way at its restart).
        """
        with self._mutex:
            touched = [
                dtxn for dtxn in self._pending.values() if shard_id in dtxn.shard_ids
            ]
        for dtxn in touched:
            verdict = self.lookup_decision(dtxn.coordinator, dtxn.gtid)
            if verdict == "commit":
                for sid in dtxn.shard_ids:
                    if self._node_db(sid).crashed:
                        continue
                    txn = dtxn.branches[sid]
                    if txn.state is TxnState.PREPARED:
                        txn.commit_prepared()
                        self.acknowledge(dtxn.coordinator, dtxn.gtid, sid)
                dtxn.state = TxnState.COMMITTED
                with self._stats_mutex:
                    self.distributed_committed += 1
                self.forget(dtxn.gtid)
            else:
                self.abort_distributed(dtxn)

    def resolver_for(self, shard_id: int) -> _NodeResolver:
        return _NodeResolver(self, shard_id)

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        """Facade-level protocol counters (each node's own 2PC counters
        are in its ``Database.stats()["twopc"]``)."""
        with self._stats_mutex:
            out = {
                "distributed_started": self.distributed_started,
                "distributed_committed": self.distributed_committed,
                "distributed_aborted": self.distributed_aborted,
            }
        out["pending"] = len(self.pending_gtids())
        return out
