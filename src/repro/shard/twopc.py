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

Recovery: a crashed node restarts with in-doubt chains; its
``in_doubt_resolver`` is the cluster's :class:`TwoPhaseCommit` itself
(:meth:`~TwoPhaseCommit.decide`, :meth:`~TwoPhaseCommit.acknowledge`),
which reads the coordinator's decision table — stable memory, readable
even while the coordinator node itself is down — so restart commits or
aborts each chain, and acks.  A coordinator that died between prepare and decision left no
entry, so every branch resolves to the presumed abort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.chaos import crash_point, register_crash_point
from repro.sim.faults import SimulatedCrash
from repro.txn.transaction import TxnState
from repro.wal.records import TxnPrepare

if TYPE_CHECKING:  # pragma: no cover - typing only
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


class TwoPhaseCommit:
    """The facade's commit coordinator for distributed transactions."""

    def __init__(self, facade: "ShardedDatabase"):
        self.facade = facade
        #: In-flight distributed transactions by gtid, so a shard crash
        #: can settle the survivors' branches (presumed abort or re-driven
        #: phase 2) without waiting for the dead node's restart.
        self._pending: dict[str, "DistributedTransaction"] = {}
        self.distributed_started = 0
        self.distributed_committed = 0
        self.distributed_aborted = 0

    # -- registry -----------------------------------------------------------------

    def register(self, dtxn: "DistributedTransaction") -> None:
        self._pending[dtxn.gtid] = dtxn
        self.distributed_started += 1

    def forget(self, gtid: str) -> None:
        self._pending.pop(gtid, None)

    def pending_gtids(self) -> list[str]:
        return sorted(self._pending)

    # -- the protocol -------------------------------------------------------------

    def commit_distributed(self, dtxn: "DistributedTransaction") -> None:
        """Prepare every branch, log the decision, run phase 2."""
        try:
            for sid in dtxn.shard_ids:
                txn = dtxn.branches[sid]
                txn.prepare(
                    TxnPrepare(txn.txn_id, dtxn.gtid, sid, dtxn.coordinator, dtxn.shard_ids)
                )
                txn.db.events.emit("twopc.prepare", gtid=dtxn.gtid, shard=sid,
                                   txn_id=txn.txn_id, coordinator=dtxn.coordinator)
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
            self._ack(dtxn.coordinator, dtxn.gtid, sid)
        dtxn.state = TxnState.COMMITTED
        self.distributed_committed += 1
        self.forget(dtxn.gtid)

    def abort_distributed(self, dtxn: "DistributedTransaction") -> None:
        """Roll back every live branch; no decision is ever logged."""
        for sid in dtxn.shard_ids:
            if self.facade.nodes[sid].crashed:
                continue  # resolved by that node's restart (presumed abort)
            txn = dtxn.branches[sid]
            if txn.state is TxnState.ACTIVE:
                txn.abort()
            elif txn.state is TxnState.PREPARED:
                txn.abort_prepared()
        self.facade.nodes[dtxn.coordinator].events.emit(  # the verdict presumed abort never logs
            "twopc.decision", gtid=dtxn.gtid, verdict="abort", shards=list(dtxn.shard_ids))
        dtxn.state = TxnState.ABORTED
        self.distributed_aborted += 1
        self.forget(dtxn.gtid)

    # -- the stable decision table ------------------------------------------------

    def _log_decision(self, dtxn: "DistributedTransaction") -> None:
        """The commit point: one stable write on the coordinator node."""
        coordinator_db = self.facade.nodes[dtxn.coordinator]
        table = dict(coordinator_db.slb.get_well_known(DECISIONS_KEY) or {})
        table[dtxn.gtid] = {
            "verdict": "commit",
            "pending": list(dtxn.shard_ids),
        }
        coordinator_db.slb.put_well_known(DECISIONS_KEY, table)
        coordinator_db.twopc.inc("decisions_logged")
        coordinator_db.events.emit(
            "twopc.decision", gtid=dtxn.gtid, verdict="commit", shards=list(dtxn.shard_ids))

    def lookup_decision(self, coordinator: int, gtid: str) -> str:
        """The coordinator's verdict for ``gtid`` — absent means abort."""
        table = self.facade.nodes[coordinator].slb.get_well_known(DECISIONS_KEY) or {}
        entry = table.get(gtid)
        if entry is not None and entry["verdict"] == "commit":
            return "commit"
        return "abort"

    def _ack(self, coordinator: int, gtid: str, shard: int) -> None:
        """One participant applied the verdict; forget fully-acked entries."""
        coordinator_db = self.facade.nodes[coordinator]
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
        return dict(self.facade.nodes[coordinator].slb.get_well_known(DECISIONS_KEY) or {})

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
        touched = [
            dtxn for dtxn in self._pending.values() if shard_id in dtxn.shard_ids
        ]
        for dtxn in touched:
            verdict = self.lookup_decision(dtxn.coordinator, dtxn.gtid)
            if verdict == "commit":
                for sid in dtxn.shard_ids:
                    if self.facade.nodes[sid].crashed:
                        continue
                    txn = dtxn.branches[sid]
                    if txn.state is TxnState.PREPARED:
                        txn.commit_prepared()
                        self._ack(dtxn.coordinator, dtxn.gtid, sid)
                dtxn.state = TxnState.COMMITTED
                self.distributed_committed += 1
                self.forget(dtxn.gtid)
            else:
                self.abort_distributed(dtxn)

    # -- in-doubt resolution: every node's ``in_doubt_resolver`` ------------------

    def decide(self, prepare: TxnPrepare) -> str:
        """A restarting node's in-doubt branch: the coordinator's verdict."""
        return self.lookup_decision(prepare.coordinator, prepare.gtid)

    def acknowledge(self, prepare: TxnPrepare, verdict: str) -> None:
        """A restarting node applied ``verdict``; a commit is acked."""
        if verdict == "commit":
            self._ack(prepare.coordinator, prepare.gtid, prepare.shard)

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        """Facade-level protocol counters (each node's own 2PC counters
        are in its ``Database.stats()["twopc"]``)."""
        return {
            "distributed_started": self.distributed_started,
            "distributed_committed": self.distributed_committed,
            "distributed_aborted": self.distributed_aborted,
            "pending": len(self._pending),
        }
