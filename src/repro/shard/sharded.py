"""The sharded database facade: N plain Databases behind the Database API.

:class:`ShardedDatabase` preserves the public single-node surface —
``create_relation`` / ``table`` / ``transaction`` / ``stats`` /
``crash`` / ``restart`` — while dispatching through a
:class:`~repro.shard.router.ShardRouter`:

* a transaction whose declared access list routes to **one** shard is
  that node's ordinary transaction (the same code path as a standalone
  database, which is why ``shards=1`` degenerates digest-identically);
* a transaction touching **several** shards becomes a
  :class:`DistributedTransaction` — one branch per node — committed by
  the presumed-abort :class:`~repro.shard.twopc.TwoPhaseCommit`.

Relations are whole-relation sharded (each relation, with its indexes,
lives on exactly one node), so the paper's predeclared access lists are
a complete routing oracle: declaring relations declares shards.  A
relation handle is the owning node's plain
:class:`~repro.db.relation.Relation`, which asks the transaction it is
given to ``resolve`` itself against that node.
"""

from __future__ import annotations

import contextlib

from repro.common.config import SystemConfig
from repro.common.errors import ShardingError
from repro.db.database import Database, RecoveryMode
from repro.db.monitor import status_page
from repro.db.relation import Relation
from repro.recovery.oracle import logical_digest
from repro.shard.router import ShardRouter
from repro.shard.twopc import TwoPhaseCommit
from repro.txn.manager import TransactionScope, settle
from repro.txn.transaction import Transaction, TxnState


class DistributedTransaction:
    """One branch transaction per participant shard, committed via 2PC.

    Scripts use it exactly like a plain transaction: a node's relation
    resolves it to the branch on that node (:meth:`resolve`).  The
    coordinator is the lowest declared shard id.  It ends like a plain
    transaction too — ``state``, :meth:`commit`, :meth:`abort` — so the
    one transaction frame (:func:`repro.txn.manager.settle`) drives both.
    """

    def __init__(self, facade: "ShardedDatabase", gtid: str, shard_ids: tuple[int, ...]):
        self.facade = facade
        self.gtid = gtid
        self.shard_ids = tuple(sorted(shard_ids))
        self.coordinator = self.shard_ids[0]
        self.state = TxnState.ACTIVE
        self.branches: dict[int, Transaction] = {}
        try:
            for sid in self.shard_ids:
                self.branches[sid] = facade.nodes[sid].transactions.begin(
                    user_data=f"2pc:{gtid}"
                )
        except BaseException as error:
            for txn in self.branches.values():
                settle(txn, error)
            raise
        facade.twopc.register(self)

    def commit(self) -> None:
        """Prepare every branch, log the decision, run phase 2."""
        self.facade.twopc.commit_distributed(self)

    def abort(self) -> None:
        """Roll back every live branch (presumed abort: nothing logged)."""
        self.facade.twopc.abort_distributed(self)

    def branch(self, shard_id: int | None) -> Transaction:
        try:
            return self.branches[shard_id]  # type: ignore[index]
        except KeyError:
            raise ShardingError(
                f"distributed txn {self.gtid} has no branch on shard "
                f"{shard_id}; declare the relation in the access list"
            ) from None

    def resolve(self, db: Database) -> Transaction:
        """The branch that may touch ``db``'s relations."""
        return self.branch(db.shard_id).resolve(db)

    @property
    def txn_id(self) -> int:
        """The coordinator branch's id: what names this transaction
        wherever a plain transaction's ``txn_id`` would."""
        return self.branches[self.coordinator].txn_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedTransaction(gtid={self.gtid!r}, shards={self.shard_ids}, "
            f"state={self.state.value})"
        )


class ShardedDatabase:
    """N shared-nothing :class:`Database` nodes behind the single-database API."""

    def __init__(self, shards: int = 1, config: SystemConfig | None = None):
        self.router = ShardRouter(shards)
        self.twopc = TwoPhaseCommit(self)
        self.nodes: list[Database] = []
        for sid in range(shards):
            db = Database(config)
            db.shard_id = sid
            db.in_doubt_resolver = self.twopc
            self.nodes.append(db)
        self._next_gtid = 1

    @property
    def shards(self) -> int:
        return len(self.nodes)

    # -- DDL ----------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        schema,
        primary_key: str,
        primary_index: str = "hash",
        shard: int | None = None,
    ) -> Relation:
        """Create a relation on its home shard (pinned or stable-hashed)."""
        sid = self.router.assign(name, shard)
        return self.nodes[sid].create_relation(name, schema, primary_key, primary_index)

    def create_index(
        self, index_name: str, relation_name: str, field: str, kind: str = "ttree"
    ) -> None:
        """Indexes live with their relation on the owning node."""
        sid = self.router.shard_of(relation_name)
        self.nodes[sid].create_index(index_name, relation_name, field, kind)

    def drop_index(self, index_name: str) -> None:
        for db in self.nodes:
            if any(d.name == index_name for d in db.catalog.indexes()):
                db.drop_index(index_name)
                return
        raise ShardingError(f"no shard owns index {index_name!r}")

    def drop_relation(self, name: str) -> None:
        self.nodes[self.router.shard_of(name)].drop_relation(name)
        self.router.unassign(name)

    def table(self, name: str) -> Relation:
        """The owning node's relation handle."""
        return self.nodes[self.router.shard_of(name)].table(name)

    # -- transactions -------------------------------------------------------------

    def begin(self, relations: list[str] | tuple[str, ...] = (), *, user_data: str = ""):
        """Begin a transaction routed by its declared access list, after
        predeclared recovery of those relations.  One shard: the owning
        node's ordinary transaction.  Several: a
        :class:`DistributedTransaction`.  An empty declaration is shard
        0's (the ``shards=1`` degenerate home).  What
        :meth:`transaction` and a cluster's script ``begin`` call."""
        self.ensure_recovered(relations)
        shard_ids = self.router.route(relations)
        if len(shard_ids) == 1:
            return self.nodes[shard_ids[0]].transactions.begin(user_data=user_data)
        return self.begin_distributed(shard_ids)

    @contextlib.contextmanager
    def transaction(self, *, pump: bool = True, relations: list[str] | None = None):
        """``with cluster.transaction(relations=[...]) as txn:`` — :meth:`begin`,
        commit (2PC when distributed) on success, roll back everywhere on
        exception, then pump the nodes it touched."""
        relations = relations or []
        with TransactionScope(self.begin, relations=relations) as txn:
            yield txn
        if pump:
            for sid in self.router.route(relations):
                self.nodes[sid].pump()

    def ensure_recovered(self, relations) -> None:
        """Predeclared recovery (paper method 1), per owning node."""
        for name in relations:
            self.nodes[self.router.shard_of(name)].ensure_recovered([name])

    def begin_distributed(self, shard_ids: tuple[int, ...]) -> DistributedTransaction:
        """A fresh, registered distributed transaction over ``shard_ids``."""
        gtid = f"g{self._next_gtid}"
        self._next_gtid += 1
        return DistributedTransaction(self, gtid, shard_ids)

    # -- cluster-wide duties ------------------------------------------------------

    def pump(self) -> None:
        """Every node's between-transactions duties, node by node."""
        for db in self.nodes:
            db.pump()

    def register_scheduler(self, scheduler) -> None:
        """A cluster's :class:`~repro.txn.scheduler.Scheduler` drives every
        node: each reports it in ``stats()["scheduler"]``."""
        for db in self.nodes:
            db.register_scheduler(scheduler)

    # -- crash / restart ----------------------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """One node dies: lose its main memory, settle in-flight 2PC."""
        if not self.nodes[shard_id].crashed:
            self.nodes[shard_id].crash()
        self.twopc.on_shard_crashed(shard_id)

    def crash(self) -> None:
        """Whole-cluster power failure."""
        for db in self.nodes:
            if not db.crashed:
                db.crash()
        for sid in range(self.shards):
            self.twopc.on_shard_crashed(sid)

    def restart_shard(self, shard_id: int, mode: RecoveryMode = RecoveryMode.ON_DEMAND):
        """Restart one node; its in-doubt chains resolve against the
        (stable, still-readable) coordinator decision tables."""
        return self.nodes[shard_id].restart(mode)

    def restart(self, mode: RecoveryMode = RecoveryMode.ON_DEMAND) -> None:
        """Restart every crashed node."""
        for db in self.nodes:
            if db.crashed:
                db.restart(mode)

    def recover_everything(self) -> None:
        for db in self.nodes:
            if db.restart_coordinator is not None:
                db.restart_coordinator.recover_everything()

    @property
    def crashed_shards(self) -> list[int]:
        return [sid for sid, db in enumerate(self.nodes) if db.crashed]

    def digests(self) -> dict[int, str]:
        """Per-shard logical digests (requires full residency everywhere)."""
        return {sid: logical_digest(db) for sid, db in enumerate(self.nodes)}

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        """The cluster's snapshot: every node's :meth:`Database.stats` in
        ``per_shard``, the coordinator's 2PC counters, and every numeric
        top-level figure of the nodes summed — ``clock_seconds`` (each
        node keeps its own clock) is the latest of them."""
        per_shard = {sid: db.stats() for sid, db in enumerate(self.nodes)}
        snapshots = list(per_shard.values())
        rolled = {
            key: sum(snapshot[key] for snapshot in snapshots)
            for key, value in snapshots[0].items()
            if isinstance(value, (int, float)) and key != "shard_id"
        }
        rolled["clock_seconds"] = max(snapshot["clock_seconds"] for snapshot in snapshots)
        return {
            "shards": {
                "count": self.shards,
                "router": self.router.stats(),
                "per_shard": per_shard,
            },
            "twopc": self.twopc.stats(),
            **rolled,
        }

    def report(self) -> str:
        stats = self.stats()
        twopc = stats["twopc"]
        lines = [
            f"=== sharded cluster: {self.shards} nodes " + "=" * 24,
            f"2pc                 {twopc['distributed_committed']} committed / "
            f"{twopc['distributed_aborted']} aborted / "
            f"{twopc['pending']} in flight",
        ]
        for shard_id, snapshot in stats["shards"]["per_shard"].items():
            lines.append(f"--- node {shard_id} " + "-" * 40)
            lines.append(status_page(snapshot))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedDatabase(shards={self.shards})"
