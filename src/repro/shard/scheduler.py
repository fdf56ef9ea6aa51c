"""The sharded scheduler: routed script execution with no-wait retry.

Scripts are the same replayable generators the single-node schedulers
run.  Submission carries the declared access list, and the router splits
the batch:

* **single-shard scripts** go to a per-node
  :class:`~repro.txn.concurrent.ConcurrentScheduler` — on a threaded
  cluster every node's pool runs on its own driver thread, so N shards
  genuinely commit in parallel (the bench's scaling axis); on a sim
  cluster the pools run sequentially, keeping the deterministic
  schedule;
* **cross-shard scripts** are driven by a cooperative round-robin over
  :class:`~repro.shard.sharded.DistributedTransaction` branches: a
  no-wait conflict on any branch aborts the whole distributed
  transaction (presumed abort — nothing was logged) and requeues the
  script with the single-node backoff stagger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.shard.sharded import DistributedTransaction
from repro.txn.concurrent import ConcurrentScheduler
from repro.txn.scheduler import (
    InterleavedScheduler,
    ScriptResult,
    _RunningScript,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.sharded import ShardedDatabase

#: A cross-shard script: drives a distributed transaction, yielding
#: between operations exactly like a single-node script.
CrossScript = Callable[[DistributedTransaction], Generator[None, None, None]]


class _CrossScript(_RunningScript):
    """A submitted cross-shard script: each attempt starts a fresh
    distributed transaction (kept in ``txn``) instead of a local one."""

    def __init__(
        self,
        name: str,
        script: CrossScript,
        relations: list[str],
        shard_ids: tuple[int, ...],
        max_attempts: int,
        slot: int,
    ):
        super().__init__(name, script, max_attempts, slot)
        self.relations = relations
        self.shard_ids = shard_ids
        self.gtids: list[str] = []

    def start(self, cluster: "ShardedDatabase") -> None:
        self.attempts += 1
        cluster.ensure_recovered(self.relations)
        self.txn = cluster._begin_distributed(self.shard_ids)
        self.gtids.append(self.txn.gtid)
        self.generator = iter(self.script(self.txn))


class ShardedScheduler:
    """Routes a batch of scripts across the cluster and runs it.

    Keeps the single-node contract: submit, :meth:`run`, per-script
    :class:`~repro.txn.scheduler.ScriptResult` in submission order.
    """

    def __init__(
        self,
        cluster: "ShardedDatabase",
        max_attempts: int = 20,
        workers: int | None = None,
    ):
        #: The cross-shard lane: the single-node round-robin, stepping
        #: distributed transactions (its ``db`` is the whole cluster — it
        #: needs ``pump()`` and whatever the scripts' ``start`` takes).
        self._cross = InterleavedScheduler(cluster, max_attempts)  # type: ignore[arg-type]
        self.cluster = cluster
        self.max_attempts = max_attempts
        self.workers = workers
        #: Lazily-built per-node pools, reused across runs so their
        #: counters accumulate like a single node's scheduler stats.
        self._node_pools: dict[int, ConcurrentScheduler] = {}
        self._order: list[tuple[str, str]] = []  # (kind, name) in submission order
        self._single_count = 0
        self.cross_runs = 0
        self.cross_committed = 0
        self.cross_failed = 0

    # -- submission ---------------------------------------------------------------

    def _pool(self, shard_id: int) -> ConcurrentScheduler:
        pool = self._node_pools.get(shard_id)
        if pool is None:
            pool = ConcurrentScheduler(
                self.cluster.nodes[shard_id].db,
                max_attempts=self.max_attempts,
                workers=self.workers,
            )
            self._node_pools[shard_id] = pool
        return pool

    def submit(
        self, script, relations: list[str], name: str | None = None
    ) -> None:
        """Route one script by its declared access list and queue it."""
        shard_ids = self.cluster.router.route(relations)
        label = name if name is not None else f"script-{len(self._order)}"
        if len(shard_ids) == 1:
            self._pool(shard_ids[0]).submit(script, name=label)
            self._order.append(("single", label))
            self._single_count += 1
        else:
            self._cross._scripts.append(
                _CrossScript(
                    label,
                    script,
                    list(relations),
                    shard_ids,
                    self.max_attempts,
                    len(self._cross._scripts),
                )
            )
            self._order.append(("cross", label))

    # -- execution ----------------------------------------------------------------

    def run(self) -> list[ScriptResult]:
        """Run the batch: per-node pools first (parallel on a threaded
        cluster), then the cross-shard round-robin.  Results come back in
        submission order regardless of which lane ran a script."""
        results: dict[str, ScriptResult] = {}
        pools = [
            self._node_pools[sid]
            for sid in sorted(self._node_pools)
            if self._node_pools[sid]._scripts
        ]
        pool_results = self.cluster.fan_out([pool.run for pool in pools])
        for batch in pool_results:
            for result in batch:
                results[result.name] = result
        for result in self._run_cross():
            results[result.name] = result
        ordered = [results[name] for _, name in self._order]
        self._order.clear()
        return ordered

    def _run_cross(self) -> list[ScriptResult]:
        """Run the cross-shard lane to completion (it pumps the cluster)."""
        if not self._cross._scripts:
            return []
        results = self._cross.run()
        for result in results:
            if result.committed:
                self.cross_committed += 1
            else:
                self.cross_failed += 1
        self.cross_runs += 1
        return results

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "single_shard": {
                sid: pool.stats() for sid, pool in sorted(self._node_pools.items())
            },
            "cross_shard": {
                "runs": self.cross_runs,
                "committed": self.cross_committed,
                "failed": self.cross_failed,
                "conflicts": self._cross.conflicts,
            },
        }
