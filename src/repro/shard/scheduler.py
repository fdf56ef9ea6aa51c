"""The sharded scheduler: routed script execution with no-wait retry.

Scripts are the same replayable generators a single node runs
(docs/API.md has the contract).  Submission carries the declared access
list, and the router splits the batch into lanes, each a
:class:`~repro.txn.scheduler.Scheduler`:

* **single-shard scripts** go to their node's scheduler — on a threaded
  cluster every node's pool runs on its own driver thread, so N shards
  genuinely commit in parallel; on a sim cluster the nodes run one after
  the other, keeping the deterministic schedule;
* **cross-shard scripts** share one lane that belongs to no node: each
  attempt begins a :class:`~repro.shard.sharded.DistributedTransaction`,
  the lane interleaves on the caller, and a no-wait conflict on any
  branch aborts the whole distributed transaction (presumed abort —
  nothing was logged) before the script goes round again.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterator

from repro.txn.scheduler import Scheduler, Script, ScriptResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.sharded import DistributedTransaction, ShardedDatabase


class ShardedScheduler:
    """Routes a batch of scripts across the cluster and runs it.

    Keeps the single-node contract: submit, :meth:`run`, one
    :class:`~repro.txn.scheduler.ScriptResult` per submission, in
    submission order.
    """

    def __init__(self, cluster: "ShardedDatabase", max_attempts: int = 20):
        self.cluster = cluster
        self.max_attempts = max_attempts
        self._cross = Scheduler(None, max_attempts)
        #: Node lanes by shard id, built on first use and kept — like the
        #: cross lane — so their counters accumulate across runs.
        self._nodes: dict[int, Scheduler] = {}
        #: The routed batch: ``(lane, script, name, begin)`` per submission.
        self._batch: list[tuple] = []

    def submit(self, script: Script, relations: list[str], name: str | None = None) -> None:
        """Route one script by its declared access list and queue it."""
        shard_ids = self.cluster.router.route(relations)
        label = name if name is not None else f"script-{len(self._batch)}"
        if len(shard_ids) > 1:
            begin = partial(self._begin_cross, list(relations), shard_ids)
            self._batch.append((self._cross, script, label, begin))
            return
        lane = self._nodes.get(shard_ids[0])
        if lane is None:
            lane = Scheduler(self.cluster.nodes[shard_ids[0]].db, self.max_attempts)
            self._nodes[shard_ids[0]] = lane
        self._batch.append((lane, script, label, None))

    def _begin_cross(
        self, relations: list[str], shard_ids: tuple[int, ...]
    ) -> "DistributedTransaction":
        self.cluster.ensure_recovered(relations)
        return self.cluster.begin_distributed(shard_ids)

    def run(self) -> list[ScriptResult]:
        """Run the batch: node lanes first (parallel on a threaded
        cluster), then the cross-shard lane and a cluster pump.  Results
        come back in submission order whichever lane ran a script; the
        batch is consumed whether this returns or raises."""
        batch, self._batch = self._batch, []

        def run_lane(lane: Scheduler) -> Iterator[ScriptResult]:
            # a lane takes its share only now, so one that an earlier
            # lane's failure keeps from running is left nothing stale
            for owner, script, name, begin in batch:
                if owner is lane:
                    lane.submit(script, name=name, begin=begin)
            return iter(lane.run())

        used = {entry[0] for entry in batch}
        nodes = [lane for _, lane in sorted(self._nodes.items()) if lane in used]
        results = dict(
            zip(nodes, self.cluster.fan_out([partial(run_lane, lane) for lane in nodes]))
        )
        if self._cross in used:
            results[self._cross] = run_lane(self._cross)
            self.cluster.pump()
        return [next(results[entry[0]]) for entry in batch]

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        cross = self._cross.stats()
        return {
            "single_shard": {sid: lane.stats() for sid, lane in sorted(self._nodes.items())},
            "cross_shard": {
                key: cross[key] for key in ("runs", "committed", "failed", "conflicts")
            },
        }
