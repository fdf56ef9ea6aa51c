"""Shared-nothing sharding over the single-node database.

A :class:`ShardedDatabase` is N plain :class:`~repro.db.database.Database`
nodes (each with its own stable memory, logging, checkpointing, and
recovery) behind the public single-node API.  It routes transactions
with the paper's predeclared access lists (:class:`ShardRouter`) and
commits cross-shard work with a presumed-abort two-phase commit over the
no-wait 2PL (:class:`~repro.shard.twopc.TwoPhaseCommit`); one
:class:`~repro.txn.scheduler.Scheduler` interleaves a cluster's scripts,
local and distributed alike.  ``shards=1`` degenerates
digest-identically to a standalone database.
"""

from repro.common.errors import ShardingError
from repro.shard.router import RoutingError, ShardRouter
from repro.shard.sharded import DistributedTransaction, ShardedDatabase
from repro.shard.twopc import DECISIONS_KEY, TwoPhaseCommit

__all__ = [
    "DECISIONS_KEY",
    "DistributedTransaction",
    "RoutingError",
    "ShardRouter",
    "ShardedDatabase",
    "ShardingError",
    "TwoPhaseCommit",
]
