"""Shared-nothing sharding over the single-node database.

The package decomposes the system into :class:`ShardNode`\\ s (each a
full Database with its own stable memory, logging, checkpointing, and
recovery), routes transactions with the paper's predeclared access
lists (:class:`ShardRouter`), and commits cross-shard work with a
presumed-abort two-phase commit over the no-wait 2PL
(:class:`~repro.shard.twopc.TwoPhaseCommit`).  The
:class:`ShardedDatabase` facade keeps the public single-node API, and
``shards=1`` degenerates digest-identically to a standalone database.
"""

from repro.shard.node import ShardNode
from repro.shard.router import RoutingError, ShardRouter
from repro.shard.scheduler import ShardedScheduler
from repro.shard.sharded import (
    DistributedTransaction,
    ShardedDatabase,
    ShardedRelation,
    ShardingError,
)
from repro.shard.twopc import DECISIONS_KEY, TwoPCError, TwoPhaseCommit

__all__ = [
    "DECISIONS_KEY",
    "DistributedTransaction",
    "RoutingError",
    "ShardNode",
    "ShardRouter",
    "ShardedDatabase",
    "ShardedRelation",
    "ShardedScheduler",
    "ShardingError",
    "TwoPCError",
    "TwoPhaseCommit",
]
