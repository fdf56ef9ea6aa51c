"""Restart orchestration as a narrow service.

Owns the crash/restart state machine around the
:class:`~repro.recovery.restart.RestartCoordinator`: discarding
uncommitted chains, rebuilding system state (restart phase 1), and
kicking off phase 2 according to the chosen recovery mode.  Phase-2 bulk
restores route through the execution engine, which may fan them out over
a worker pool.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.common.errors import RecoveryError
from repro.recovery.replay_plan import replay_live_commands
from repro.recovery.restart import RestartCoordinator
from repro.wal.records import TxnPrepare, decode_control

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class RecoveryMode(enum.Enum):
    """Post-crash restoration policy (paper section 2.5)."""

    #: Restore every partition before returning from restart — the
    #: database-level baseline behaviour.
    EAGER = "eager"
    #: Restore catalogs only; partitions recover when touched, plus one
    #: background partition per :meth:`Database.pump`.
    ON_DEMAND = "on-demand"


class RecoveryService:
    """Drives restart and the pump's background restore step."""

    def __init__(self, db: "Database"):
        self.db = db

    def background_step(self) -> None:
        """One low-priority phase-2 restore, if a restart is in progress."""
        if self.db.restart_coordinator is not None:
            self.db.restart_coordinator.background_step()

    def resolve_in_doubt(self) -> dict[str, int]:
        """Settle every prepared (in-doubt) SLB chain before phase 1.

        Runs right after uncommitted chains are discarded and *before*
        :class:`RestartCoordinator` drains the committed list: a chain
        resolved to COMMIT simply joins the committed list and flows
        through the ordinary restart pipeline, so no special replay path
        exists for 2PC branches.  The verdict comes from the database's
        ``in_doubt_resolver`` (installed by
        :class:`~repro.shard.ShardedDatabase`, which consults the
        coordinator shard's stable decision table); without a resolver
        the outcome is the presumed-abort default.
        """
        db = self.db
        resolved = {"commit": 0, "abort": 0}
        for txn_id, payload in db.slb.prepared_txns():
            record, _ = decode_control(payload)
            if not isinstance(record, TxnPrepare):
                raise RecoveryError(
                    f"prepared chain of txn {txn_id} carries a "
                    f"{type(record).__name__}, expected TxnPrepare"
                )
            db.twopc.bump("in_doubt_found")
            resolver = db.in_doubt_resolver
            verdict = "abort" if resolver is None else resolver.decide(record)
            if verdict == "commit":
                db.slb.commit_prepared(txn_id)
                db.twopc.bump("in_doubt_committed")
            else:
                db.slb.abort_prepared(txn_id)
                db.twopc.bump("in_doubt_aborted")
            db.audit.record(txn_id, f"in-doubt-{verdict}", db.clock.now)
            if resolver is not None:
                resolver.acknowledge(record, verdict)
            resolved[verdict] += 1
        return resolved

    def restart(self, mode: RecoveryMode) -> RestartCoordinator:
        """Bring the system back: catalogs first, then data per ``mode``."""
        db = self.db
        if not db.crashed:
            raise RecoveryError("restart() called but the system is not crashed")
        db.slb.discard_uncommitted()
        self.resolve_in_doubt()
        from repro.txn.manager import TransactionManager

        db.transactions = TransactionManager(db)
        coordinator = RestartCoordinator(db)
        coordinator.restore_system_state()
        db.restart_coordinator = coordinator
        db.crashed = False
        # Command replay runs unconditionally between the phases: the live
        # command-log suffix is re-executed (in dependency-batched parallel
        # under a worker engine) before any user transaction — or an eager
        # bulk restore — can observe a closure partition.
        replay_live_commands(db)
        if mode is RecoveryMode.EAGER:
            coordinator.recover_everything()
        return coordinator
