"""Database-level checkpointing and recovery (the Hagmann-style baseline).

Section 1.2: earlier memory-resident recovery proposals "treat the
database as a single object instead of a collection of smaller objects —
for post-crash recovery, these methods will reload the entire database
and process the log before the database is ready for transaction
processing to resume."

:class:`WholeDatabaseCheckpointer` runs the one checkpoint transaction
(:meth:`~repro.checkpoint.manager.CheckpointManager.copy`) over *every*
resident partition at once, so each checkpoint pays for the whole
database instead of being amortised over a partition's updates.
:func:`full_reload_restart` restores everything eagerly and reports the
simulated time before the first transaction can run — database-level
recovery being exactly partition-level recovery with one very large
partition (section 3.4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import CheckpointError
from repro.db.database import RecoveryMode
from repro.recovery.replay_plan import decode_live_commands

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class WholeDatabaseCheckpointer:
    """Checkpoints the entire database as one action."""

    def __init__(self, db: "Database"):
        self.db = db
        self.sweeps = 0
        self.partitions_written = 0

    def checkpoint_all(self) -> float:
        """One full-database checkpoint; returns simulated seconds.

        Every resident partition (catalog, relations, indexes) is copied
        in one checkpoint transaction, which settles the live commands
        with it (their closures are resident: replay and predeclaration
        put them there), and then acknowledged like any checkpoint:
        superseded slots freed, bin leftovers archived.
        """
        db = self.db
        start = db.clock.now
        addresses = [
            partition.address
            for segment in db.memory.segments()
            for partition in segment.resident_partitions()
        ]
        if not db.checkpoints.copy(addresses, decode_live_commands(db)):
            raise CheckpointError("whole-database checkpoint deferred: a relation is busy")
        db.recovery_processor.acknowledge_finished()
        self.sweeps += 1
        self.partitions_written += len(addresses)
        return db.clock.now - start


def full_reload_restart(db: "Database") -> dict:
    """Crash already happened; restore the entire database before any
    transaction runs.  Returns timing statistics (simulated seconds)."""
    start = db.clock.now
    coordinator = db.restart(RecoveryMode.EAGER)
    elapsed = db.clock.now - start
    return {
        "seconds_to_first_transaction": elapsed,
        "seconds_total": elapsed,
        "partitions_recovered": coordinator.partitions_recovered,
        "records_replayed": coordinator.records_replayed,
        "pages_read": coordinator.pages_read,
    }
