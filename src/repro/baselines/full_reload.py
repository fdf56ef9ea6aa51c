"""Database-level checkpointing and recovery (the Hagmann-style baseline).

Section 1.2: earlier memory-resident recovery proposals "treat the
database as a single object instead of a collection of smaller objects —
for post-crash recovery, these methods will reload the entire database
and process the log before the database is ready for transaction
processing to resume."

:class:`WholeDatabaseCheckpointer` streams *every* resident partition to
the checkpoint disk in one sweep (under per-relation read locks), so each
checkpoint pays for the whole database instead of being amortised over a
partition's updates.  :func:`full_reload_restart` restores everything
eagerly and reports the simulated time before the first transaction can
run — database-level recovery being exactly partition-level recovery with
one very large partition (section 3.4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.checkpoint.manager import COPY_INSTRUCTIONS_PER_BYTE
from repro.concurrency.locks import LockMode
from repro.db.database import RecoveryMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class WholeDatabaseCheckpointer:
    """Checkpoints the entire database as one action."""

    def __init__(self, db: "Database"):
        self.db = db
        self.sweeps = 0
        self.partitions_written = 0
        self.bytes_written = 0

    def checkpoint_all(self) -> float:
        """One full-database checkpoint sweep; returns simulated seconds.

        Every resident partition (catalog, relations, indexes) is copied
        and written; afterwards every bin's log information is released
        exactly as a per-partition checkpoint would do.
        """
        db = self.db
        start = db.clock.now
        with db.transactions.scope(system=True) as txn:
            for segment in db.memory.segments():
                lock_segment = db.checkpoints.lock_segment_for(segment.segment_id)
                txn.lock_relation(lock_segment, LockMode.SHARED)
                for partition in segment.resident_partitions():
                    image = partition.to_bytes()
                    db.main_cpu.charge(
                        COPY_INSTRUCTIONS_PER_BYTE * len(image), "checkpoint-copy"
                    )
                    slot = db.checkpoints.claim_slot(txn)
                    previous = db.checkpoints.install_slot(partition.address, slot, txn)
                    db.checkpoint_disk.write_image(slot, image)
                    if previous is not None:
                        db.checkpoint_disk.free(previous)
                    self.partitions_written += 1
                    self.bytes_written += len(image)
        # all log information predates the sweep: reset every active bin
        for bin_ in db.slt.active_bins():
            db.slt.reset_after_checkpoint(bin_.bin_index)
        db.publish_catalog_locations()
        self.sweeps += 1
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
