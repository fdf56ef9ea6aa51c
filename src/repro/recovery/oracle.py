"""The recovery oracle: a logical digest of committed state.

Recovery is only *proved* correct when post-restart state is compared
against what was committed before the crash.  :func:`logical_digest`
hashes everything a transaction can observe — catalog descriptors, every
entity of every resident partition, every string-heap value — while
excluding allocation counters (``next_offset`` / ``next_handle``), which
aborted transactions advance but REDO replay legitimately does not, and
*empty partitions* (the partition and its descriptor entry): growing a
segment is structural, and the empty partition an aborted insert leaves
behind is nothing a transaction can observe.

:class:`RecoveryVerifier` hooks the database's commit observer and
snapshots the digest at every commit, keyed by the *stable* commit
counter (``slb.commits`` survives crashes).  After crash + restart +
full recovery, :meth:`RecoveryVerifier.verify` recomputes the digest and
asserts it is byte-identical to the one recorded at the last commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING

from repro.common.errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.txn.transaction import Transaction


def logical_digest(db: "Database") -> str:
    """SHA-256 over the database's committed logical state.

    Deterministic: descriptors in name order, each followed by its
    segment's occupied partitions, entities, and heap strings in address
    order (the catalog's own entities *are* the descriptors).  Requires
    every partition to be memory-resident (run full recovery first).
    """
    h = hashlib.sha256()
    for descriptor in [*db.catalog.relations(), *db.catalog.indexes()]:
        segment = db.memory.segment(descriptor.segment_id)
        missing = segment.missing_partitions()
        if missing:
            raise RecoveryError(
                f"digest needs full residency; segment {segment.segment_id} "
                f"is missing partitions {missing}"
            )
        occupied = [p for p in segment.resident_partitions() if len(p) or len(p.heap)]
        listed = {
            number: descriptor.partitions[number]
            for number in (p.address.partition for p in occupied)
        }
        h.update(b"D")
        h.update(dataclasses.replace(descriptor, partitions=listed).encode())
        for partition in occupied:
            h.update(
                f"P{partition.address.segment}:{partition.address.partition}".encode()
            )
            for offset, data in partition.entities():
                h.update(f"E{offset}:{len(data)}".encode())
                h.update(data)
            heap = partition.heap
            for handle in heap.handles():
                data = heap.get(handle)
                h.update(f"H{handle}:{len(data)}".encode())
                h.update(data)
    return h.hexdigest()


class RecoveryVerifier:
    """Snapshots the logical digest at every commit; verifies after
    restart that recovered state equals the last committed snapshot."""

    def __init__(self, db: "Database"):
        self.db = db
        #: stable commit count -> digest at that commit.
        self.digests: dict[int, str] = {}
        # Baseline: the state as of attach time (covers a crash that
        # fires before the workload's first commit).
        self.digests[db.slb.commits] = logical_digest(db)
        db.commit_observer = self._on_commit

    def _on_commit(self, txn: "Transaction") -> None:
        commits = self.db.slb.commits
        # A growth committing inside an open transaction: memory holds that
        # transaction's uncommitted work, and nothing the digest covers changed.
        nested = txn.system and self.db.transactions.active_count > 1
        self.digests[commits] = (
            self.digests[commits - 1] if nested else logical_digest(self.db)
        )

    def detach(self) -> None:
        if self.db.commit_observer == self._on_commit:
            self.db.commit_observer = None

    def expected_digest(self) -> str:
        """The digest recorded at the current stable commit count."""
        commits = self.db.slb.commits
        try:
            return self.digests[commits]
        except KeyError:
            raise RecoveryError(
                f"no digest was recorded at commit {commits}; "
                f"have {sorted(self.digests)}"
            ) from None

    def verify(self) -> str:
        """Assert recovered state matches the last committed snapshot."""
        expected = self.expected_digest()
        actual = logical_digest(self.db)
        if actual != expected:
            raise RecoveryError(
                f"recovered state diverges from commit {self.db.slb.commits}: "
                f"digest {actual[:16]}… != expected {expected[:16]}…"
            )
        return actual
