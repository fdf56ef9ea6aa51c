"""Two-phase lock manager.

Resources are arbitrary hashable names — the database locks
:class:`~repro.common.types.EntityAddress` values for tuples and index
components, and ``("rel", segment_id)`` names for the relation-level
read locks that checkpoint transactions take (paper section 2.4).

Lock modes are intent / shared / exclusive with upgrade support.  Every
conflict is resolved **no-wait**: a request that cannot be granted is
refused on the spot and the table is left exactly as it was — the
requester aborts (:meth:`~repro.txn.transaction.Transaction.lock`) or, for
a checkpoint's relation lock, tries again on a later pump.  Nothing ever
waits for a lock, so there is no queue, no waits-for graph and no
deadlock to detect; the manager is a table of who holds what.
"""

from __future__ import annotations

import enum
import threading
from typing import Hashable

from repro.common.errors import LockNotHeldError
from repro.concurrency import audit

Resource = Hashable


class LockMode(enum.Enum):
    INTENT_SHARED = "IS"
    INTENT_EXCLUSIVE = "IX"
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return other in _COMPATIBLE[self]


_COMPATIBLE: dict[LockMode, frozenset[LockMode]] = {
    LockMode.INTENT_SHARED: frozenset(
        {LockMode.INTENT_SHARED, LockMode.INTENT_EXCLUSIVE, LockMode.SHARED}
    ),
    LockMode.INTENT_EXCLUSIVE: frozenset(
        {LockMode.INTENT_SHARED, LockMode.INTENT_EXCLUSIVE}
    ),
    LockMode.SHARED: frozenset({LockMode.INTENT_SHARED, LockMode.SHARED}),
    LockMode.EXCLUSIVE: frozenset(),
}

#: Partial order of lock strength; the join of two held modes is the
#: weakest mode at least as strong as both (IX ∨ S promotes to X — we do
#: not model SIX).
_STRENGTH: dict[LockMode, int] = {
    LockMode.INTENT_SHARED: 0,
    LockMode.INTENT_EXCLUSIVE: 1,
    LockMode.SHARED: 1,
    LockMode.EXCLUSIVE: 2,
}


def _join(a: LockMode, b: LockMode) -> LockMode:
    if a is b:
        return a
    if _STRENGTH[a] < _STRENGTH[b]:
        a, b = b, a
    if _STRENGTH[a] > _STRENGTH[b]:
        # strictly stronger absorbs, except the IX/S pair at equal rank
        if a is LockMode.EXCLUSIVE or b is LockMode.INTENT_SHARED:
            return a
    # IX ∨ S (equal strength, different modes) and any leftover: promote
    return LockMode.EXCLUSIVE


def _covers(held: LockMode, wanted: LockMode) -> bool:
    """True when a held mode already grants everything ``wanted`` does."""
    if held is wanted:
        return True
    if held is LockMode.EXCLUSIVE:
        return True
    if held is LockMode.SHARED and wanted is LockMode.INTENT_SHARED:
        return True
    if held is LockMode.INTENT_EXCLUSIVE and wanted is LockMode.INTENT_SHARED:
        return True
    return False


class LockManager:
    """Strict two-phase locking over named resources, no-wait.

    All public entry points serialise on one internal mutex: under the
    concurrent scheduler several worker threads request, release, and
    inspect locks simultaneously, and every grant/refuse decision must
    observe a consistent lock table.  The mutex is a leaf in the global
    order (structure mutex → latch → stable lock): no lock, latch, or
    stable access is ever taken while it is held — the audit-recorder
    hooks fire inside it, but the recorder's own mutex is strictly
    interior.
    """

    def __init__(self):
        #: resource -> {holder: mode held}; a resource nobody holds has
        #: no entry.
        self._holders: dict[Resource, dict[int, LockMode]] = {}
        self._held_by_txn: dict[int, set[Resource]] = {}
        self._mutex = threading.RLock()

    # -- acquisition ---------------------------------------------------------

    def acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """Request ``mode`` on ``resource`` for ``txn_id``.

        Returns True if granted.  A re-request the held mode already
        covers is free.  An upgrade holds the JOIN of the held and
        requested modes (S ∨ IX promotes to X), and it is the join that
        must be compatible with every other holder.  A conflicting
        request returns False and changes nothing.
        """
        with self._mutex:
            holders = self._holders.get(resource)
            held = holders.get(txn_id) if holders else None
            if held is None or not _covers(held, mode):
                wanted = mode if held is None else _join(held, mode)
                if holders is None:
                    self._holders[resource] = {txn_id: wanted}
                elif all(
                    wanted.compatible_with(other)
                    for holder, other in holders.items()
                    if holder != txn_id
                ):
                    holders[txn_id] = wanted
                else:
                    return False
                self._held_by_txn.setdefault(txn_id, set()).add(resource)
            audit.lock_acquired(txn_id, resource)
            return True

    # -- release -----------------------------------------------------------------

    def release(self, txn_id: int, resource: Resource) -> None:
        """Release one lock early.

        Regular transactions hold locks to commit (strict 2PL); this path
        exists for checkpoint transactions, which release their relation
        read lock as soon as the partition copy is made (section 2.4).
        """
        with self._mutex:
            if txn_id not in self._holders.get(resource, ()):
                raise LockNotHeldError(f"txn {txn_id} does not hold {resource!r}")
            self._drop(txn_id, resource)
            self._held_by_txn[txn_id].discard(resource)
            audit.lock_released(txn_id, resource)

    def release_all(self, txn_id: int) -> None:
        """Release every lock of a committing or aborting transaction."""
        with self._mutex:
            audit.locks_dropped(txn_id)
            for resource in self._held_by_txn.pop(txn_id, ()):
                self._drop(txn_id, resource)

    def _drop(self, txn_id: int, resource: Resource) -> None:
        holders = self._holders[resource]
        del holders[txn_id]
        if not holders:
            del self._holders[resource]

    # -- inspection ----------------------------------------------------------------

    def holds(self, txn_id: int, resource: Resource, mode: LockMode | None = None) -> bool:
        with self._mutex:
            holders = self._holders.get(resource)
            held = holders.get(txn_id) if holders else None
            return held is not None and (mode is None or _covers(held, mode))

    def locks_held(self, txn_id: int) -> set[Resource]:
        with self._mutex:
            return set(self._held_by_txn.get(txn_id, ()))

    def crash(self) -> None:
        """Lose all lock state (lock tables are volatile)."""
        with self._mutex:
            for txn_id in list(self._held_by_txn):
                audit.locks_dropped(txn_id)
            self._holders.clear()
            self._held_by_txn.clear()
