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

The table knows nothing of the hierarchy between a relation and its
rows: :class:`~repro.txn.transaction.Transaction` applies it, asking for
no row or intent lock that its S or X relation lock already covers.
"""

from __future__ import annotations

import enum
from typing import Hashable

from repro.common.errors import LockNotHeldError

Resource = Hashable


class LockMode(enum.Enum):
    INTENT_SHARED = "IS"
    INTENT_EXCLUSIVE = "IX"
    SHARED = "S"
    EXCLUSIVE = "X"

    #: Identity, as members are singletons: ``Enum``'s hash is a Python call.
    __hash__ = object.__hash__

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


def join(a: LockMode, b: LockMode) -> LockMode:
    """The weakest mode at least as strong as both: the one that covers
    the other, else X (IX ∨ S promotes to X — we do not model SIX)."""
    if covers(a, b):
        return a
    if covers(b, a):
        return b
    return LockMode.EXCLUSIVE


def covers(held: LockMode, wanted: LockMode) -> bool:
    """True when a held mode already grants everything ``wanted`` does: it
    is that mode, or X, or ``wanted`` is IS, which every mode grants."""
    return held is wanted or held is LockMode.EXCLUSIVE or wanted is LockMode.INTENT_SHARED


#: :func:`covers` and :func:`join` as tables, for the lock paths.
_COVERS = frozenset((a, b) for a in LockMode for b in LockMode if covers(a, b))
_JOIN = {(a, b): join(a, b) for a in LockMode for b in LockMode}


class LockManager:
    """Strict two-phase locking over named resources, no-wait."""

    def __init__(self):
        #: resource -> {holder: mode held}; a resource nobody holds has
        #: no entry.
        self._holders: dict[Resource, dict[int, LockMode]] = {}
        self._held_by_txn: dict[int, set[Resource]] = {}

    # -- acquisition ---------------------------------------------------------

    def acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """Request ``mode`` on ``resource`` for ``txn_id``.

        Returns True if granted.  A re-request the held mode already
        covers is free.  An upgrade holds the JOIN of the held and
        requested modes (S ∨ IX promotes to X), and it is the join that
        must be compatible with every other holder.  A conflicting
        request returns False and changes nothing.
        """
        holders = self._holders.get(resource)
        if holders is None:
            self._holders[resource] = {txn_id: mode}
        else:
            held = holders.get(txn_id)
            if (held, mode) in _COVERS:
                return True
            wanted = mode if held is None else _JOIN[held, mode]
            for holder, other in holders.items():
                if holder != txn_id and other not in _COMPATIBLE[wanted]:
                    return False
            holders[txn_id] = wanted
        resources = self._held_by_txn.get(txn_id)
        if resources is None:
            self._held_by_txn[txn_id] = {resource}
        else:
            resources.add(resource)
        return True

    # -- release -----------------------------------------------------------------

    def release(self, txn_id: int, resource: Resource) -> None:
        """Release one lock early.

        Regular transactions hold locks to commit (strict 2PL); this path
        exists for checkpoint transactions, which release their relation
        read lock as soon as the partition copy is made (section 2.4).
        """
        holders = self._holders.get(resource, {})
        if txn_id not in holders:
            raise LockNotHeldError(f"txn {txn_id} does not hold {resource!r}")
        del holders[txn_id]
        if not holders:
            del self._holders[resource]
        self._held_by_txn[txn_id].discard(resource)

    def release_all(self, txn_id: int) -> None:
        """Release every lock of a committing or aborting transaction."""
        table = self._holders
        for resource in self._held_by_txn.pop(txn_id, ()):
            holders = table[resource]
            del holders[txn_id]
            if not holders:
                del table[resource]

    # -- inspection ----------------------------------------------------------------

    def holds(self, txn_id: int, resource: Resource, mode: LockMode | None = None) -> bool:
        holders = self._holders.get(resource)
        held = holders.get(txn_id) if holders else None
        return held is not None and (mode is None or covers(held, mode))

    def locks_held(self, txn_id: int) -> set[Resource]:
        return set(self._held_by_txn.get(txn_id, ()))

    def crash(self) -> None:
        """Lose all lock state (lock tables are volatile)."""
        self._holders.clear()
        self._held_by_txn.clear()
