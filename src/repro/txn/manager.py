"""Transaction manager: id assignment, active-set tracking, and the one
frame around a transaction body.

The frame has three rules (docs/INTERNALS.md, "How a transaction ends"),
stated once in :func:`settle`:

1. the body returned — commit;
2. the body raised — abort, and the error propagates;
3. the body raised :class:`~repro.sim.faults.SimulatedCrash` — nothing.
   The machine died mid-flight: no abort machinery runs, the
   transaction's volatile state is lost with main memory and its
   uncommitted SLB chain is discarded at restart.

:func:`transaction_scope` is the ``with`` form; drivers that step a
generator script call :func:`settle` when the body ends.  Both work on
anything with ``state`` / ``commit()`` / ``abort()`` — a local
:class:`Transaction` or a cross-shard ``DistributedTransaction``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.common.errors import TransactionStateError
from repro.sim.faults import SimulatedCrash
from repro.txn.transaction import Transaction, TxnState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


def settle(txn, error: BaseException | None = None) -> None:
    """End ``txn`` given how its body ended (``error`` is what it raised).

    The caller re-raises ``error``; a body that already ended its own
    transaction is left alone, except that aborting silently — without
    an exception to tell the caller — is refused.
    """
    if isinstance(error, SimulatedCrash):
        return
    if txn.state is TxnState.ACTIVE:
        if error is None:
            txn.commit()
        else:
            txn.abort()
    elif error is None and txn.state is TxnState.ABORTED:
        raise TransactionStateError(
            f"{txn!r} aborted inside its scope without an exception"
        )


@contextlib.contextmanager
def transaction_scope(begin: Callable[..., Any], **begin_kwargs) -> Iterator[Any]:
    """``with transaction_scope(begin, ...) as txn:`` — begin, run the
    body, :func:`settle`."""
    txn = begin(**begin_kwargs)
    try:
        yield txn
    except BaseException as error:
        settle(txn, error)
        raise
    settle(txn)


class TransactionManager:
    """Creates transactions and tracks the active set.

    Id assignment and active-set registration serialise on one internal
    mutex so concurrent-scheduler workers can begin and finish
    transactions from any thread.  Endings are counted where they become
    stable, by the SLB (``Database.stats()``), not here: restart replaces
    the manager.  The
    :class:`Transaction` constructor (which opens an SLB chain under the
    SLB's own mutex) runs *outside* the manager mutex — the manager lock
    is a leaf and never nests around stable-structure locks.
    """

    def __init__(self, db: "Database"):
        self.db = db
        self._next_id = 1
        self._active: dict[int, Transaction] = {}
        self._mutex = threading.RLock()

    def begin(
        self,
        *,
        system: bool = False,
        user_data: str = "",
        command: tuple[str, str, bytes] | None = None,
        declared_relations: tuple[str, ...] = (),
    ) -> Transaction:
        with self._mutex:
            txn_id = self._next_id
            self._next_id += 1
        txn = Transaction(
            self.db,
            txn_id,
            system=system,
            user_data=user_data,
            command=command,
            declared_relations=declared_relations,
        )
        with self._mutex:
            self._active[txn.txn_id] = txn
        return txn

    def finished(self, txn: Transaction) -> None:
        """Called by the transaction on commit/abort."""
        with self._mutex:
            self._active.pop(txn.txn_id, None)

    @property
    def active_count(self) -> int:
        with self._mutex:
            return len(self._active)

    def active_transactions(self) -> list[Transaction]:
        with self._mutex:
            return [self._active[txn_id] for txn_id in sorted(self._active)]

    def scope(self, **begin_kwargs) -> contextlib.AbstractContextManager[Transaction]:
        """``with manager.scope() as txn:`` — :func:`transaction_scope`
        over :meth:`begin`: commit on success, abort on any exception
        (then re-raise), hands off on a simulated crash."""
        return transaction_scope(self.begin, **begin_kwargs)

    def crash(self) -> None:
        """Active transactions simply vanish with main memory; their SLB
        chains are discarded by the restart policy."""
        with self._mutex:
            self._active.clear()
