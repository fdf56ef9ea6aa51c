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

:class:`TransactionScope` is the ``with`` form; a scheduler stepping a
generator script calls :func:`settle` when the body ends.  Both work on
anything with ``state`` / ``commit()`` / ``abort()`` — a local
:class:`Transaction` or a cross-shard ``DistributedTransaction``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

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


class TransactionScope:
    """``with TransactionScope(begin, then, ...) as txn:`` — begin (with
    the remaining keyword arguments), run the body, :func:`settle`; then,
    if the body returned, ``then()`` when one is given (the pump that
    ``Database.transaction`` runs after a commit).  A class, not a
    generator, so the frame costs no generator on every transaction."""

    __slots__ = ("_begin", "_then", "_begin_kwargs", "_txn")

    def __init__(
        self,
        begin: Callable[..., Any],
        then: Callable[[], Any] | None = None,
        **begin_kwargs: Any,
    ):
        self._begin = begin
        self._then = then
        self._begin_kwargs = begin_kwargs
        self._txn: Any = None

    def __enter__(self) -> Any:
        self._txn = self._begin(**self._begin_kwargs)
        return self._txn

    def __exit__(self, exc_type, error, tb) -> bool:
        txn = self._txn
        if error is None and txn.state is TxnState.ACTIVE:
            txn.commit()  # settle's first rule, without its frame
        else:
            settle(txn, error)
        if error is None and self._then is not None:
            self._then()
        return False  # the error, if any, propagates


class TransactionManager:
    """Creates transactions and tracks the active set: one per database for
    its whole life.  Ids and endings are kept where they are stable, by the
    SLB (``Database.stats()``); a crash empties only the active set."""

    def __init__(self, db: "Database"):
        self.db = db
        self._active: dict[int, Transaction] = {}

    def begin(
        self,
        *,
        user_data: str = "",
        command: tuple[str, str, bytes] | None = None,
        declared_relations: tuple[str, ...] = (),
    ) -> Transaction:
        txn_id = self.db.slb.next_txn_id
        self.db.slb.next_txn_id = txn_id + 1
        txn = Transaction(
            self.db,
            txn_id,
            user_data=user_data,
            command=command,
            declared_relations=declared_relations,
        )
        self._active[txn.txn_id] = txn
        return txn

    @property
    def active_count(self) -> int:
        return len(self._active)

    def active_transactions(self) -> list[Transaction]:
        return [self._active[txn_id] for txn_id in sorted(self._active)]

    def scope(self, **begin_kwargs) -> TransactionScope:
        """``with manager.scope() as txn:`` — a :class:`TransactionScope`
        over :meth:`begin`: commit on success, abort on any exception
        (then re-raise), hands off on a simulated crash."""
        return TransactionScope(self.begin, None, **begin_kwargs)

    def crash(self) -> None:
        """Active transactions simply vanish with main memory; their SLB
        chains are discarded by the restart policy."""
        self._active.clear()
