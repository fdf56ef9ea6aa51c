"""Transactions: begin / instant commit / UNDO-based abort.

Commit never waits for disk (section 2.3.1): the transaction's REDO chain
is already in the Stable Log Buffer, so commit is just a list move plus
lock release.  Abort applies the volatile UNDO chain in reverse and
discards the REDO chain.
"""

from repro.txn.transaction import Transaction, TxnState
from repro.txn.manager import TransactionManager
from repro.txn.scheduler import Scheduler, ScriptResult

__all__ = [
    "Scheduler",
    "ScriptResult",
    "Transaction",
    "TransactionManager",
    "TxnState",
]
