"""Public database façade.

:class:`~repro.db.database.Database` wires every subsystem together —
storage, logging, checkpointing, recovery, transactions — and exposes the
API a user program sees: DDL, a transaction scope, relation handles, and
the crash/restart pair that exercises the paper's recovery algorithm.
"""

from repro.db.database import Database, RecoveryMode
from repro.db.integrity import assert_integrity, verify_integrity
from repro.db.monitor import status_page
from repro.db.query import Query, hash_join, nested_loop_join
from repro.db.relation import Relation, Row

__all__ = [
    "Database",
    "assert_integrity",
    "verify_integrity",
    "Query",
    "RecoveryMode",
    "Relation",
    "Row",
    "hash_join",
    "nested_loop_join",
    "status_page",
]
