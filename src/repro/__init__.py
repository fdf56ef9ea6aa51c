"""repro — a reproduction of Lehman & Carey's SIGMOD 1987 recovery
algorithm for a high-performance memory-resident database system.

Quickstart::

    from repro import Database, RecoveryMode

    db = Database()
    accounts = db.create_relation(
        "accounts", [("id", "int"), ("balance", "int"), ("owner", "str")],
        primary_key="id",
    )
    with db.transaction() as txn:
        accounts.insert(txn, {"id": 1, "balance": 100, "owner": "alice"})

    db.crash()
    db.restart(RecoveryMode.ON_DEMAND)
    with db.transaction() as txn:
        row = db.table("accounts").lookup(txn, 1)
        assert row["balance"] == 100

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.common.config import AnalysisParameters, DiskParameters, SystemConfig
from repro.common.types import EntityAddress, PartitionAddress
from repro.db.database import Database, RecoveryMode
from repro.db.relation import Relation, Row, UniqueViolation

__version__ = "1.0.0"

__all__ = [
    "AnalysisParameters",
    "Database",
    "DiskParameters",
    "EntityAddress",
    "PartitionAddress",
    "RecoveryMode",
    "Relation",
    "Row",
    "SystemConfig",
    "UniqueViolation",
    "__version__",
]
