"""Logging component: the paper's recovery core.

* :mod:`repro.wal.records` — REDO log record formats (section 2.3.2):
  TAG, bin index, transaction id, operation; packed once, at the change,
  and read as bytes from the SLB to the disk.  UNDO has no format of its own:
  it is never written anywhere, so a transaction keeps the *inverse*
  REDO record of each change in its volatile UNDO space
  (:mod:`repro.txn.transaction`), discarded at commit, applied at abort.
* :mod:`repro.wal.slb` — the Stable Log Buffer: fixed-size blocks chained
  per transaction, committed / uncommitted transaction lists, and the
  well-known communication areas (checkpoint request queue, catalog
  partition address list).
* :mod:`repro.wal.slt` — the Stable Log Tail: per-partition bins with
  update counts, first-page LSNs and log page directories.
* :mod:`repro.wal.log_disk` — the log disk: page-addressed writes, the
  reusable log window, and the First-LSN age-trigger list.
"""

from repro.wal.records import (
    FieldPatch,
    HeapDelete,
    HeapPut,
    IndexNodeFree,
    IndexNodeWrite,
    RedoRecord,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
)
from repro.wal.slb import StableLogBuffer, TransactionLogChain
from repro.wal.slt import PartitionBin, StableLogTail
from repro.wal.log_disk import LogDisk, LogPage
from repro.wal.audit import AuditEntry, AuditLog

__all__ = [
    "AuditEntry",
    "AuditLog",
    "FieldPatch",
    "HeapDelete",
    "HeapPut",
    "IndexNodeFree",
    "IndexNodeWrite",
    "LogDisk",
    "LogPage",
    "PartitionBin",
    "RedoRecord",
    "StableLogBuffer",
    "StableLogTail",
    "TransactionLogChain",
    "TupleDelete",
    "TupleInsert",
    "TupleUpdate",
]
