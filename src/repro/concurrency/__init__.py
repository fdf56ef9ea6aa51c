"""Concurrency control substrate.

The paper's MM-DBMS locks index components and relation tuples with
two-phase locks held until transaction commit (section 2.3.2), uses a
single relation read lock to get a transaction-consistent checkpoint image
(section 2.4, step 3), and protects short structures with latches.

Every lock conflict is resolved no-wait: the lock manager refuses the
request and the requester aborts (or, for a checkpoint's relation lock,
retries on a later pump), so no request ever waits and no deadlock can
form among 2PL locks.
"""

from repro.concurrency import audit
from repro.concurrency.locks import LockManager, LockMode
from repro.concurrency.latch import Latch

__all__ = ["Latch", "LockManager", "LockMode", "audit"]
