"""Exception hierarchy for the MM-DBMS recovery reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """A :class:`~repro.common.config.SystemConfig` value is invalid."""


# --------------------------------------------------------------------------
# Storage layer
# --------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PartitionFullError(StorageError):
    """A partition has no room for the requested entity or string."""


class NotResidentError(StorageError):
    """A partition (or relation) is not memory-resident.

    Raised during post-crash operation when a transaction references data
    that has not yet been recovered (paper section 2.5, access method 2).
    The caller is expected to schedule a recovery transaction for the
    partitions named in :attr:`partitions` and retry.
    """

    def __init__(self, message: str, partitions: tuple = ()):  # type: ignore[type-arg]
        super().__init__(message)
        self.partitions = tuple(partitions)


class StableMemoryFullError(StorageError):
    """The stable log buffer / stable log tail ran out of blocks."""


# --------------------------------------------------------------------------
# Concurrency control
# --------------------------------------------------------------------------


class ConcurrencyError(ReproError):
    """Base class for lock-manager failures."""


class LockNotHeldError(ConcurrencyError):
    """An unlock (or lock upgrade) was attempted on a lock not held."""


# --------------------------------------------------------------------------
# Transactions
# --------------------------------------------------------------------------


class TransactionAborted(ReproError):
    """The transaction was rolled back and must not issue further operations."""

    def __init__(self, message: str, txn_id: int | None = None):
        super().__init__(message)
        self.txn_id = txn_id


class TransactionStateError(ReproError):
    """An operation was issued in an illegal transaction state.

    For example committing twice, or writing after commit.
    """


# --------------------------------------------------------------------------
# Logging / checkpoint / recovery
# --------------------------------------------------------------------------


class LogError(ReproError):
    """Base class for log-component failures (SLB, SLT, log disk)."""


class LogWindowOverrunError(LogError):
    """Active log information fell off the log window before its partition
    was checkpointed.

    This indicates the age-trigger grace period was mis-configured; the
    paper guarantees this never happens in a correctly sized system, and we
    surface it loudly instead of silently losing recovery information.
    """


class ChecksumError(LogError):
    """A stable block's CRC32 did not match its contents.

    Detected corruption (bit rot, stale version, zero-fill, partial
    write) is surfaced as this error so readers can fail over to the
    mirror copy instead of decoding garbage.
    """


class MediaFailure(ReproError):
    """Both copies of a duplexed block (or the only copy of a checkpoint
    image) are unreadable.

    This is beyond what duplexing protects against; the caller must
    escalate to archive (media) recovery — paper section 2.6.
    """


class CheckpointError(ReproError):
    """A checkpoint transaction failed or the checkpoint protocol was violated."""


class RecoveryError(ReproError):
    """Post-crash recovery could not restore a partition or the catalogs."""


class CatalogError(ReproError):
    """A catalog lookup failed or a catalog invariant was violated."""


class IndexStructureError(ReproError):
    """A T-Tree / linear-hash structural invariant was violated."""
