"""Shared foundation for the MM-DBMS recovery reproduction.

This package holds the vocabulary types used across every subsystem:
exceptions, addresses (segments / partitions / entities), log sequence
numbers, and the configuration dataclasses that size the system.
"""

from repro.common.counters import Counters
from repro.common.errors import (
    CatalogError,
    CheckpointError,
    ConfigurationError,
    IndexStructureError,
    LockNotHeldError,
    LogError,
    NotResidentError,
    PartitionFullError,
    RecoveryError,
    ReproError,
    StableMemoryFullError,
    StorageError,
    TransactionAborted,
    TransactionStateError,
)
from repro.common.types import (
    NULL_LSN,
    EntityAddress,
    PartitionAddress,
    SegmentKind,
    TransactionId,
)
from repro.common.config import (
    AnalysisParameters,
    DiskParameters,
    SystemConfig,
)
from repro.common.units import GIGABYTE, KILOBYTE, MEGABYTE

__all__ = [
    "AnalysisParameters",
    "CatalogError",
    "CheckpointError",
    "ConfigurationError",
    "Counters",
    "DiskParameters",
    "EntityAddress",
    "GIGABYTE",
    "IndexStructureError",
    "KILOBYTE",
    "LockNotHeldError",
    "LogError",
    "MEGABYTE",
    "NULL_LSN",
    "NotResidentError",
    "PartitionAddress",
    "PartitionFullError",
    "RecoveryError",
    "ReproError",
    "SegmentKind",
    "StableMemoryFullError",
    "StorageError",
    "SystemConfig",
    "TransactionAborted",
    "TransactionStateError",
    "TransactionId",
]
