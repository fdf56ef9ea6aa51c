"""System catalogs.

The catalogs are first-class database objects: they live in their own
catalog segments, their partitions have Stable Log Tail bins and get
checkpointed like everything else, and their checkpoint disk locations are
duplicated in the well-known stable-memory areas so post-crash recovery
can restore them *first* (paper sections 2.4–2.5).
"""

from repro.catalog.schema import Field, FieldType, Schema
from repro.catalog.catalog import (
    Catalog,
    IndexDescriptor,
    RelationDescriptor,
    decode_descriptor,
)

__all__ = [
    "Catalog",
    "Field",
    "FieldType",
    "IndexDescriptor",
    "RelationDescriptor",
    "Schema",
    "decode_descriptor",
]
