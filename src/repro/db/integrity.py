"""Whole-database integrity verification.

``verify_integrity(db)`` cross-checks every layer against every other:
catalog against segments, segments against the Stable Log Tail, indexes
against tuples (both directions), checkpoint slots against the disk map,
and the decoded catalog mirrors against the bytes they were decoded from.
It returns a list of human-readable problems — empty means the database
is internally consistent — and is used by tests after crash-recovery
scenarios and available to operators as a consistency audit.

Only memory-resident partitions are inspected; missing (not yet
recovered) partitions are checked for catalog consistency only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.catalog.catalog import CATALOG_LOCATIONS_KEY
from repro.catalog.schema import NULL_HANDLE
from repro.common.errors import IndexStructureError, ReproError, StorageError
from repro.common.types import EntityAddress, PartitionAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class IntegrityError(ReproError):
    """Raised by :func:`assert_integrity` when problems are found."""


def verify_integrity(db: "Database") -> list[str]:
    """Run every cross-layer consistency check; returns found problems."""
    problems: list[str] = []
    problems.extend(_check_catalog_segments(db))
    problems.extend(_check_slt_mapping(db))
    problems.extend(_check_checkpoint_slots(db))
    problems.extend(_check_mirrors(db))
    problems.extend(_check_indexes(db))
    problems.extend(_check_heap_references(db))
    return problems


def assert_integrity(db: "Database") -> None:
    problems = verify_integrity(db)
    if problems:
        raise IntegrityError(
            "integrity check failed:\n  " + "\n  ".join(problems)
        )


# -- individual checks -------------------------------------------------------------


def _check_catalog_segments(db: "Database") -> list[str]:
    """Every catalogued partition exists in its segment (resident or
    known-missing) and the segment has no other, and every segment is
    catalogued."""
    problems = []
    catalogued_segments = {db.catalog.segment.segment_id}
    for descriptor in list(db.catalog.relations()) + list(db.catalog.indexes()):
        catalogued_segments.add(descriptor.segment_id)
        try:
            segment = db.memory.segment(descriptor.segment_id)
        except StorageError:
            problems.append(
                f"{descriptor.name}: segment {descriptor.segment_id} not registered"
            )
            continue
        known = set(segment.partition_numbers())
        for number in descriptor.partitions:
            if number not in known:
                problems.append(
                    f"{descriptor.name}: partition {number} catalogued but "
                    f"unknown to segment {descriptor.segment_id}"
                )
        for number in sorted(known - set(descriptor.partitions)):
            problems.append(
                f"{descriptor.name}: partition {number} of segment "
                f"{descriptor.segment_id} is not catalogued"
            )
    for segment in db.memory.segments():
        if segment.segment_id not in catalogued_segments:
            problems.append(
                f"segment {segment.segment_id} ({segment.name!r}) exists but "
                f"is not catalogued"
            )
    return problems


def _check_slt_mapping(db: "Database") -> list[str]:
    """Every catalogued partition — resident or not — has a Stable Log
    Tail bin, every bin's partition is catalogued, and resident partitions
    carry the bin index the SLT assigned them."""
    problems = []
    catalogued = db.catalog.partition_addresses()
    resident = {
        partition.address: partition
        for segment in db.memory.segments()
        for partition in segment.resident_partitions()
    }
    for address in sorted(catalogued | set(resident)):
        if not db.slt.has_partition(address):
            problems.append(f"{address}: no Stable Log Tail bin")
        elif address in resident:
            held, expected = resident[address].bin_index, db.slt.bin_index_of(address)
            if held != expected:
                problems.append(f"{address}: control block bin index {held} != SLT bin {expected}")
    problems.extend(
        f"{bin_.partition}: Stable Log Tail bin {bin_.bin_index} of an uncatalogued partition"
        for bin_ in db.slt.bins()
        if bin_.partition not in catalogued
    )
    return problems


def _check_checkpoint_slots(db: "Database") -> list[str]:
    """Every catalogued checkpoint slot is allocated on the disk queue,
    no two partitions share a slot, and the (volatile) allocation map
    holds no slot that neither a descriptor nor a finished request's
    superseded image references."""
    problems = []
    seen: dict[int, PartitionAddress] = {}
    allocated = db.checkpoint_disk.allocated_slots()
    for address, slot in sorted(db.catalog.image_slots().items()):
        if slot is None:
            continue
        if slot not in allocated:
            problems.append(f"{address}: checkpoint slot {slot} not allocated on disk")
        if slot in seen:
            problems.append(f"{address}: checkpoint slot {slot} shared with {seen[slot]}")
        seen[slot] = address
    referenced = db.checkpoints.occupied_slots() | {
        request.previous_slot for request in db.checkpoint_queue.in_flight()
    }
    for slot in sorted(allocated - referenced):
        problems.append(f"checkpoint slot {slot} is allocated but unreferenced")
    return problems


def _check_mirrors(db: "Database") -> list[str]:
    """Mirror ≡ bytes (docs/INTERNALS.md, "Decoded mirrors of byte
    state"): the registered descriptors are exactly what the catalog
    entities decode to, the catalog's own slot list is what both
    well-known areas publish, and the catalog's derived state — each
    relation's ``indexed_fields`` and the segment-id map — is what the
    registered descriptors derive to."""
    problems = []
    catalog = db.catalog
    relations, indexes = list(catalog.relations()), list(catalog.indexes())
    registered = {descriptor.entity: descriptor for descriptor in relations + indexes}
    for entity, data in catalog.entities():
        descriptor = registered.pop(entity, None)
        if descriptor is None:
            problems.append(f"catalog entity {entity} has no registered descriptor")
        elif descriptor.encode() != data:
            problems.append(
                f"{descriptor.name}: decoded descriptor differs from its "
                f"catalog entity {entity}"
            )
    for descriptor in registered.values():
        problems.append(f"{descriptor.name}: registered but has no catalog entity")
    key_fields = {index.name: index.key_field for index in indexes}
    for relation in relations:
        expected = {key_fields[name] for name in relation.index_names if name in key_fields}
        if relation.indexed_fields != expected:
            problems.append(
                f"{relation.name}: indexed fields {sorted(relation.indexed_fields)} "
                f"differ from its indexes' key fields {sorted(expected)}"
            )
    owners = {descriptor.segment_id: descriptor for descriptor in relations + indexes}
    mapped = catalog._by_segment
    for segment_id in sorted(owners.keys() | mapped.keys()):
        held, owner = mapped.get(segment_id), owners.get(segment_id)
        if held is not owner:
            problems.append(
                f"segment {segment_id}: the catalog's segment map holds "
                f"{held and held.name!r}, its registered owner is {owner and owner.name!r}"
            )
    entry = catalog.well_known_entry()
    for area, store in (("SLB", db.slb), ("SLT", db.slt)):
        if (store.get_well_known(CATALOG_LOCATIONS_KEY) or []) != entry:
            problems.append(
                f"catalog partition slots {entry} differ from the {area} "
                f"well-known copy"
            )
    return problems


def _check_indexes(db: "Database") -> list[str]:
    """Structural invariants plus tuple<->index agreement, both ways."""
    problems = []
    for index_descriptor in db.catalog.indexes():
        segment = db.memory.segment(index_descriptor.segment_id)
        if not segment.fully_resident:
            continue  # cannot audit a partially recovered index
        relation_descriptor = db.catalog.relation(index_descriptor.relation_name)
        rel_segment = db.memory.segment(relation_descriptor.segment_id)
        if not rel_segment.fully_resident:
            continue
        try:
            index = db.index_object(index_descriptor, None)
            index.verify_invariants()
        except (IndexStructureError, StorageError) as exc:
            # StorageError: a component pointer (or the anchor) names a
            # partition the segment does not have
            problems.append(f"{index_descriptor.name}: {exc}")
            continue
        schema = relation_descriptor.schema
        # forward: every index entry points at a live tuple with that key
        tuples_by_address: dict[EntityAddress, list] = {}
        for partition in rel_segment.resident_partitions():
            for offset, data in partition.entities():
                address = EntityAddress(
                    partition.address.segment, partition.address.partition, offset
                )
                tuples_by_address[address] = schema.decode_tuple(data)
        entry_count = 0
        for key, address in index.items():
            entry_count += 1
            cells = tuples_by_address.get(address)
            if cells is None:
                problems.append(
                    f"{index_descriptor.name}: entry ({key!r}) -> {address} "
                    f"points at no tuple"
                )
                continue
            actual = _field_value(db, schema, index_descriptor.key_field, cells, address)
            if actual != key:
                problems.append(
                    f"{index_descriptor.name}: entry key {key!r} != tuple "
                    f"value {actual!r} at {address}"
                )
        # backward: every tuple is indexed
        if entry_count != len(tuples_by_address):
            problems.append(
                f"{index_descriptor.name}: {entry_count} entries for "
                f"{len(tuples_by_address)} tuples"
            )
    return problems


def _field_value(db, schema, field_name, cells, address):
    field = schema.field(field_name)
    cell = cells[schema.position(field_name)]
    if not field.type.heap_backed:
        return cell
    if cell == NULL_HANDLE:
        return None
    partition = db.memory.partition(address.partition_address)
    raw = partition.heap.get(cell)
    return raw.decode("utf-8") if field.type.value == "str" else raw


def _check_heap_references(db: "Database") -> list[str]:
    """Every heap handle referenced by a tuple exists; every stored string
    is referenced by exactly one tuple (no leaks, no dangles)."""
    problems = []
    for descriptor in db.catalog.relations():
        schema = descriptor.schema
        heap_fields = [f for f in schema if f.type.heap_backed]
        if not heap_fields:
            continue
        segment = db.memory.segment(descriptor.segment_id)
        for partition in segment.resident_partitions():
            referenced: set[int] = set()
            for offset, data in partition.entities():
                cells = schema.decode_tuple(data)
                for field in heap_fields:
                    handle = cells[schema.position(field.name)]
                    if handle == NULL_HANDLE:
                        continue
                    if handle not in partition.heap:
                        problems.append(
                            f"{descriptor.name} {partition.address}+{offset}: "
                            f"dangling heap handle {handle}"
                        )
                    elif handle in referenced:
                        problems.append(
                            f"{descriptor.name} {partition.address}: heap "
                            f"handle {handle} referenced twice"
                        )
                    referenced.add(handle)
            stored = set(partition.heap.handles())
            leaked = stored - referenced
            for handle in sorted(leaked):
                problems.append(
                    f"{descriptor.name} {partition.address}: leaked heap "
                    f"string {handle}"
                )
    return problems
