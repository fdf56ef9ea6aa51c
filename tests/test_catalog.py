"""Unit tests for the catalog: descriptors, persistence, rebuild."""

import dataclasses

import pytest

from repro.catalog import (
    Catalog,
    IndexDescriptor,
    RelationDescriptor,
    Schema,
    decode_descriptor,
)
from repro.common import CatalogError, EntityAddress, PartitionAddress
from repro.storage import MemoryManager


def make_catalog():
    memory = MemoryManager(partition_size=8 * 1024)
    return Catalog(memory), memory


def relation_descriptor(name="emp", segment_id=7):
    return RelationDescriptor(
        name=name,
        segment_id=segment_id,
        schema=Schema.of([("id", "int"), ("name", "str")]),
        primary_key="id",
        partitions={1: 5},
    )


def index_descriptor(name="emp__pk", segment_id=8):
    return IndexDescriptor(
        name=name,
        relation_name="emp",
        segment_id=segment_id,
        kind="hash",
        key_field="id",
        anchor=EntityAddress(8, 1, 1),
        partitions={1: None},
    )


def roundtrip(descriptor, entity):
    """Decode ``descriptor``'s bytes as stored at ``entity``; every field
    (the schema by its JSON form) must come back, and the same bytes."""
    restored = decode_descriptor(descriptor.encode(), entity)
    assert type(restored) is type(descriptor)
    for field in dataclasses.fields(descriptor):
        expected = entity if field.name == "entity" else getattr(descriptor, field.name)
        actual = getattr(restored, field.name)
        if field.name == "schema":
            expected, actual = expected.to_json(), actual.to_json()
        assert actual == expected, field.name
    assert restored.encode() == descriptor.encode()
    return restored


class TestDescriptorEncoding:
    def test_relation_roundtrip(self):
        descriptor = relation_descriptor()
        descriptor.index_names = ["emp__pk", "emp_by_name"]
        descriptor.command_watermark = 12
        descriptor.partitions = {3: None, 1: 5}  # catalogued order, not sorted
        restored = roundtrip(descriptor, EntityAddress(1, 1, 1))
        assert restored.name == "emp"
        assert restored.segment_id == 7
        assert restored.primary_key == "id"
        assert list(restored.partitions.items()) == [(3, None), (1, 5)]
        assert [f.name for f in restored.schema] == ["id", "name"]
        assert restored.entity == EntityAddress(1, 1, 1)

    def test_index_roundtrip(self):
        descriptor = index_descriptor()
        restored = roundtrip(descriptor, EntityAddress(1, 1, 2))
        assert restored.kind == "hash"
        assert restored.anchor == EntityAddress(8, 1, 1)
        assert restored.key_field == "id"
        assert restored.partitions == {1: None}
        descriptor.anchor = None  # an index not yet built
        assert roundtrip(descriptor, EntityAddress(1, 1, 2)).anchor is None

    def test_partition_addresses(self):
        descriptor = relation_descriptor()
        descriptor.partitions[3] = None
        assert descriptor.partition_addresses() == [
            PartitionAddress(7, 1),
            PartitionAddress(7, 3),
        ]


class TestCatalogPersistence:
    def test_store_new_assigns_entity(self):
        catalog, _ = make_catalog()
        descriptor = relation_descriptor()
        catalog.store_new(descriptor, None)
        assert descriptor.entity is not None
        assert catalog.relation("emp") is descriptor

    def test_duplicate_names_rejected(self):
        catalog, _ = make_catalog()
        catalog.store_new(relation_descriptor(), None)
        with pytest.raises(CatalogError):
            catalog.store_new(relation_descriptor(), None)
        with pytest.raises(CatalogError):
            catalog.store_new(index_descriptor(name="emp"), None)

    def test_update_rewrites_entity(self):
        catalog, _ = make_catalog()
        descriptor = relation_descriptor()
        catalog.store_new(descriptor, None)
        descriptor.partitions[2] = 9
        catalog.update(descriptor, None)
        data = catalog.segment.get(descriptor.entity.partition).read(
            descriptor.entity.offset
        )
        restored = decode_descriptor(data, descriptor.entity)
        assert restored.partitions[2] == 9

    def test_update_unstored_rejected(self):
        catalog, _ = make_catalog()
        with pytest.raises(CatalogError):
            catalog.update(relation_descriptor(), None)

    def test_drop_removes(self):
        catalog, _ = make_catalog()
        descriptor = relation_descriptor()
        catalog.store_new(descriptor, None)
        catalog.drop(descriptor, None)
        with pytest.raises(CatalogError):
            catalog.relation("emp")

    def test_rebuild_from_segment(self):
        catalog, memory = make_catalog()
        catalog.store_new(relation_descriptor(), None)
        catalog.store_new(index_descriptor(), None)
        catalog.rebuild()  # clears and re-reads from partitions
        assert catalog.relation("emp").segment_id == 7
        assert catalog.index("emp__pk").kind == "hash"

    def test_indexes_of(self):
        catalog, _ = make_catalog()
        rel = relation_descriptor()
        rel.index_names = ["emp__pk"]
        catalog.store_new(rel, None)
        catalog.store_new(index_descriptor(), None)
        assert [d.name for d in catalog.indexes_of("emp")] == ["emp__pk"]

    def test_descriptor_for_segment(self):
        catalog, _ = make_catalog()
        catalog.store_new(relation_descriptor(), None)
        catalog.store_new(index_descriptor(), None)
        assert catalog.descriptor_for_segment(7).name == "emp"
        assert catalog.descriptor_for_segment(8).name == "emp__pk"
        with pytest.raises(CatalogError):
            catalog.descriptor_for_segment(99)

    def test_relation_of_segment_resolves_index_owner(self):
        catalog, _ = make_catalog()
        catalog.store_new(relation_descriptor(), None)
        catalog.store_new(index_descriptor(), None)
        assert catalog.relation_of_segment(8).name == "emp"
        assert catalog.relation_of_segment(7).name == "emp"


class TestWellKnownEntry:
    def test_entry_lists_catalog_partitions(self):
        catalog, _ = make_catalog()
        catalog.store_new(relation_descriptor(), None)
        catalog.own_partition_slots[1] = 42
        entry = catalog.well_known_entry()
        assert entry == [[catalog.segment.segment_id, 1, 42]]

    def test_from_well_known_entry_rebuilds_shell(self):
        catalog, memory = make_catalog()
        catalog.store_new(relation_descriptor(), None)
        catalog.own_partition_slots[1] = 42
        entry = catalog.well_known_entry()
        segment_id = catalog.segment.segment_id
        memory.crash()
        rebuilt, locations = Catalog.from_well_known_entry(memory, entry)
        assert rebuilt.segment.segment_id == segment_id
        assert locations == [(PartitionAddress(segment_id, 1), 42)]
        assert rebuilt.segment.missing_partitions() == [1]

    def test_empty_entry_rejected(self):
        _, memory = make_catalog()
        memory.crash()
        with pytest.raises(CatalogError):
            Catalog.from_well_known_entry(memory, [])

    def test_cross_segment_entry_rejected(self):
        _, memory = make_catalog()
        memory.crash()
        with pytest.raises(CatalogError):
            Catalog.from_well_known_entry(memory, [[1, 1, None], [2, 1, None]])
