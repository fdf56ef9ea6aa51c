"""Catalog descriptors and their persistence.

Each relation and index is described by one descriptor, serialised as a
JSON entity inside a catalog-segment partition.  Every descriptor change
(create, partition added, checkpoint location installed) rewrites that
entity *through the transaction's change sink*, so catalog updates are
REDO-logged and recovered exactly like user data — which is what lets the
paper recover the catalogs first and everything else lazily.

The descriptor for a partition records its current checkpoint disk slot
(or ``None`` before the first checkpoint).  Residency is *not* stored
here: it is volatile state tracked by the segments.

The descriptor objects are a decoded mirror of those entities: a rollback
puts the bytes back and :meth:`Catalog.resync` re-derives the descriptors
from them, so nothing outside this module restores a field by hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Protocol

from repro.catalog.schema import Schema
from repro.common.errors import CatalogError
from repro.common.types import EntityAddress, PartitionAddress, SegmentKind
from repro.storage.memory_manager import MemoryManager
from repro.storage.partition import ENTITY_HEADER_BYTES, Partition
from repro.storage.segment import Segment

CATALOG_SEGMENT_NAME = "__catalog__"

#: Well-known stable-memory key under which :meth:`Catalog.well_known_entry`
#: is published (twice: SLB and SLT) and found again at restart.
CATALOG_LOCATIONS_KEY = "catalog-partitions"


class EntitySink(Protocol):
    """Change notifications for catalog entity writes (implemented by the
    transaction context; ``None`` during bootstrap/recovery rebuilds)."""

    def entity_inserted(self, address: EntityAddress, data: bytes) -> None: ...

    def entity_updated(
        self, address: EntityAddress, before: bytes, after: bytes
    ) -> None: ...

    def entity_deleted(self, address: EntityAddress, before: bytes) -> None: ...

    def grow_segment(self, segment: Segment, fits: Callable[[Partition], bool]) -> Partition: ...

    def on_rollback(self, compensate: Callable[[], None]) -> None: ...


def _address_to_json(address: EntityAddress | None) -> list | None:
    if address is None:
        return None
    return [address.segment, address.partition, address.offset]


def _address_from_json(data: list | None) -> EntityAddress | None:
    if data is None:
        return None
    return EntityAddress(*data)


@dataclass
class PartitionInfo:
    """Catalogued facts about one partition: its number within the segment
    and its current checkpoint image location (a disk slot)."""

    number: int
    checkpoint_slot: int | None = None

    def to_json(self) -> list:
        return [self.number, self.checkpoint_slot]

    @classmethod
    def from_json(cls, data: list) -> "PartitionInfo":
        return cls(data[0], data[1])


@dataclass
class RelationDescriptor:
    name: str
    segment_id: int
    schema: Schema
    primary_key: str
    index_names: list[str] = field(default_factory=list)
    partitions: dict[int, PartitionInfo] = field(default_factory=dict)
    #: Highest command sequence number whose effects are fully reflected
    #: in this relation's checkpoint images (docs/LOGGING.md).  Updated
    #: atomically for a whole declared closure by settlement sweeps;
    #: commands at or below the watermark are settled and never replayed.
    command_watermark: int = 0
    #: Catalog entity holding this descriptor (assigned at store time).
    entity: EntityAddress | None = None

    def partition_addresses(self) -> list[PartitionAddress]:
        return [
            PartitionAddress(self.segment_id, number)
            for number in sorted(self.partitions)
        ]

    def encode(self) -> bytes:
        return json.dumps(
            {
                "kind": "relation",
                "name": self.name,
                "segment": self.segment_id,
                "schema": self.schema.to_json(),
                "primary_key": self.primary_key,
                "indexes": self.index_names,
                "partitions": [p.to_json() for p in self.partitions.values()],
                "command_watermark": self.command_watermark,
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes, entity: EntityAddress) -> "RelationDescriptor":
        doc = json.loads(data.decode("utf-8"))
        partitions = {
            info[0]: PartitionInfo.from_json(info) for info in doc["partitions"]
        }
        return cls(
            name=doc["name"],
            segment_id=doc["segment"],
            schema=Schema.from_json(doc["schema"]),
            primary_key=doc["primary_key"],
            index_names=list(doc["indexes"]),
            partitions=partitions,
            command_watermark=doc.get("command_watermark", 0),
            entity=entity,
        )


@dataclass
class IndexDescriptor:
    name: str
    relation_name: str
    segment_id: int
    kind: str  # "ttree" | "hash"
    key_field: str
    anchor: EntityAddress | None = None
    partitions: dict[int, PartitionInfo] = field(default_factory=dict)
    entity: EntityAddress | None = None

    def partition_addresses(self) -> list[PartitionAddress]:
        return [
            PartitionAddress(self.segment_id, number)
            for number in sorted(self.partitions)
        ]

    def encode(self) -> bytes:
        return json.dumps(
            {
                "kind": "index",
                "name": self.name,
                "relation": self.relation_name,
                "segment": self.segment_id,
                "type": self.kind,
                "field": self.key_field,
                "anchor": _address_to_json(self.anchor),
                "partitions": [p.to_json() for p in self.partitions.values()],
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes, entity: EntityAddress) -> "IndexDescriptor":
        doc = json.loads(data.decode("utf-8"))
        partitions = {
            info[0]: PartitionInfo.from_json(info) for info in doc["partitions"]
        }
        return cls(
            name=doc["name"],
            relation_name=doc["relation"],
            segment_id=doc["segment"],
            kind=doc["type"],
            key_field=doc["field"],
            anchor=_address_from_json(doc["anchor"]),
            partitions=partitions,
            entity=entity,
        )


def _decode_descriptor(data: bytes, entity: EntityAddress):
    doc = json.loads(data.decode("utf-8"))
    if doc["kind"] == "relation":
        return RelationDescriptor.decode(data, entity)
    if doc["kind"] == "index":
        return IndexDescriptor.decode(data, entity)
    raise CatalogError(f"unknown catalog entity kind {doc['kind']!r}")


class Catalog:
    """The relation/index catalog, persisted in its own segment."""

    def __init__(self, memory: MemoryManager, segment: Segment | None = None):
        self.memory = memory
        if segment is None:
            segment = memory.create_segment(SegmentKind.CATALOG, CATALOG_SEGMENT_NAME)
        self.segment = segment
        self._relations: dict[str, RelationDescriptor] = {}
        self._indexes: dict[str, IndexDescriptor] = {}
        #: Checkpoint slots of the catalog's own partitions, mirrored into
        #: the well-known stable areas by the checkpoint manager.
        self.own_partition_slots: dict[int, int | None] = {}

    # -- lookups ---------------------------------------------------------------

    def relation(self, name: str) -> RelationDescriptor:
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"no relation {name!r}") from None

    def index(self, name: str) -> IndexDescriptor:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no index {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> Iterator[RelationDescriptor]:
        for name in sorted(self._relations):
            yield self._relations[name]

    def indexes(self) -> Iterator[IndexDescriptor]:
        for name in sorted(self._indexes):
            yield self._indexes[name]

    def indexes_of(self, relation_name: str) -> list[IndexDescriptor]:
        descriptor = self.relation(relation_name)
        return [self.index(name) for name in descriptor.index_names]

    def partition_addresses(self) -> set[PartitionAddress]:
        """Every catalogued partition: the catalog's own and the descriptors'."""
        addresses = {
            PartitionAddress(self.segment.segment_id, number)
            for number in self.own_partition_slots
        }
        for descriptor in (*self._relations.values(), *self._indexes.values()):
            addresses.update(descriptor.partition_addresses())
        return addresses

    def descriptor_for_segment(self, segment_id: int):
        """Find the relation or index descriptor owning a segment."""
        for descriptor in self._relations.values():
            if descriptor.segment_id == segment_id:
                return descriptor
        for descriptor in self._indexes.values():
            if descriptor.segment_id == segment_id:
                return descriptor
        raise CatalogError(f"no catalogued object owns segment {segment_id}")

    def relation_of_segment(self, segment_id: int) -> RelationDescriptor:
        """The relation whose lock covers a segment (its own, or the one an
        index belongs to — paper section 2.4 step 3)."""
        descriptor = self.descriptor_for_segment(segment_id)
        if isinstance(descriptor, IndexDescriptor):
            return self.relation(descriptor.relation_name)
        return descriptor

    # -- persistence --------------------------------------------------------------

    def store_new(
        self,
        descriptor: RelationDescriptor | IndexDescriptor,
        sink: EntitySink | None,
    ) -> None:
        """Persist a brand-new descriptor and register it."""
        name = descriptor.name
        if name in self._relations or name in self._indexes:
            raise CatalogError(f"catalog already has an object named {name!r}")
        data = descriptor.encode()
        partition = self._partition_with_room(len(data), sink)
        offset = partition.insert(data)
        descriptor.entity = EntityAddress(
            partition.address.segment, partition.address.partition, offset
        )
        if sink is not None:
            sink.entity_inserted(descriptor.entity, data)
        self._register(descriptor)

    def update(
        self,
        descriptor: RelationDescriptor | IndexDescriptor,
        sink: EntitySink | None,
    ) -> None:
        """Rewrite a descriptor's catalog entity after a change."""
        if descriptor.entity is None:
            raise CatalogError(f"descriptor {descriptor.name!r} was never stored")
        partition = self.segment.get(descriptor.entity.partition)
        before = partition.read(descriptor.entity.offset)
        after = descriptor.encode()
        partition.update(descriptor.entity.offset, after)
        if sink is not None:
            sink.entity_updated(descriptor.entity, before, after)

    def drop(
        self,
        descriptor: RelationDescriptor | IndexDescriptor,
        sink: EntitySink | None,
    ) -> None:
        if descriptor.entity is None:
            raise CatalogError(f"descriptor {descriptor.name!r} was never stored")
        partition = self.segment.get(descriptor.entity.partition)
        before = partition.read(descriptor.entity.offset)
        partition.delete(descriptor.entity.offset)
        if sink is not None:
            sink.entity_deleted(descriptor.entity, before)
            # an aborted drop re-registers this very object; the re-sync
            # then refreshes it from the restored entity
            sink.on_rollback(lambda: self._register(descriptor))
        self._unregister(descriptor)

    def _register(self, descriptor: RelationDescriptor | IndexDescriptor) -> None:
        if isinstance(descriptor, RelationDescriptor):
            self._relations[descriptor.name] = descriptor
        else:
            self._indexes[descriptor.name] = descriptor

    def _unregister(self, descriptor: RelationDescriptor | IndexDescriptor) -> None:
        if isinstance(descriptor, RelationDescriptor):
            del self._relations[descriptor.name]
        else:
            del self._indexes[descriptor.name]

    def _partition_with_room(self, nbytes: int, sink: EntitySink | None) -> Partition:
        needed = nbytes + ENTITY_HEADER_BYTES
        fits = lambda p: p.free_bytes >= needed
        partition = self.segment.first_fit(fits)
        if partition is not None:
            return partition
        if sink is not None:
            return sink.grow_segment(self.segment, fits)
        partition = self.segment.allocate_partition()
        self.own_partition_slots[partition.address.partition] = None
        return partition

    # -- recovery ----------------------------------------------------------------------

    def rebuild(self) -> None:
        """Repopulate the descriptor maps from recovered catalog partitions."""
        self._relations.clear()
        self._indexes.clear()
        for entity, data in self.entities():
            self._register(_decode_descriptor(data, entity))

    def resync(self, entities: Iterable[EntityAddress]) -> None:
        """Re-derive, in place, the descriptors stored at ``entities`` —
        the catalog entities a rollback just restored.  Only they are
        touched: any other descriptor may be mid-update by its own
        transaction.  A descriptor whose entity is still there keeps its
        object identity (scheduler workers and checkpoint procedures hold
        references) and takes the decoded fields; one whose entity is
        gone — an aborted create — is unregistered."""
        registered = {
            descriptor.entity: descriptor
            for descriptor in (*self._relations.values(), *self._indexes.values())
        }
        for entity in entities:
            current = registered.get(entity)
            if current is None:
                continue  # a create that failed before it registered
            partition = self.segment.get(entity.partition)
            if entity.offset in partition:
                decoded = _decode_descriptor(partition.read(entity.offset), entity)
                vars(current).update(vars(decoded))
            else:
                self._unregister(current)

    def entities(self) -> Iterator[tuple[EntityAddress, bytes]]:
        """Every stored descriptor entity: the bytes the descriptor
        objects are decoded from."""
        for partition in self.segment.resident_partitions():
            segment, number = partition.address.segment, partition.address.partition
            for offset, data in partition.entities():
                yield EntityAddress(segment, number, offset), data

    def well_known_entry(self) -> list:
        """The catalog partition address list kept in the well-known stable
        areas: [(segment, partition, checkpoint_slot), ...]."""
        return [
            [self.segment.segment_id, number, self.own_partition_slots[number]]
            for number in sorted(self.own_partition_slots)
        ]

    @classmethod
    def from_well_known_entry(
        cls, memory: MemoryManager, entry: list
    ) -> tuple["Catalog", list[tuple[PartitionAddress, int | None]]]:
        """Rebuild the catalog shell after a crash.

        Returns the catalog plus the (address, checkpoint slot) pairs of
        its partitions, which the restart coordinator recovers first.
        """
        if not entry:
            raise CatalogError("well-known catalog partition list is empty")
        segment_id = entry[0][0]
        segment = memory.register_segment(
            segment_id, SegmentKind.CATALOG, CATALOG_SEGMENT_NAME
        )
        catalog = cls(memory, segment)
        locations = []
        for seg, number, slot in entry:
            if seg != segment_id:
                raise CatalogError("catalog partitions span segments")
            catalog.own_partition_slots[number] = slot
            locations.append((PartitionAddress(seg, number), slot))
        segment.mark_missing([number for _, number, _ in entry])
        return catalog, locations
