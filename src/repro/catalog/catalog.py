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
from dataclasses import KW_ONLY, dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Protocol

from repro.catalog.schema import Schema
from repro.common.errors import CatalogError
from repro.common.types import EntityAddress, PartitionAddress
from repro.storage.memory_manager import MemoryManager
from repro.storage.entries import ENTRY_CHARGE_BYTES
from repro.storage.partition import Partition
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


@dataclass
class Descriptor:
    """What every catalogued object's descriptor shares, and its one codec."""

    name: str
    segment_id: int
    _: KW_ONLY
    #: Partition number → the disk slot of its current checkpoint image
    #: (``None`` before the first checkpoint), in the order catalogued.
    partitions: dict[int, int | None] = field(default_factory=dict)
    #: Catalog entity holding this descriptor (assigned at store time).
    entity: EntityAddress | None = None

    def partition_addresses(self) -> list[PartitionAddress]:
        return [
            PartitionAddress(self.segment_id, number)
            for number in sorted(self.partitions)
        ]

    def _own_json(self) -> dict:
        raise NotImplementedError

    def encode(self) -> bytes:
        doc = self._own_json()
        doc["name"] = self.name
        doc["segment"] = self.segment_id
        doc["partitions"] = [[number, slot] for number, slot in self.partitions.items()]
        return json.dumps(doc, sort_keys=True).encode("utf-8")


@dataclass
class RelationDescriptor(Descriptor):
    schema: Schema
    primary_key: str
    index_names: list[str] = field(default_factory=list)
    #: Highest command sequence number whose effects are fully reflected
    #: in this relation's checkpoint images (docs/LOGGING.md).  Updated
    #: atomically for a whole declared closure by settlement sweeps;
    #: commands at or below the watermark are settled and never replayed.
    command_watermark: int = 0
    #: The key fields of the indexes named in ``index_names``: derived,
    #: never encoded — the catalog rebuilds it wherever it writes or
    #: decodes the descriptor.
    indexed_fields: frozenset[str] = field(
        default=frozenset(), init=False, compare=False, repr=False
    )

    def _own_json(self) -> dict:
        return {
            "kind": "relation",
            "schema": self.schema.to_json(),
            "primary_key": self.primary_key,
            "indexes": self.index_names,
            "command_watermark": self.command_watermark,
        }


@dataclass
class IndexDescriptor(Descriptor):
    relation_name: str
    kind: str  # "ttree" | "hash"
    key_field: str
    anchor: EntityAddress | None = None

    def _own_json(self) -> dict:
        return {
            "kind": "index",
            "relation": self.relation_name,
            "type": self.kind,
            "field": self.key_field,
            "anchor": self.anchor,
        }


def decode_descriptor(data: bytes, entity: EntityAddress) -> Descriptor:
    """The descriptor a catalog entity's bytes encode, stored at ``entity``."""
    doc = json.loads(data)
    shared: dict[str, Any] = {
        "name": doc["name"],
        "segment_id": doc["segment"],
        "partitions": dict(doc["partitions"]),
        "entity": entity,
    }
    if doc["kind"] == "relation":
        return RelationDescriptor(
            schema=Schema.from_json(doc["schema"]),
            primary_key=doc["primary_key"],
            index_names=list(doc["indexes"]),
            command_watermark=doc.get("command_watermark", 0),
            **shared,
        )
    if doc["kind"] == "index":
        anchor = doc["anchor"]
        return IndexDescriptor(
            relation_name=doc["relation"],
            kind=doc["type"],
            key_field=doc["field"],
            anchor=None if anchor is None else EntityAddress(*anchor),
            **shared,
        )
    raise CatalogError(f"unknown catalog entity kind {doc['kind']!r}")


class Catalog:
    """The relation/index catalog, persisted in its own segment."""

    def __init__(self, memory: MemoryManager, segment: Segment | None = None):
        self.memory = memory
        if segment is None:
            segment = memory.create_segment(CATALOG_SEGMENT_NAME)
        self.segment = segment
        self._relations: dict[str, RelationDescriptor] = {}
        self._indexes: dict[str, IndexDescriptor] = {}
        #: Both kinds by the segment each owns (never the catalog's own).
        self._by_segment: dict[int, RelationDescriptor | IndexDescriptor] = {}
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
        return [self._indexes[name] for name in descriptor.index_names]

    def with_indexes(self, relation_names: Iterable[str]) -> list[Descriptor]:
        """Each named relation, in the order given, followed by its indexes."""
        members: list[Descriptor] = []
        for name in relation_names:
            indexes = self.indexes_of(name)
            members += (self._relations[name], *indexes)
        return members

    def partition_addresses(self) -> set[PartitionAddress]:
        """Every catalogued partition: the catalog's own and the descriptors'."""
        return set(self.image_slots())

    def descriptor_for_segment(self, segment_id: int) -> RelationDescriptor | IndexDescriptor:
        """Find the relation or index descriptor owning a segment."""
        try:
            return self._by_segment[segment_id]
        except KeyError:
            raise CatalogError(f"no catalogued object owns segment {segment_id}") from None

    def relation_of_segment(self, segment_id: int) -> RelationDescriptor:
        """The relation whose lock covers a segment (its own, or the one an
        index belongs to — paper section 2.4 step 3)."""
        descriptor = self.descriptor_for_segment(segment_id)
        if isinstance(descriptor, IndexDescriptor):
            return self.relation(descriptor.relation_name)
        return descriptor

    # -- checkpoint images ------------------------------------------------------------
    #
    # Where a partition's image is recorded, which relation lock covers it
    # and which command watermark its stream is cut at.  The catalog's own
    # partitions keep their slots in the well-known stable areas (section
    # 2.5), are covered by the catalog's lock and are always value-logged;
    # every other partition is recorded in its relation's or index's
    # descriptor and covered by its relation.

    def _slots_of(
        self, address: PartitionAddress
    ) -> tuple[Descriptor | None, dict[int, int | None]]:
        """The descriptor recording ``address``'s image slot (``None`` for
        the catalog's own partitions) and the number → slot map holding it."""
        if address.segment == self.segment.segment_id:
            return None, self.own_partition_slots
        descriptor = self.descriptor_for_segment(address.segment)
        if address.partition not in descriptor.partitions:
            raise CatalogError(f"{address} is not catalogued under {descriptor.name!r}")
        return descriptor, descriptor.partitions

    def image_slot(self, address: PartitionAddress) -> int | None:
        """The slot of ``address``'s current image (``None``: never checkpointed)."""
        return self._slots_of(address)[1].get(address.partition)

    def covering_segment(self, address: PartitionAddress) -> int:
        """The segment whose relation lock covers ``address`` (section 2.4
        step 3: one relation lock covers its tuple and index partitions)."""
        if address.segment == self.segment.segment_id:
            return address.segment
        return self.relation_of_segment(address.segment).segment_id

    def command_watermark(self, address: PartitionAddress) -> int:
        """The settled-command watermark of the relation owning ``address``."""
        if address.segment == self.segment.segment_id:
            return 0
        return self.relation_of_segment(address.segment).command_watermark

    def image_slots(self) -> dict[PartitionAddress, int | None]:
        """Every catalogued partition and its image slot."""
        held = [(self.segment.segment_id, self.own_partition_slots)]
        held += [(d.segment_id, d.partitions) for d in self._by_segment.values()]
        return {
            PartitionAddress(segment, number): slot
            for segment, numbered in held
            for number, slot in numbered.items()
        }

    def install_images(
        self,
        slots: dict[PartitionAddress, int],
        sink: EntitySink,
        settled: Iterable[RelationDescriptor] = (),
        watermark: int = 0,
    ) -> dict[PartitionAddress, int | None]:
        """Record new image slots; returns the superseded ones.

        Each touched descriptor is rewritten once through ``sink``, after
        the ``settled`` relations' watermarks advance to ``watermark``.
        The catalog's own slots change in place (undone on rollback); the
        caller publishes them once the images are durable."""
        # resolve every address before changing any descriptor
        owners = {address: self._slots_of(address) for address in slots}
        previous: dict[PartitionAddress, int | None] = {}
        touched: dict[str, Descriptor] = {}
        for address, slot in slots.items():
            descriptor, held = owners[address]
            number = address.partition
            previous[address] = old = held.get(number)
            held[number] = slot
            if descriptor is None:
                sink.on_rollback(partial(held.__setitem__, number, old))
            else:
                touched.setdefault(descriptor.name, descriptor)
        for relation in settled:
            relation.command_watermark = watermark
            touched.setdefault(relation.name, relation)
        for descriptor in touched.values():
            self.update(descriptor, sink)
        return previous

    # -- persistence --------------------------------------------------------------

    def store_new(
        self,
        descriptor: Descriptor,
        sink: EntitySink | None,
    ) -> None:
        """Persist a brand-new descriptor and register it."""
        name = descriptor.name
        if name in self._relations or name in self._indexes:
            raise CatalogError(f"catalog already has an object named {name!r}")
        data = descriptor.encode()
        needed = len(data) + ENTRY_CHARGE_BYTES
        partition = self.segment.place(
            lambda p: p.free_bytes >= needed,
            self._grow_own if sink is None else sink.grow_segment,
            needed,
        )
        offset = partition.insert(data)
        descriptor.entity = EntityAddress(
            partition.address.segment, partition.address.partition, offset
        )
        if sink is not None:
            sink.entity_inserted(descriptor.entity, data)
        self._register(descriptor)

    def update(
        self,
        descriptor: Descriptor,
        sink: EntitySink | None,
    ) -> None:
        """Rewrite a descriptor's catalog entity after a change (and a
        relation's derived ``indexed_fields`` with it)."""
        if descriptor.entity is None:
            raise CatalogError(f"descriptor {descriptor.name!r} was never stored")
        if isinstance(descriptor, RelationDescriptor):
            self._derive_indexed_fields(descriptor)
        partition = self.segment.get(descriptor.entity.partition)
        before = partition.read(descriptor.entity.offset)
        after = descriptor.encode()
        partition.update(descriptor.entity.offset, after)
        if sink is not None:
            sink.entity_updated(descriptor.entity, before, after)

    def drop(
        self,
        descriptor: Descriptor,
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

    def _register(self, descriptor: Descriptor) -> None:
        if isinstance(descriptor, RelationDescriptor):
            self._relations[descriptor.name] = self._by_segment[descriptor.segment_id] = descriptor
        elif isinstance(descriptor, IndexDescriptor):
            self._indexes[descriptor.name] = self._by_segment[descriptor.segment_id] = descriptor

    def _unregister(self, descriptor: Descriptor) -> None:
        if isinstance(descriptor, RelationDescriptor):
            del self._relations[descriptor.name]
        else:
            del self._indexes[descriptor.name]
        del self._by_segment[descriptor.segment_id]

    def _derive_indexed_fields(self, descriptor: RelationDescriptor) -> None:
        """Rebuild ``descriptor.indexed_fields`` from its index names."""
        indexes = map(self._indexes.__getitem__, descriptor.index_names)
        descriptor.indexed_fields = frozenset(map(attrgetter("key_field"), indexes))

    def _grow_own(self, segment: Segment, fits: Callable[[Partition], bool]) -> Partition:
        """A partition for a catalog with no database behind it (no
        transaction to grow it): it has no checkpoint image yet."""
        partition = segment.allocate_partition()
        self.own_partition_slots[partition.address.partition] = None
        return partition

    # -- recovery ----------------------------------------------------------------------

    def rebuild(self) -> None:
        """Repopulate the descriptor maps from recovered catalog partitions."""
        self._relations.clear()
        self._indexes.clear()
        self._by_segment.clear()
        for entity, data in self.entities():
            self._register(decode_descriptor(data, entity))
        for descriptor in self._relations.values():
            self._derive_indexed_fields(descriptor)

    def resync(self, entities: Iterable[EntityAddress]) -> None:
        """Re-derive, in place, the descriptors stored at ``entities`` —
        the catalog entities a rollback just restored.  Only they are
        touched: any other descriptor may be mid-update by its own
        transaction.  A descriptor whose entity is still there keeps its
        object identity (interleaved scripts and checkpoint procedures
        hold references) and takes the decoded fields; one whose entity is
        gone — an aborted create — is unregistered.  Then every relation's
        derived ``indexed_fields`` is rebuilt from its index names."""
        registered = {descriptor.entity: descriptor for descriptor in self._by_segment.values()}
        for entity in entities:
            current = registered.get(entity)
            if current is None:
                continue  # a create that failed before it registered
            partition = self.segment.get(entity.partition)
            if entity.offset in partition:
                decoded = decode_descriptor(partition.read(entity.offset), entity)
                vars(current).update(vars(decoded))
            else:
                self._unregister(current)
        for descriptor in self._relations.values():
            self._derive_indexed_fields(descriptor)

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
        segment = memory.register_segment(segment_id, CATALOG_SEGMENT_NAME)
        catalog = cls(memory, segment)
        locations = []
        for seg, number, slot in entry:
            if seg != segment_id:
                raise CatalogError("catalog partitions span segments")
            catalog.own_partition_slots[number] = slot
            locations.append((PartitionAddress(seg, number), slot))
        segment.mark_missing([number for _, number, _ in entry])
        return catalog, locations
