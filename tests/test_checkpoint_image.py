"""Checkpoint images: one entry decoder for entities and heap strings.

A partition image lists its entities, and its string heap its strings, as
``key, length, data`` entries (``repro.storage.entries``).  A run whose
entries all have the first one's width is decoded in one C call; any
other run entry by entry.  These tests hold both paths to the image they
read, on seeded random partitions and on crafted edge cases, and check
that an image whose entries or heap do not end exactly where it does is
refused — so restart rebuilds that partition from the log history
instead of dying or decoding it silently short.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common import PartitionFullError, StorageError
from repro.common.checksum import seal_frame
from repro.common.types import EntityAddress, PartitionAddress
from repro.db.integrity import verify_integrity
from repro.recovery.oracle import logical_digest
from repro.storage import Partition, StringHeap, entries
from repro.wal.records import (
    HeapDelete,
    HeapPut,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
)

ADDRESS = PartitionAddress(3, 1)
CAPACITY = 8192
IMAGE_HEADER_BYTES = 32  # segment, partition, next offset, count, used, capacity, heap length


def state(partition: Partition) -> tuple:
    """Everything an image carries, entities and strings in dict order."""
    heap = partition.heap
    return (
        list(partition._entities.items()),
        list(heap._strings.items()),
        partition.used_bytes,
        partition.next_offset,
        heap.used_bytes,
        heap._next_handle,
        partition.capacity_bytes,
        partition.entity_capacity,
        heap.capacity_bytes,
    )


def keyed(partition: Partition) -> tuple:
    """:func:`state` with entities and strings in key order, the order an
    image lists them in."""
    entities, strings, *counters = state(partition)
    return (sorted(entities), sorted(strings), *counters)


def undo(rng: random.Random, partition: Partition) -> None:
    """A change and its inverse record, applied the way a transaction's
    UNDO applies it (``RedoRecord.apply``)."""
    heap = partition.heap
    offsets = partition.offsets()
    handles = list(heap.handles())
    choice = rng.randrange(5)
    if choice == 0 or (choice in (1, 2) and not offsets):
        offset = partition.insert(rng.randbytes(rng.randrange(1, 30)))
        TupleDelete(1, 0, EntityAddress(*ADDRESS, offset)).apply(partition)
    elif choice == 1:
        offset = rng.choice(offsets)
        before = partition.read(offset)
        partition.update(offset, rng.randbytes(rng.randrange(0, 30)))
        TupleUpdate(1, 0, EntityAddress(*ADDRESS, offset), before).apply(partition)
    elif choice == 2:
        offset = rng.choice(offsets)
        before = partition.read(offset)
        partition.delete(offset)
        TupleInsert(1, 0, EntityAddress(*ADDRESS, offset), before).apply(partition)
    elif choice == 3 or not handles:
        handle = heap.put(rng.randbytes(rng.randrange(0, 20)))
        HeapDelete(1, 0, ADDRESS, handle).apply(partition)
    else:
        handle = rng.choice(handles)
        before = heap.get(handle)
        heap.delete(handle)
        HeapPut(1, 0, ADDRESS, handle, before).apply(partition)


def random_partition(seed: int) -> Partition:
    """Inserts, updates, deletes, UNDO and heap puts, replaces and
    deletes; half the seeds keep every entity one width, as a relation of
    fixed-width tuples does."""
    rng = random.Random(seed)
    partition = Partition(ADDRESS, CAPACITY)
    heap = partition.heap
    width = rng.randrange(0, 48) if seed % 2 else None

    def entity() -> bytes:
        return rng.randbytes(rng.randrange(0, 64) if width is None else width)

    for _ in range(rng.randrange(0, 160)):
        offsets = partition.offsets()
        handles = list(heap.handles())
        roll = rng.random()
        try:
            if roll < 0.4 or not offsets:
                partition.insert(entity())
            elif roll < 0.55:
                partition.update(rng.choice(offsets), entity())
            elif roll < 0.65:
                partition.delete(rng.choice(offsets))
            elif roll < 0.75:
                heap.put(rng.randbytes(rng.randrange(0, 24)))
            elif roll < 0.82 and handles:
                heap.replace(rng.choice(handles), rng.randbytes(rng.randrange(0, 24)))
            elif roll < 0.86 and handles:
                heap.delete(rng.choice(handles))
            elif width is None:
                undo(rng, partition)
        except PartitionFullError:
            pass
    return partition


@pytest.fixture()
def per_entry(monkeypatch):
    """Force the entry-by-entry loop: no run counts as fixed-width."""
    monkeypatch.setattr(entries, "_fixed_width", lambda *args: None)


def crafted(entity_datas, string_datas=()) -> Partition:
    partition = Partition(ADDRESS, CAPACITY)
    for data in entity_datas:
        partition.insert(data)
    for data in string_datas:
        partition.heap.put(data)
    return partition


CRAFTED = {
    "width 0": ([b""] * 5, [b""] * 3),
    "one entry": ([b"only"], [b"s"]),
    "no entities, empty heap": ([], []),
    "empty heap": ([b"abcd"] * 4, []),
    "no entities": ([], [b"xy", b"xyz"]),
    # 4 + 2 + 6 = 3 x 4: the run is as long as a uniform one
    "widths summing to count x first": ([b"aaaa", b"bb", b"cccccc"], [b"pq", b"", b"rstu"]),
    "same width but the last": ([b"abc"] * 6 + [b"abcd"], [b"xy"] * 4 + [b"x"]),
}


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_partition_survives_its_image(self, seed):
        original = random_partition(seed)
        restored = Partition.from_bytes(original.to_bytes(), ADDRESS, CAPACITY)
        assert state(restored) == keyed(original)
        assert restored.to_bytes() == original.to_bytes()

    @pytest.mark.parametrize("seed", range(60))
    def test_per_entry_loop_decodes_the_same(self, seed, monkeypatch):
        image = random_partition(seed).to_bytes()
        fast = state(Partition.from_bytes(image, ADDRESS, CAPACITY))
        monkeypatch.setattr(entries, "_fixed_width", lambda *args: None)
        assert state(Partition.from_bytes(image, ADDRESS, CAPACITY)) == fast

    def test_both_paths_are_taken(self, monkeypatch):
        """The fixed-width seeds reach the one-call path, the others the
        loop: the property above compares the two, not one with itself."""
        widths = []
        fixed_width = entries._fixed_width

        def spy(*args):
            widths.append(fixed_width(*args))
            return widths[-1]

        monkeypatch.setattr(entries, "_fixed_width", spy)
        for seed in range(60):
            Partition.from_bytes(random_partition(seed).to_bytes(), ADDRESS, CAPACITY)
        fixed = sum(width is not None for width in widths)
        assert 20 < fixed < len(widths) - 20

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    @pytest.mark.parametrize("path", ["runs", "per entry"])
    def test_crafted_image(self, case, path, request):
        if path == "per entry":
            request.getfixturevalue("per_entry")
        original = crafted(*CRAFTED[case])
        restored = Partition.from_bytes(original.to_bytes(), ADDRESS, CAPACITY)
        assert state(restored) == keyed(original)

    def test_differing_widths_of_a_uniform_length_take_the_loop(self):
        original = crafted(*CRAFTED["widths summing to count x first"])
        image = original.to_bytes()
        assert entries._fixed_width(image, IMAGE_HEADER_BYTES, 3, entries.ENTITY_ENTRY.size) is None
        assert entries._fixed_width(image, IMAGE_HEADER_BYTES, 2, entries.ENTITY_ENTRY.size) is None
        uniform = crafted([b"abcd"] * 3).to_bytes()
        assert entries._fixed_width(uniform, IMAGE_HEADER_BYTES, 3, entries.ENTITY_ENTRY.size) == 4

    def test_decoded_data_are_bytes(self):
        for case in CRAFTED:
            restored = Partition.from_bytes(crafted(*CRAFTED[case]).to_bytes(), ADDRESS, CAPACITY)
            assert all(type(data) is bytes for data in restored._entities.values())
            assert all(type(data) is bytes for data in restored.heap._strings.values())


class TestMalformedImages:
    """What the frame CRC cannot catch — an image that is whole but does
    not parse — is a :class:`StorageError`, on either path."""

    @pytest.fixture(params=["runs", "per entry"])
    def path(self, request):
        if request.param == "per entry":
            request.getfixturevalue("per_entry")
        return request.param

    @staticmethod
    def image(uniform: bool = True) -> bytes:
        datas = [b"tuple-%02d" % i for i in range(6)] if uniform else [b"x" * i for i in range(6)]
        return crafted(datas, [b"alpha", b"beta"]).to_bytes()

    @pytest.mark.parametrize("uniform", [True, False])
    def test_cut_inside_an_entry(self, path, uniform):
        image = self.image(uniform)
        with pytest.raises(StorageError, match="runs past"):
            Partition.from_bytes(image[: IMAGE_HEADER_BYTES + 35], ADDRESS, CAPACITY)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_cut_inside_an_entry_header(self, path, uniform):
        image = self.image(uniform)
        with pytest.raises(StorageError, match="runs past"):
            Partition.from_bytes(image[: IMAGE_HEADER_BYTES + 5], ADDRESS, CAPACITY)

    def test_cut_inside_the_heap(self, path):
        image = self.image()
        with pytest.raises(StorageError, match="heap end at"):
            Partition.from_bytes(image[:-2], ADDRESS, CAPACITY)

    def test_a_byte_past_the_heap(self, path):
        with pytest.raises(StorageError, match="heap end at"):
            Partition.from_bytes(self.image() + b"\0", ADDRESS, CAPACITY)

    def test_cut_inside_the_header(self):
        with pytest.raises(StorageError, match="no header"):
            Partition.from_bytes(self.image()[: IMAGE_HEADER_BYTES - 1], ADDRESS, CAPACITY)

    def test_heap_strings_must_fill_the_heap(self, path):
        blob = StringHeap(64).to_bytes()
        with pytest.raises(StorageError, match="no header"):
            StringHeap.from_bytes(blob[:-1], 64)
        heap = StringHeap(64)
        heap.put(b"abc")
        with pytest.raises(StorageError, match="end at byte"):
            StringHeap.from_bytes(heap.to_bytes() + b"\0", 64)
        with pytest.raises(StorageError, match="runs past"):
            StringHeap.from_bytes(heap.to_bytes()[:-1], 64)

    def test_a_repeated_key(self, path):
        entry = entries.ENTITY_ENTRY.pack(7, 2) + b"ab"
        with pytest.raises(StorageError, match="repeat a key"):
            entries.decode_entries(entry * 2, 0, 2, entries.ENTITY_ENTRY)

    def test_a_count_past_the_blob(self, path):
        entry = entries.STRING_ENTRY.pack(1, 3) + b"abc"
        with pytest.raises(StorageError, match="runs past"):
            entries.decode_entries(entry, 0, 2, entries.STRING_ENTRY)
        with pytest.raises(StorageError, match="runs past"):
            entries.decode_entries(entry, 0, 1 << 31, entries.STRING_ENTRY)


class TestRestartRefusesAMalformedImage:
    """A truncated image sealed under a valid CRC into the slot the catalog
    names: restart rebuilds that partition from the log history, exactly."""

    @staticmethod
    def loaded_db() -> Database:
        db = Database(
            SystemConfig(
                log_page_size=1024,
                update_count_threshold=40,
                log_window_pages=512,
                log_window_grace_pages=32,
            )
        )
        rel = db.create_relation(
            "items", [("id", "int"), ("v", "int"), ("s", "str")], primary_key="id"
        )
        addresses = {}
        with db.transaction() as txn:
            for i in range(40):
                addresses[i] = rel.insert(txn, {"id": i, "v": 0, "s": f"row-{i}"})
        for round_ in range(6):
            with db.transaction() as txn:
                for i in range(40):
                    rel.update(txn, addresses[i], {"v": round_ * 10 + i})
        return db

    @pytest.mark.parametrize("cut", ["inside an entry", "inside the heap"])
    def test_truncated_image_takes_the_history_fallback(self, cut):
        db = self.loaded_db()
        descriptor = db.catalog.relation("items")
        [(number, slot)] = descriptor.partitions.items()
        address = PartitionAddress(descriptor.segment_id, number)
        image = db.checkpoint_disk.read_image(slot)
        heap_bytes = struct.unpack_from("<I", image, IMAGE_HEADER_BYTES - 4)[0]
        assert heap_bytes > 12, "the image must hold strings"
        end = IMAGE_HEADER_BYTES + 50 if cut == "inside an entry" else len(image) - 3
        expected = logical_digest(db)
        db.crash()
        db.checkpoint_disk.disk.write_track(slot, seal_frame(image[:end]))
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        assert verify_integrity(db) == []
        [record] = [
            entry
            for entry in db.stats()["restart"]["partitions"]
            if entry["address"] == str(address)
        ]
        assert record["source"] == "history"
        assert db.restart_coordinator.sources["history"] == 1


class TestGeometry:
    """A restored partition is the partition that was checkpointed: the
    configured size, split the one way (``HEAP_SHARE``), at any size."""

    @staticmethod
    def geometry(db: Database) -> dict:
        return {
            part.address: (part.capacity_bytes, part.entity_capacity, part.heap.capacity_bytes)
            for segment in db.memory.segments()
            for part in segment.resident_partitions()
        }

    def test_an_odd_size_survives_checkpoint_crash_and_restart(self):
        db = Database(SystemConfig(partition_size=4099))
        rel = db.create_relation("items", [("id", "int"), ("s", "str")], primary_key="id")
        with db.transaction() as txn:
            for i in range(20):
                rel.insert(txn, {"id": i, "s": "x" * i})
        assert db.checkpoints.checkpoint_all() > 0
        before = self.geometry(db)
        assert set(before.values()) == {(4099, 3075, 1024)}
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert self.geometry(db) == before
        assert db.restart_coordinator.sources["history"] == 0

    def test_an_image_offered_as_another_size_is_refused(self):
        image = Partition(ADDRESS, 4096).to_bytes()
        with pytest.raises(StorageError, match="not a 4099-byte partition"):
            Partition.from_bytes(image, ADDRESS, 4099)
