"""Tests for the storage layer: partitions, string heap, segments, manager."""

import pytest

from repro.common import (
    NotResidentError,
    PartitionAddress,
    PartitionFullError,
    StorageError,
)
from repro.storage import ENTRY_CHARGE_BYTES, MemoryManager, Partition, StringHeap


class TestStringHeap:
    def test_put_get_roundtrip(self):
        heap = StringHeap(1024)
        handle = heap.put(b"hello world")
        assert heap.get(handle) == b"hello world"

    def test_handles_are_monotone(self):
        heap = StringHeap(1024)
        h1 = heap.put(b"a")
        h2 = heap.put(b"b")
        assert h2 > h1

    def test_delete_frees_space(self):
        heap = StringHeap(64)
        handle = heap.put(b"x" * 40)
        heap.delete(handle)
        assert heap.used_bytes == 0
        heap.put(b"y" * 40)  # fits again

    def test_deleted_handle_not_reused(self):
        heap = StringHeap(1024)
        h1 = heap.put(b"a")
        heap.delete(h1)
        h2 = heap.put(b"b")
        assert h2 != h1

    def test_capacity_enforced(self):
        heap = StringHeap(32)
        with pytest.raises(PartitionFullError):
            heap.put(b"z" * 100)

    def test_replace(self):
        heap = StringHeap(1024)
        handle = heap.put(b"short")
        heap.replace(handle, b"a longer value")
        assert heap.get(handle) == b"a longer value"

    def test_replace_respects_capacity(self):
        heap = StringHeap(40)
        handle = heap.put(b"x" * 20)
        with pytest.raises(PartitionFullError):
            heap.replace(handle, b"y" * 60)

    def test_missing_handle_raises(self):
        heap = StringHeap(64)
        with pytest.raises(StorageError):
            heap.get(42)

    def test_serialisation_roundtrip(self):
        heap = StringHeap(1024)
        h1 = heap.put(b"alpha")
        heap.put(b"beta")
        heap.delete(h1)
        h3 = heap.put(b"gamma")
        restored = StringHeap.from_bytes(heap.to_bytes(), 1024)
        assert restored.get(h3) == b"gamma"
        assert restored.used_bytes == heap.used_bytes
        assert list(restored.handles()) == list(heap.handles())
        # handle counter must survive so replay stays deterministic
        assert restored.put(b"next") == heap.put(b"next")


@pytest.fixture()
def partition():
    return Partition(PartitionAddress(1, 1), 48 * 1024)


class TestPartition:
    def test_insert_read_roundtrip(self, partition):
        offset = partition.insert(b"tuple-bytes")
        assert partition.read(offset) == b"tuple-bytes"

    def test_offsets_monotone_never_reused(self, partition):
        o1 = partition.insert(b"a")
        o2 = partition.insert(b"b")
        partition.delete(o1)
        o3 = partition.insert(b"c")
        assert o1 < o2 < o3

    def test_update_in_place(self, partition):
        offset = partition.insert(b"v1")
        partition.update(offset, b"version-2")
        assert partition.read(offset) == b"version-2"

    def test_delete_then_read_raises(self, partition):
        offset = partition.insert(b"gone")
        partition.delete(offset)
        with pytest.raises(StorageError):
            partition.read(offset)

    def test_insert_at_occupied_offset_raises(self, partition):
        offset = partition.insert(b"here")
        with pytest.raises(StorageError):
            partition.insert_at(offset, b"clash")

    def test_insert_at_advances_counter(self, partition):
        partition.insert_at(10, b"replayed")
        assert partition.insert(b"next") == 11

    def test_capacity_enforced(self):
        small = Partition(PartitionAddress(1, 1), 256)
        big_entity = b"x" * (small.entity_capacity - ENTRY_CHARGE_BYTES)
        small.insert(big_entity)
        with pytest.raises(PartitionFullError):
            small.insert(b"y")

    def test_update_may_overflow_capacity(self):
        """In-place growth is allowed past nominal capacity (entities
        never move), but it is visible as overflow_bytes."""
        small = Partition(PartitionAddress(1, 1), 256)
        offset = small.insert(b"x" * 100)
        small.update(offset, b"y" * 400)
        assert small.read(offset) == b"y" * 400
        assert small.overflow_bytes > 0
        assert small.free_bytes == 0
        # inserts remain hard-capped while overflowing
        with pytest.raises(PartitionFullError):
            small.insert(b"z")

    def test_used_bytes_accounting(self, partition):
        offset = partition.insert(b"12345")
        assert partition.used_bytes == 5 + ENTRY_CHARGE_BYTES
        partition.delete(offset)
        assert partition.used_bytes == 0

    def test_entities_iterates_in_offset_order(self, partition):
        partition.insert_at(5, b"five")
        partition.insert_at(2, b"two")
        assert [off for off, _ in partition.entities()] == [2, 5]

    def test_checkpoint_image_roundtrip(self, partition):
        o1 = partition.insert(b"alpha")
        partition.insert(b"beta")
        handle = partition.heap.put(b"a long string value")
        partition.delete(o1)
        image = partition.to_bytes()
        restored = Partition.from_bytes(image, partition.address, partition.capacity_bytes)
        assert list(restored.entities()) == list(partition.entities())
        assert restored.heap.get(handle) == b"a long string value"
        assert restored.next_offset == partition.next_offset
        assert restored.used_bytes == partition.used_bytes
        assert restored.entity_capacity == partition.entity_capacity

    def test_image_address_consistency_check(self, partition):
        image = partition.to_bytes()
        with pytest.raises(StorageError):
            Partition.from_bytes(image, PartitionAddress(9, 9), partition.capacity_bytes)

    def test_heap_takes_a_quarter(self):
        part = Partition(PartitionAddress(1, 1), 4099)
        assert part.heap.capacity_bytes == 1024
        assert part.entity_capacity == 3075


class TestSegment:
    def _manager(self):
        return MemoryManager(partition_size=4096)

    def test_allocate_partitions_numbered_from_one(self):
        seg = self._manager().create_segment("emp")
        p1 = seg.allocate_partition()
        p2 = seg.allocate_partition()
        assert p1.address == PartitionAddress(seg.segment_id, 1)
        assert p2.address == PartitionAddress(seg.segment_id, 2)

    def test_get_resident(self):
        seg = self._manager().create_segment("emp")
        part = seg.allocate_partition()
        assert seg.get(1) is part

    def test_get_unknown_raises_storage_error(self):
        seg = self._manager().create_segment("emp")
        with pytest.raises(StorageError):
            seg.get(99)

    def test_missing_partition_raises_not_resident(self):
        seg = self._manager().create_segment("emp")
        seg.mark_missing([3])
        with pytest.raises(NotResidentError) as excinfo:
            seg.get(3)
        assert excinfo.value.partitions == (PartitionAddress(seg.segment_id, 3),)

    def test_install_clears_missing(self):
        seg = self._manager().create_segment("emp")
        seg.mark_missing([1])
        part = Partition(PartitionAddress(seg.segment_id, 1), 4096)
        seg.install(part)
        assert seg.get(1) is part
        assert seg.fully_resident

    def test_install_wrong_segment_rejected(self):
        seg = self._manager().create_segment("emp")
        with pytest.raises(StorageError):
            seg.install(Partition(PartitionAddress(999, 1), 4096))

    def test_evict_all_marks_everything_missing(self):
        seg = self._manager().create_segment("emp")
        seg.allocate_partition()
        seg.allocate_partition()
        seg.evict_all()
        assert seg.missing_partitions() == [1, 2]
        assert not seg.fully_resident

    def test_out_of_order_installs_keep_the_first_fit_choice(self):
        """Restart installs partitions in recovery order, not by number, and
        a re-installed number replaces its partition: the first fit is
        still the lowest-numbered resident partition that fits, as a scan
        in sorted order finds it, and the resident partitions come in
        number order."""
        seg = self._manager().create_segment("emp")
        seg.mark_missing(list(range(1, 9)))
        grown = Partition(PartitionAddress(seg.segment_id, 99), 4096)

        def grow(segment, fits):
            return grown

        parts = {}
        for number in (5, 2, 8, 1, 7, 3, 2, 6, 4):
            parts[number] = Partition(PartitionAddress(seg.segment_id, number), 4096)
            parts[number].insert(b"x" * (number * 300))
            seg.install(parts[number])
            for room in (0, 1500, 2500, 3000, 5000):

                def fits(partition, room=room):
                    return partition.free_bytes >= room

                by_sorted_scan = next(
                    (parts[n] for n in sorted(parts) if fits(parts[n])), None
                )
                expected = grown if by_sorted_scan is None else by_sorted_scan
                assert seg.place(fits, grow, 0) is expected
            assert list(seg.resident_partitions()) == [parts[n] for n in sorted(parts)]
        seg.evict_all()
        assert seg.place(lambda partition: True, grow, 0) is grown
        assert list(seg.resident_partitions()) == []

    def test_place_refuses_what_a_fresh_partition_cannot_hold(self):
        """An oversized request fails before any growth, so it leaves no
        empty partition behind; with no ``grow`` the segment allocates."""
        seg = self._manager().create_segment("emp")

        def grow(segment, fits):
            raise AssertionError("grew for a request no partition can hold")

        with pytest.raises(PartitionFullError):
            seg.place(lambda partition: False, grow, 3073)
        with pytest.raises(PartitionFullError):
            seg.place(lambda partition: False, grow, 8, 1025)
        assert len(seg) == 0
        placed = seg.place(lambda partition: False, None, 3072, 1024)
        assert placed.address == PartitionAddress(seg.segment_id, 1)
        assert seg.get(1) is placed

    def test_resident_partitions_is_a_snapshot(self):
        seg = self._manager().create_segment("emp")
        first = seg.allocate_partition()
        seen = []
        for partition in seg.resident_partitions():
            seen.append(partition)
            seg.allocate_partition()
        assert seen == [first]

    def test_allocation_continues_after_missing_marks(self):
        seg = self._manager().create_segment("emp")
        seg.mark_missing([5])
        new = seg.allocate_partition()
        assert new.address.partition == 6


class TestMemoryManager:
    def test_segment_ids_unique(self):
        manager = MemoryManager(partition_size=4096)
        s1 = manager.create_segment("a")
        s2 = manager.create_segment("a-idx")
        assert s1.segment_id != s2.segment_id

    def test_partition_resolution(self):
        manager = MemoryManager(partition_size=4096)
        seg = manager.create_segment("a")
        part = seg.allocate_partition()
        assert manager.partition(part.address) is part

    def test_crash_clears_everything(self):
        manager = MemoryManager(partition_size=4096)
        seg = manager.create_segment("a")
        seg.allocate_partition()
        manager.crash()
        with pytest.raises(StorageError):
            manager.segment(seg.segment_id)

    def test_register_segment_post_crash(self):
        manager = MemoryManager(partition_size=4096)
        seg = manager.create_segment("a")
        segment_id = seg.segment_id
        manager.crash()
        restored = manager.register_segment(segment_id, "a")
        restored.mark_missing([1, 2])
        assert manager.segment(segment_id) is restored
        # new ids never collide with re-registered ones
        fresh = manager.create_segment("b")
        assert fresh.segment_id > segment_id

    def test_register_duplicate_rejected(self):
        manager = MemoryManager(partition_size=4096)
        seg = manager.create_segment("a")
        with pytest.raises(StorageError):
            manager.register_segment(seg.segment_id, "a")

    def test_resident_statistics(self):
        manager = MemoryManager(partition_size=4096)
        seg = manager.create_segment("a")
        part = seg.allocate_partition()
        part.insert(b"12345678")
        assert manager.resident_partition_count() == 1
        assert manager.resident_bytes() > 0
