"""Tests for Modified Linear Hashing, including model-based properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EntityAddress, IndexStructureError, SegmentKind
from repro.index import LinearHashIndex, NodeStore
from repro.index.linear_hash import stable_hash
from repro.storage import MemoryManager


def make_store():
    manager = MemoryManager(partition_size=48 * 1024)
    segment = manager.create_segment(SegmentKind.INDEX, "idx")
    return NodeStore(segment)


def addr(n):
    return EntityAddress(1, 1, n)


@pytest.fixture()
def index():
    return LinearHashIndex(make_store(), initial_buckets=2, bucket_capacity=4)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash("abc") == stable_hash("abc")

    def test_spreads_values(self):
        hashes = {stable_hash(i) % 64 for i in range(1000)}
        assert len(hashes) > 48  # most of 64 slots hit


class TestBasics:
    def test_empty(self, index):
        assert len(index) == 0
        assert index.search(1) == []

    def test_insert_search(self, index):
        index.insert(1, addr(10))
        assert index.search(1) == [addr(10)]

    def test_duplicates(self, index):
        index.insert(1, addr(10))
        index.insert(1, addr(11))
        assert sorted(index.search(1), key=lambda a: a.offset) == [addr(10), addr(11)]

    def test_delete(self, index):
        index.insert(1, addr(10))
        index.delete(1, addr(10))
        assert index.search(1) == []
        assert len(index) == 0

    def test_delete_missing_raises(self, index):
        with pytest.raises(IndexStructureError):
            index.delete(1, addr(10))

    def test_string_keys(self, index):
        index.insert("alice", addr(1))
        index.insert("bob", addr(2))
        assert index.search("alice") == [addr(1)]
        assert index.search("carol") == []

    def test_items_yield_everything(self, index):
        for i in range(20):
            index.insert(i, addr(i))
        assert sorted(k for k, _ in index.items()) == list(range(20))


class TestGrowth:
    def test_splits_grow_directory(self, index):
        start = index.bucket_count
        for i in range(200):
            index.insert(i, addr(i))
        assert index.bucket_count > start
        index.verify_invariants()

    def test_level_advances(self):
        index = LinearHashIndex(make_store(), initial_buckets=2, bucket_capacity=2)
        for i in range(100):
            index.insert(i, addr(i))
        assert index.level >= 1
        index.verify_invariants()

    def test_all_keys_findable_after_splits(self, index):
        for i in range(500):
            index.insert(i, addr(i))
        for i in range(500):
            assert index.search(i) == [addr(i)], f"key {i} lost"

    def test_overflow_chains_work(self):
        # tiny capacity, no splits until heavy load: forces overflow nodes
        index = LinearHashIndex(
            make_store(), initial_buckets=1, bucket_capacity=2, split_load=100.0
        )
        for i in range(20):
            index.insert(i, addr(i))
        assert index.bucket_count == 1
        for i in range(20):
            assert index.search(i) == [addr(i)]
        index.verify_invariants()

    def test_delete_unlinks_empty_overflow(self):
        index = LinearHashIndex(
            make_store(), initial_buckets=1, bucket_capacity=2, split_load=100.0
        )
        for i in range(6):
            index.insert(i, addr(i))
        for i in range(6):
            index.delete(i, addr(i))
        assert len(index) == 0
        index.verify_invariants()

    def test_rebuild_from_anchor(self):
        store = make_store()
        index = LinearHashIndex(store, initial_buckets=2, bucket_capacity=4)
        for i in range(100):
            index.insert(i, addr(i))
        rebuilt = LinearHashIndex(store, anchor=index.anchor)
        assert len(rebuilt) == 100
        assert rebuilt.bucket_count == index.bucket_count
        assert rebuilt.level == index.level
        for i in range(100):
            assert rebuilt.search(i) == [addr(i)]
        rebuilt.verify_invariants()

    def test_load_decodes_no_key_and_counts_on_demand(self, monkeypatch):
        """Loading reads the anchor and directory only; ``len`` then counts
        from the chain nodes' headers, and writes keep the count current."""
        from repro.index import linear_hash

        store = make_store()
        index = LinearHashIndex(store, initial_buckets=2, bucket_capacity=4)
        for i in range(100):
            index.insert(i, addr(i))

        def refuse(*args):
            raise AssertionError("a load or a count decoded bucket keys")

        with monkeypatch.context() as patched:
            patched.setattr(linear_hash, "unpack_items", refuse)
            rebuilt = LinearHashIndex(store, anchor=index.anchor)
            assert len(rebuilt) == 100
        rebuilt.delete(3, addr(3))
        rebuilt.insert(100, addr(100))
        rebuilt.insert(101, addr(101))
        assert len(rebuilt) == 101
        rebuilt.verify_invariants()

    def test_count_drift_is_an_invariant_violation(self, index):
        for i in range(10):
            index.insert(i, addr(i))
        index._count += 1
        with pytest.raises(IndexStructureError, match="anchor count"):
            index.verify_invariants()

    def test_invalid_configs_rejected(self):
        with pytest.raises(IndexStructureError):
            LinearHashIndex(make_store(), initial_buckets=0)
        with pytest.raises(IndexStructureError):
            LinearHashIndex(make_store(), bucket_capacity=0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 40)),
        max_size=150,
    )
)
def test_linear_hash_matches_model(operations):
    """Property: the hash index behaves exactly like a multimap model."""
    index = LinearHashIndex(make_store(), initial_buckets=2, bucket_capacity=3)
    model: dict[int, list[EntityAddress]] = {}
    counter = 0
    for op, key in operations:
        if op == "insert":
            counter += 1
            value = addr(counter)
            index.insert(key, value)
            model.setdefault(key, []).append(value)
        elif model.get(key):
            value = model[key].pop()
            if not model[key]:
                del model[key]
            index.delete(key, value)
    index.verify_invariants()
    assert len(index) == sum(len(v) for v in model.values())
    for key, values in model.items():
        assert sorted(index.search(key), key=lambda a: a.offset) == sorted(
            values, key=lambda a: a.offset
        )
