"""Tests for Modified Linear Hashing, including model-based properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EntityAddress, IndexStructureError
from repro.index import LinearHashIndex, NodeStore
from repro.index.base import NULL_ADDRESS, zip_items
from repro.index.linear_hash import _Bucket, _decode_bucket, stable_hash
from repro.storage import MemoryManager
from tests.hash_model import ModelHashIndex, RecordingSink, reference_hash, stale_cache_entries


def make_store():
    manager = MemoryManager(partition_size=48 * 1024)
    segment = manager.create_segment("idx")
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


# ---------------------------------------------------------------------------
# The in-place append is byte-identical to re-encoding the bucket
# ---------------------------------------------------------------------------


def _reference_insert(self, key, value):
    """``LinearHashIndex.insert`` as it was before appends were patched in
    place — decode the chain node, add the item, re-encode — kept verbatim
    as the reference the patched bytes must equal."""
    bucket = self._load(self._bucket_head(key))
    # place into the first chain node with room
    while len(bucket.items) >= self.bucket_capacity:
        if bucket.overflow == NULL_ADDRESS:
            overflow = self._new_bucket()
            bucket.overflow = overflow.address
            self._save(bucket)
            bucket = overflow
            break
        bucket = self._load(bucket.overflow)
    bucket.items.append((key, value))
    self._save(bucket)
    self._counted(+1)
    if self._load_factor() > self.split_load:
        self._split_next()


class _RecordingSink:
    """A change sink that keeps every store operation, bytes included."""

    def __init__(self):
        self.events = []

    def lock_component(self, address):
        self.events.append(("lock", address))

    def index_node_written(self, address, before, after):
        self.events.append(("write", address, before, after))

    def index_node_freed(self, address, before):
        self.events.append(("free", address, before))

    def grow_segment(self, segment, fits):
        self.events.append(("grow", segment.segment_id))
        return segment.allocate_partition()

    def on_rollback(self, compensate):
        pass  # a count compensation: no store operation


def _run_inserts(keys, reference, **shape):
    sink = _RecordingSink()
    store = make_store()
    store.sink = sink
    index = LinearHashIndex(store, **shape)
    insert = _reference_insert if reference else LinearHashIndex.insert
    steps = []
    for number, key in enumerate(keys):
        start = len(sink.events)
        insert(index, key, addr(number))
        steps.append(sink.events[start:])
    return steps


class TestAppendBytes:
    """``insert`` patches the chain node's bytes (count raised, item
    packed on) instead of decoding and re-encoding it; the bytes written,
    and every store operation around them, must be what the decoding
    version wrote."""

    @staticmethod
    def _appended(step):
        """The one node write that added the item, checked against
        ``_Bucket.encode()`` of the node's decoded items plus the new one."""
        writes = [event for event in step if event[0] == "write"]
        _, address, before, after = writes[-1]
        form = _decode_bucket(address, before)
        items = list(zip_items(form.keys, form.values))
        return address, before, after, items, form.overflow

    def test_head_with_room(self):
        steps = _run_inserts([5], reference=False, initial_buckets=1, split_load=100.0)
        address, before, after, items, overflow = self._appended(steps[0])
        assert items == []
        assert after == _Bucket(address, [(5, addr(0))], overflow).encode()
        assert steps == _run_inserts([5], reference=True, initial_buckets=1, split_load=100.0)

    def test_overflow_node_with_room_and_overflow_creation(self):
        shape = dict(initial_buckets=1, bucket_capacity=2, split_load=100.0)
        keys = [1, 2, 3, 4, 5]
        steps = _run_inserts(keys, reference=False, **shape)
        assert steps == _run_inserts(keys, reference=True, **shape)
        # key 3 finds the head full and no overflow: a fresh empty node is
        # allocated, the head relinked, then the item appended to the node
        kinds = [event[0] for event in steps[2] if event[0] != "lock"]
        assert kinds == ["write", "write", "write"]
        created, relinked, appended = (e for e in steps[2] if e[0] == "write")
        assert created[2] is None and relinked[1] != created[1] == appended[1]
        # key 4 lands in that overflow node, which still has room
        address, before, after, items, overflow = self._appended(steps[3])
        assert address == created[1] and items == [(3, addr(2))]
        assert after == _Bucket(address, items + [(4, addr(3))], overflow).encode()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-(2**40), 2**40), max_size=60)
        | st.lists(st.text(max_size=6), max_size=60),
        st.integers(1, 4),
    )
    def test_any_sequence_writes_what_the_reference_wrote(self, keys, capacity):
        """Duplicates and splits included: the same operations, in the same
        order, with the same before- and after-images."""
        shape = dict(initial_buckets=1, bucket_capacity=capacity)
        steps = _run_inserts(keys, reference=False, **shape)
        assert steps == _run_inserts(keys, reference=True, **shape)

    def test_statement_rolled_back_insert(self, monkeypatch):
        """A rolled-back insert restores the bucket's bytes through UNDO; the
        next append patches those restored bytes, and the REDO stream and
        the state are the decoding version's, byte for byte."""
        from repro import Database, SystemConfig
        from repro.recovery.oracle import logical_digest

        def run():
            db = Database(SystemConfig(log_page_size=512, update_count_threshold=16))
            items = db.create_relation("items", [("k", "int"), ("v", "str")], "k", "hash")
            with db.transaction() as txn:
                for k in range(40):
                    items.insert(txn, {"k": k, "v": f"row-{k}"})
                with pytest.raises(RuntimeError):
                    with txn.statement():
                        items.insert(txn, {"k": 1000, "v": "undone"})
                        raise RuntimeError("roll the statement back")
                for k in range(40, 60):
                    items.insert(txn, {"k": k, "v": f"row-{k}"})
            db.recovery_processor.run_until_drained()
            disk = db.log_disk.disks.primary
            stream = [disk.read_page(lsn) for lsn in disk.block_ids()]
            stream += [bytes(b.buffer) for b in db.slt.bins()]
            return logical_digest(db), stream

        patched = run()
        with monkeypatch.context() as m:
            m.setattr(LinearHashIndex, "insert", _reference_insert)
            reference = run()
        assert patched == reference


# ---------------------------------------------------------------------------
# Against the reference model: the same bytes, REDO stream and answers
# ---------------------------------------------------------------------------

INT_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


def _key_pool(rng, kind):
    """Keys of one type, few enough that duplicates are common."""
    if kind == "int":
        return INT_EDGES + [rng.randrange(-(2**63), 2**63) for _ in range(12)]
    if kind == "str":
        return [f"k{n}" * rng.randint(1, 3) for n in range(16)] + ["", "é"]
    return [bytes([n]) * rng.randint(0, 4) for n in range(16)] + [b"\x00\xff"]


class _Pair:
    """The reference model and the index, each over its own store, fed
    the same operations."""

    def __init__(self, **shape):
        self.model = self._build(ModelHashIndex, shape)
        self.index = self._build(LinearHashIndex, shape)
        self.sinks = (self.model.store.sink, self.index.store.sink)

    @staticmethod
    def _build(cls, shape):
        store = make_store()
        store.sink = RecordingSink(store.segment)
        return cls(store, **shape)

    def both(self, operation, *args):
        """``operation`` on each; the model's outcome, which the index's must equal."""
        outcomes = []
        for index in (self.model, self.index):
            try:
                outcomes.append(getattr(index, operation)(*args))
            except IndexStructureError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1], (operation, args)
        return outcomes[0]

    def statement(self, steps, keep):
        marks = [sink.mark() for sink in self.sinks]
        for operation, *args in steps:
            self.both(operation, *args)
        if not keep:
            for sink, mark in zip(self.sinks, marks):
                sink.rollback_to(mark)

    def check(self):
        model, index = self.model, self.index
        assert self.sinks[1].events == self.sinks[0].events
        assert _components(index) == _components(model)
        assert stale_cache_entries(index) == []
        assert len(index) == len(model)
        index.verify_invariants()
        model.verify_invariants()


def _components(index):
    return [
        (partition.address, list(partition.entities()))
        for partition in index.store.segment.resident_partitions()
    ]


def _stream(seed, capacity, initial):
    rng = random.Random(seed)
    kind = ("int", "str", "bytes")[seed % 3]
    pool = _key_pool(rng, kind)
    pair = _Pair(bucket_capacity=capacity, initial_buckets=initial)
    present = []  # (key, value) pairs in the index
    values = iter(range(1, 10**6))

    def step():
        roll = rng.random()
        if roll < 0.55 or not present:
            key = rng.choice(pool)
            if rng.random() < 0.5:
                pair.both("search", key)  # the probe an insert statement makes first
            item = (key, addr(next(values)))
            present.append(item)
            return ("insert", *item)
        if roll < 0.8:
            item = present.pop(rng.randrange(len(present)))
            return ("delete", *item)
        return ("search", rng.choice(pool))

    for _ in range(120):
        if rng.random() < 0.2:
            before = list(present)
            steps = [step() for _ in range(rng.randint(1, 3))]
            keep = rng.random() < 0.5
            pair.statement(steps, keep)
            if not keep:
                present[:] = before
        else:
            pair.both(*step())
        pair.check()
    for key in pool:
        pair.both("search", key)
    assert sorted(pair.index.items()) == sorted(present)


@pytest.mark.parametrize("initial", range(1, 6))
@pytest.mark.parametrize("capacity", range(1, 9))
def test_streams_match_the_reference_model(capacity, initial):
    """Seeded insert / delete / statement-rollback streams (int keys at
    the 64-bit edges, str and bytes keys, duplicate keys with distinct
    values): after every step the index has the model's component bytes
    and REDO stream, a cache of true decodings, the same ``len()`` and
    whole invariants."""
    _stream(capacity * 10 + initial, capacity, initial)


class TestStableHashFastPath:
    @pytest.mark.parametrize("key", INT_EDGES + [12345, -98765, 2**40 + 7])
    def test_an_int_hashes_as_its_encoding(self, key):
        assert stable_hash(key) == reference_hash(key)

    def test_random_ints_hash_as_their_encoding(self):
        rng = random.Random(7)
        for _ in range(500):
            key = rng.randrange(-(2**63), 2**63)
            assert stable_hash(key) == reference_hash(key)

    def test_other_types_unchanged(self):
        for key in ("", "abc", "é", b"", b"\x00\xff"):
            assert stable_hash(key) == reference_hash(key)

    @pytest.mark.parametrize("key", [True, False, 2**63, -(2**63) - 1, 1.5])
    def test_refused_keys_still_raise(self, key):
        with pytest.raises(IndexStructureError):
            stable_hash(key)


class TestHeadMemo:
    """A statement hashes its key once; the memo must never outlive the
    anchor form it was taken under."""

    @staticmethod
    def _buddy_key():
        """An int key (no cached small int) that bucket 0's first split
        moves to the buddy, bucket 1."""
        return next(k for k in range(1000, 5000) if stable_hash(k) % 2 == 1)

    def test_search_then_a_split_then_insert_of_the_same_key_object(self):
        pair = _Pair(initial_buckets=1, bucket_capacity=2)
        pair.both("insert", 1, addr(1))
        key = self._buddy_key()
        pair.both("search", key)  # memo: (anchor, key, bucket 0's head)
        pair.both("insert", 2, addr(2))  # splits bucket 0
        assert pair.index.bucket_count == 2
        pair.both("insert", key, addr(3))  # same key object
        pair.check()
        assert pair.index.search(key) == [addr(3)]

    def test_rolled_back_split_then_the_same_key_again(self):
        pair = _Pair(initial_buckets=1, bucket_capacity=2)
        pair.both("insert", 1, addr(1))
        key = self._buddy_key()
        pair.statement([("search", key), ("insert", key, addr(2))], keep=False)
        assert pair.index.bucket_count == 1  # the split went with the statement
        pair.check()
        pair.both("insert", key, addr(3))
        pair.check()
        assert pair.index.search(key) == [addr(3)]
