"""Tests for the T-Tree index, including property-based model checking."""

import hashlib
import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EntityAddress, IndexStructureError
from repro.index import NodeStore, TTreeIndex, ttree
from repro.storage import MemoryManager


def make_store():
    manager = MemoryManager(partition_size=48 * 1024)
    segment = manager.create_segment("idx")
    return NodeStore(segment)


def addr(n):
    return EntityAddress(1, 1, n)


@pytest.fixture()
def tree():
    return TTreeIndex(make_store(), min_items=2, max_items=4)


class TestBasics:
    def test_empty_tree(self, tree):
        assert len(tree) == 0
        assert tree.search(5) == []
        assert list(tree.items()) == []

    def test_insert_and_search(self, tree):
        tree.insert(5, addr(50))
        assert tree.search(5) == [addr(50)]
        assert len(tree) == 1

    def test_duplicate_keys_supported(self, tree):
        tree.insert(5, addr(50))
        tree.insert(5, addr(51))
        assert sorted(tree.search(5), key=lambda a: a.offset) == [addr(50), addr(51)]

    def test_items_sorted(self, tree):
        for key in [9, 3, 7, 1, 5]:
            tree.insert(key, addr(key))
        assert [k for k, _ in tree.items()] == [1, 3, 5, 7, 9]

    def test_delete(self, tree):
        tree.insert(5, addr(50))
        tree.delete(5, addr(50))
        assert tree.search(5) == []
        assert len(tree) == 0

    def test_delete_missing_raises(self, tree):
        tree.insert(5, addr(50))
        with pytest.raises(IndexStructureError):
            tree.delete(6, addr(60))
        with pytest.raises(IndexStructureError):
            tree.delete(5, addr(999))

    def test_delete_from_empty_raises(self, tree):
        with pytest.raises(IndexStructureError):
            tree.delete(1, addr(1))

    def test_string_keys(self, tree):
        for name in ["delta", "alpha", "charlie", "bravo"]:
            tree.insert(name, addr(len(name)))
        assert [k for k, _ in tree.items()] == ["alpha", "bravo", "charlie", "delta"]

    def test_range_scan(self, tree):
        for key in range(20):
            tree.insert(key, addr(key))
        assert [k for k, _ in tree.range_scan(5, 9)] == [5, 6, 7, 8, 9]
        assert [k for k, _ in tree.range_scan(low=17)] == [17, 18, 19]
        assert [k for k, _ in tree.range_scan(high=2)] == [0, 1, 2]


class TestStructure:
    def test_invariants_after_ascending_inserts(self, tree):
        for key in range(200):
            tree.insert(key, addr(key))
        tree.verify_invariants()
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_invariants_after_descending_inserts(self, tree):
        for key in reversed(range(200)):
            tree.insert(key, addr(key))
        tree.verify_invariants()
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_invariants_after_interleaved_inserts(self, tree):
        keys = [((i * 37) % 211) for i in range(211)]
        for key in keys:
            tree.insert(key, addr(key))
        tree.verify_invariants()
        assert len(tree) == 211

    def test_invariants_after_deleting_everything(self, tree):
        keys = [((i * 53) % 149) for i in range(149)]
        for key in keys:
            tree.insert(key, addr(key))
        for key in keys:
            tree.delete(key, addr(key))
            tree.verify_invariants()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_alternating_insert_delete(self, tree):
        live = set()
        for i in range(300):
            key = (i * 31) % 97
            if key in live:
                tree.delete(key, addr(key))
                live.remove(key)
            else:
                tree.insert(key, addr(key))
                live.add(key)
        tree.verify_invariants()
        assert sorted(live) == [k for k, _ in tree.items()]

    def test_rebuild_from_anchor(self):
        store = make_store()
        tree = TTreeIndex(store, min_items=2, max_items=4)
        for key in range(50):
            tree.insert(key, addr(key))
        rebuilt = TTreeIndex(store, anchor=tree.anchor)
        assert len(rebuilt) == 50
        assert rebuilt.search(25) == [addr(25)]
        rebuilt.verify_invariants()
        assert rebuilt.min_items == 2
        assert rebuilt.max_items == 4

    def test_invalid_node_config_rejected(self):
        with pytest.raises(IndexStructureError):
            TTreeIndex(make_store(), min_items=5, max_items=4)

    def test_mixed_key_types_rejected(self, tree):
        tree.insert(1, addr(1))
        with pytest.raises(IndexStructureError):
            tree.insert("one", addr(2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 50)),
        max_size=120,
    )
)
def test_ttree_matches_model(operations):
    """Property: the T-Tree behaves exactly like a sorted multiset model."""
    tree = TTreeIndex(make_store(), min_items=2, max_items=4)
    model: dict[int, list[EntityAddress]] = {}
    counter = 0
    for op, key in operations:
        if op == "insert":
            counter += 1
            value = addr(counter)
            tree.insert(key, value)
            model.setdefault(key, []).append(value)
        elif model.get(key):
            value = model[key].pop()
            if not model[key]:
                del model[key]
            tree.delete(key, value)
    tree.verify_invariants()
    assert len(tree) == sum(len(v) for v in model.values())
    for key, values in model.items():
        assert sorted(tree.search(key), key=lambda a: a.offset) == sorted(
            values, key=lambda a: a.offset
        )
    expected_keys = sorted(
        key for key, values in model.items() for _ in values
    )
    assert [k for k, _ in tree.items()] == expected_keys


# -- equivalence: results, structure and the change stream ---------------------


class _UndoSink:
    """A change sink with transactions: every component change is digested
    in the order the store reports it and kept for rollback, the way the
    transaction layer keeps its byte-level UNDO."""

    def __init__(self, segment):
        self.segment = segment
        self.stream = hashlib.sha256()
        self.undo = []

    def lock_component(self, address):
        pass

    def _digest(self, address, before, after):
        where = (address.segment, address.partition, address.offset)
        self.stream.update(repr((where, before, after)).encode())

    def index_node_written(self, address, before, after):
        self._digest(address, before, after)
        self.undo.append((address, before, False))

    def index_node_freed(self, address, before):
        self._digest(address, before, None)
        self.undo.append((address, before, True))

    def grow_segment(self, segment, fits):
        return segment.allocate_partition()

    def commit(self):
        self.undo.clear()

    def abort(self):
        while self.undo:
            address, before, freed = self.undo.pop()
            partition = self.segment.get(address.partition)
            if before is None:
                partition.delete(address.offset)
            elif freed:
                partition.insert_at(address.offset, before)
            else:
                partition.update(address.offset, before)


def _session(seed, min_items, max_items, transactions=160):
    """Seeded transactions of inserts (ascending, descending and random
    runs over a small key space, so equal keys straddle nodes), deletes,
    searches and range scans, a sixth of them aborted.  Every result is
    checked against a sorted-list model and the structure after every
    operation; returns the change stream's digest."""
    rng = random.Random(seed)
    segment = MemoryManager(partition_size=8 * 1024).create_segment("idx")
    sink = _UndoSink(segment)
    tree = TTreeIndex(NodeStore(segment, sink), min_items=min_items, max_items=max_items)
    sink.commit()
    model = []  # (key, value) in compound order
    serial = 0
    for _ in range(transactions):
        saved = list(model)
        style = rng.choice(("random", "random", "up", "down", "drain"))
        start = rng.randrange(_KEYS)
        for step in range(rng.randrange(1, 12)):
            kind = rng.choice(("insert", "delete", "search", "range"))
            if style in ("up", "down") or (style == "random" and kind == "insert"):
                shift = step // 2 if style == "up" else -(step // 2)
                key = (start + shift) % _KEYS if style != "random" else rng.randrange(_KEYS)
                serial += 1
                value = EntityAddress(1, rng.randrange(3), serial)
                tree.insert(key, value)
                model.insert(bisect_left(model, (key, value)), (key, value))
            elif (style == "drain" or kind == "delete") and model:
                key, value = model.pop(rng.randrange(len(model)))
                tree.delete(key, value)
            elif kind == "range":
                low, high = sorted(rng.randrange(-1, _KEYS + 1) for _ in range(2))
                expected = model[bisect_left(model, (low,)) : bisect_right(model, (high, _TOP))]
                assert list(tree.range_scan(low, high)) == expected
            else:
                key = rng.randrange(_KEYS)
                expected = model[bisect_left(model, (key,)) : bisect_right(model, (key, _TOP))]
                assert tree.search(key) == [value for _, value in expected]
            tree.verify_invariants()
        if rng.random() < 1 / 6:
            sink.abort()
            model = saved
            tree.verify_invariants()
        else:
            sink.commit()
        assert list(tree.items()) == model
        assert len(tree) == len(model)
    return sink.stream.hexdigest()


_KEYS = 24
_TOP = EntityAddress(1 << 30, 0, 0)


@pytest.mark.parametrize(
    "seed, min_items, max_items, transactions, digest",
    [
        (1, 2, 4, 100, "eaf74ddec33490a8af8bdad65a86d66e20d8eb0a6d87b7ad8bfb421854d1e284"),
        (2, 4, 8, 100, "4a292d05e42422176ec72fa5ff351bec573c955a0332ce71468ebe641a452ac2"),
        (3, 1, 2, 60, "b1fc07a65c3affec967569ecfe67c6052786f759d6c3aa553708e7a373398802"),
    ],
)
def test_change_stream_is_pinned(seed, min_items, max_items, transactions, digest):
    """Results, structure and every ``(address, before, after)`` the sink
    receives.  Together the three sessions rotate 68 times each way,
    slide items into a promoted node 9 times, refill an underflowing
    internal node 51 times and splice out 64 emptied nodes.  The digests are
    pinned, so any written byte that moves fails here."""
    assert _session(seed, min_items, max_items, transactions) == digest


def test_search_still_rejects_mixed_type_and_bool_keys(tree):
    for key in range(40):
        tree.insert(key, addr(key))
    for bad in ("one", b"one", True, False):
        with pytest.raises(IndexStructureError):
            tree.search(bad)
        with pytest.raises(IndexStructureError):
            tree.range_scan(bad, None)
        with pytest.raises(IndexStructureError):
            tree.range_scan(None, bad)


def test_insert_and_delete_descents_reject_mixed_type_and_bool_keys(tree):
    for key in range(40):
        tree.insert(key, addr(key))
    before = list(tree.items())
    for bad in ("one", b"one", True, False):
        with pytest.raises(IndexStructureError):
            tree.insert(bad, addr(99))
        with pytest.raises(IndexStructureError):
            tree.delete(bad, addr(1))
    assert list(tree.items()) == before
    tree.verify_invariants()


def test_queries_match_a_sorted_list_when_duplicates_straddle_nodes(tree):
    """Six copies of each key in 4-item nodes: every run of equal keys
    spans nodes, and ``search``, ``range_scan`` (each bound open, inside,
    between and outside the keys), ``items`` and ``len`` all read as the
    sorted list of ``(key, value)`` pairs does."""
    rng = random.Random(54)
    pairs = [(key, addr(10 * key + copy)) for key in range(0, 30, 3) for copy in range(6)]
    rng.shuffle(pairs)
    for key, value in pairs:
        tree.insert(key, value)
    for key, value in pairs[::4]:  # deletes leave runs split across nodes too
        tree.delete(key, value)
    model = sorted(set(pairs) - set(pairs[::4]))
    tree.verify_invariants()
    spans = {}
    stack = [tree._anchor().root]
    while stack:
        address = stack.pop()
        if address != ttree.NULL_ADDRESS:
            node = tree._form(address)
            for key in set(node.keys):
                spans[key] = spans.get(key, 0) + 1
            stack += node.left, node.right
    assert max(spans.values()) > 1  # a run of equal keys crosses a node boundary
    assert list(tree.items()) == model
    assert len(tree) == len(model)
    for key in range(-1, 31):
        assert tree.search(key) == [value for k, value in model if k == key]
    for low in (None, -1, 0, 4, 6, 29):
        for high in (None, -1, 0, 6, 7, 27, 40):
            expected = [
                (k, v)
                for k, v in model
                if (low is None or k >= low) and (high is None or k <= high)
            ]
            assert list(tree.range_scan(low, high)) == expected, (low, high)


def test_len_counts_node_keys_without_building_the_items(tree, monkeypatch):
    for key in range(25):
        tree.insert(key % 7, addr(key))

    def no_walk(*args):
        raise AssertionError("len() walked the items")

    monkeypatch.setattr(tree, "_walk", no_walk)
    assert len(tree) == 25
