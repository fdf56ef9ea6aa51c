"""The decoded-component cache and the ordered range descent.

``NodeStore.load`` keeps each index component's decoded form beside the
``bytes`` object it was decoded from and trusts it only while the
partition still holds that very object.  Every writer replaces the object
(``NodeStore.write``/``free``, byte-level UNDO, REDO replay, partitions
re-installed by restart), so nothing ever tells the cache to forget.

The state machine below checks that claim from outside: it drives both
index kinds through every kind of writer, and after every step whatever
the cache would answer must equal a fresh decode of the bytes, and every
index must equal a plain-dict model.  The property tests pin
``TTreeIndex.range_scan`` to the filtered ``items()`` it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Database, RecoveryMode, SystemConfig
from repro.common import EntityAddress, SegmentKind
from repro.common.errors import TransactionAborted
from repro.index import NodeStore, TTreeIndex
from repro.index import linear_hash, ttree
from repro.storage import MemoryManager

DECODERS = {
    ttree.NODE_TYPE: ttree._decode_node,
    linear_hash.BUCKET_TYPE: linear_hash._decode_bucket,
    linear_hash.CHUNK_TYPE: linear_hash.LinearHashIndex._decode_chunk,
}


def assert_cache_coherent(store: NodeStore) -> int:
    """Every cached answer equals a fresh decode of the current bytes;
    returns how many entries were still valid (served without decoding)."""
    valid = 0
    for address, (blob, form) in list(store._decoded.items()):
        partition = store.segment.get(address.partition)
        if address.offset not in partition:
            continue  # allocation undone by an abort: unreachable
        current = store.read(address)
        decode = DECODERS[current[0]]
        fresh = decode(address, current)
        assert store.load(address, decode, keep=False) == fresh
        if blob is current:
            assert form == fresh
            valid += 1
    return valid


class Doomed(Exception):
    pass


class IndexCacheMachine(RuleBasedStateMachine):
    """``items(k, g)`` with a primary key of one index kind and a
    secondary index on ``g`` — few distinct values, so equal keys straddle
    T-Tree nodes and hash chains overflow — of the other kind or the same."""

    GROUPS = st.integers(0, 5)

    def __init__(self):
        super().__init__()
        self.db = None
        self.model: dict[int, int] = {}
        self.next_key = 0

    @initialize(pk=st.sampled_from(["hash", "ttree"]), by_g=st.sampled_from(["hash", "ttree"]))
    def setup(self, pk, by_g):
        self.db = Database(SystemConfig(partition_size=8192))
        self.db.create_relation(
            "items", [("k", "int"), ("g", "int")], primary_key="k", primary_index=pk
        )
        self.db.create_index("items_by_g", "items", "g", kind=by_g)
        self.ordered = by_g == "ttree"

    @property
    def rel(self):
        return self.db.table("items")

    def _fresh_key(self):
        self.next_key += 1
        return self.next_key

    def _apply(self, txn, staged, steps):
        for group in steps:
            if group is None and staged:
                victim = sorted(staged)[len(staged) // 2]
                self.rel.delete(txn, self.rel.lookup(txn, victim).address)
                del staged[victim]
            elif group is not None:
                key = self._fresh_key()
                self.rel.insert(txn, {"k": key, "g": group})
                staged[key] = group

    STEPS = st.lists(st.one_of(st.none(), GROUPS), min_size=1, max_size=12)

    @rule(steps=STEPS)
    def committed(self, steps):
        staged = dict(self.model)
        with self.db.transaction() as txn:
            self._apply(txn, staged, steps)
        self.model = staged

    @rule(steps=STEPS)
    def aborted(self, steps):
        with pytest.raises(Doomed):
            with self.db.transaction() as txn:
                self._apply(txn, dict(self.model), steps)
                raise Doomed

    @rule(steps=STEPS, keep=GROUPS)
    def statement_rollback(self, steps, keep):
        staged = dict(self.model)
        with self.db.transaction() as txn:
            with pytest.raises(Doomed):
                with txn.statement():
                    self._apply(txn, dict(staged), steps)
                    raise Doomed
            self._apply(txn, staged, [keep])
        self.model = staged

    @rule(group=GROUPS, commit=st.booleans())
    def lock_refused_mid_operation(self, group, commit):
        """A holds the index components its insert rewrote; B's inserts
        under the same secondary key die on one of them inside
        ``store.write`` — after B's private node copy was already edited."""
        holder = self.db.transactions.begin()
        held = self._fresh_key()
        self.rel.insert(holder, {"k": held, "g": group})
        victim = self.db.transactions.begin()
        with pytest.raises(TransactionAborted):
            for _ in range(64):
                self.rel.insert(victim, {"k": self._fresh_key(), "g": group})
        if commit:
            holder.commit()
            self.model[held] = group
        else:
            holder.abort()
        self.db.pump()

    @rule(mode=st.sampled_from([RecoveryMode.ON_DEMAND, RecoveryMode.EAGER]))
    def crash_and_restart(self, mode):
        self.db.crash()
        self.db.restart(mode)

    @rule(group=GROUPS)
    def lookups_agree(self, group):
        with self.db.transaction() as txn:
            found = {row["k"] for row in self.rel.lookup_by(txn, "items_by_g", group)}
            assert found == {k for k, g in self.model.items() if g == group}
            for key in sorted(self.model)[:3]:
                assert self.rel.lookup(txn, key)["g"] == self.model[key]

    @precondition(lambda self: self.ordered)
    @rule(low=st.one_of(st.none(), GROUPS), high=st.one_of(st.none(), GROUPS))
    def ranges_agree(self, low, high):
        with self.db.transaction() as txn:
            rows = [(row["g"], row["k"]) for row in self.rel.range_by(txn, "items_by_g", low, high)]
        expected = sorted(
            (g, k)
            for k, g in self.model.items()
            if (low is None or g >= low) and (high is None or g <= high)
        )
        assert [g for g, _ in rows] == [g for g, _ in expected]
        assert sorted(rows) == expected

    @invariant()
    def caches_equal_fresh_decodes_and_indexes_equal_model(self):
        if self.db is None:
            return
        catalog = self.db.catalog
        expected = {
            "items__pk": sorted(self.model),
            "items_by_g": sorted(self.model.values()),
        }
        for name, keys in expected.items():
            index = self.db.index_object(catalog.index(name), None)
            assert_cache_coherent(index.store)
            assert sorted(key for key, _ in index.items()) == keys
            assert len(index) == len(keys)
            index.verify_invariants()
            assert_cache_coherent(index.store)


IndexCacheMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestIndexCacheMachine = IndexCacheMachine.TestCase


# -- the cache itself ---------------------------------------------------------------


def make_store() -> NodeStore:
    manager = MemoryManager(partition_size=48 * 1024)
    return NodeStore(manager.create_segment(SegmentKind.INDEX, "idx"))


def addr(n: int) -> EntityAddress:
    return EntityAddress(1, 1, n)


class TestNodeStoreLoad:
    def test_decodes_once_per_blob_and_again_after_any_replacement(self):
        store = make_store()
        calls = []

        def decode(address, blob):
            calls.append(blob)
            return (len(blob),)

        address = store.allocate(b"one")
        assert store.load(address, decode) == store.load(address, decode) == (3,)
        assert len(calls) == 1
        store.write(address, b"three")
        assert store.load(address, decode) == (5,)
        # a writer that bypasses the store (UNDO, REDO, restart) is seen too
        store.segment.get(address.partition).update(address.offset, b"undo")
        assert store.load(address, decode) == (4,)
        assert len(calls) == 3

    def test_scans_do_not_populate_and_free_drops(self):
        store = make_store()
        address = store.allocate(b"blob")
        store.load(address, lambda a, b: b, keep=False)
        assert not store._decoded
        store.load(address, lambda a, b: b)
        assert address in store._decoded
        store.free(address)
        assert not store._decoded

    def test_whole_index_walks_leave_the_cache_alone(self):
        tree = TTreeIndex(make_store(), min_items=2, max_items=4)
        for n in range(64):
            tree.insert(n, addr(n))
        tree.store._decoded.clear()
        list(tree.items())
        tree.verify_invariants()
        assert len(tree) == 64
        assert not tree.store._decoded
        assert tree.search(40) == [addr(40)]
        assert 0 < len(tree.store._decoded) < 10  # one root-to-node path


# -- range descent == filtered items() ---------------------------------------------------

KEYS = st.integers(0, 12)
BOUND = st.one_of(st.none(), st.integers(-1, 13))


def filtered(tree, low, high):
    return [
        (key, value)
        for key, value in tree.items()
        if (low is None or key >= low) and (high is None or key <= high)
    ]


class TestRangeDescent:
    @given(
        inserts=st.lists(KEYS, max_size=120),
        delete_every=st.integers(2, 7),
        bounds=st.lists(st.tuples(BOUND, BOUND), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_scan_equals_filtered_items(self, inserts, delete_every, bounds):
        """Few distinct keys in four-item nodes: runs of equal keys straddle
        node boundaries on both sides, which is what strict-inequality
        pruning exists for.  Empty trees and empty ranges included."""
        tree = TTreeIndex(make_store(), min_items=2, max_items=4)
        for n, key in enumerate(inserts):
            tree.insert(key, addr(n))
        for n, key in enumerate(inserts):
            if n % delete_every == 0:
                tree.delete(key, addr(n))
        for low, high in bounds:
            assert list(tree.range_scan(low, high)) == filtered(tree, low, high)
        for key in range(-1, 14):
            assert tree.search(key) == [value for _, value in filtered(tree, key, key)]
        assert_cache_coherent(tree.store)

    def test_descent_visits_only_the_range(self):
        tree = TTreeIndex(make_store(), min_items=4, max_items=8)
        for n in range(4000):
            tree.insert(n % 400, addr(n))
        tree.store._decoded.clear()
        assert len(list(tree.range_scan(100, 104))) == 50
        assert len(tree.store._decoded) < 30  # of ~600 nodes
