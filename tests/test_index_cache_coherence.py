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
from repro.common import EntityAddress
from repro.common.errors import (
    NotResidentError,
    StableMemoryFullError,
    StorageError,
    TransactionAborted,
)
from repro.index import NodeStore, TTreeIndex
from repro.index import linear_hash, ttree
from repro.recovery.oracle import logical_digest
from repro.storage import MemoryManager

DECODERS = {
    ttree.ANCHOR_TYPE: ttree._decode_anchor,
    ttree.NODE_TYPE: ttree._decode_node,
    linear_hash.ANCHOR_TYPE: linear_hash._decode_anchor,
    linear_hash.BUCKET_TYPE: linear_hash._decode_bucket,
    linear_hash.CHUNK_TYPE: linear_hash._decode_chunk,
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


def refuse_log_write(txn_id, data):
    raise StableMemoryFullError("Stable Log Buffer exhausted")


def make_store() -> NodeStore:
    manager = MemoryManager(partition_size=48 * 1024)
    return NodeStore(manager.create_segment("idx"))


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

    def test_a_missing_component_raises_as_the_partition_read_does(self):
        store = make_store()
        address = store.allocate(b"blob")
        with pytest.raises(StorageError, match="no entity at 99"):
            store.load(address._replace(offset=99), lambda a, b: b)
        with pytest.raises(StorageError, match="has no partition 7"):
            store.load(address._replace(partition=7), lambda a, b: b)
        store.segment.evict_all()
        with pytest.raises(NotResidentError):
            store.load(address, lambda a, b: b)

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
        assert list(tree.store._decoded) == [tree.anchor]  # every walk starts there
        assert tree.search(40) == [addr(40)]
        assert 1 < len(tree.store._decoded) < 10  # one root-to-node path

    # An index's anchor is a component like any other: every operation
    # reads it through ``load``, so the writers that replace its bytes
    # behind the index object — an abort, a statement rollback, a command
    # replay — are seen by the identity check alone.

    @pytest.fixture
    def anchor_decodes(self, monkeypatch):
        """Every anchor blob either index kind decodes, in order."""
        blobs = []
        for module in (ttree, linear_hash):

            def counting(address, blob, decode=module._decode_anchor):
                blobs.append(blob)
                return decode(address, blob)

            monkeypatch.setattr(module, "_decode_anchor", counting)
        return blobs

    @staticmethod
    def items_db(**config):
        """``items(k, g)``: a hash primary key and a T-Tree on ``g``."""
        db = Database(SystemConfig(partition_size=8192, **config))
        db.create_relation("items", [("k", "int"), ("g", "int")], primary_key="k")
        db.create_index("items_by_g", "items", "g", kind="ttree")
        indexes = [
            db.index_object(db.catalog.index(name), None) for name in ("items__pk", "items_by_g")
        ]
        return db, db.table("items"), indexes

    @staticmethod
    def anchors(indexes):
        return [index.store.read(index.anchor) for index in indexes]

    @staticmethod
    def look_up(db, rel, keys):
        with db.transaction() as txn:
            for key in keys:
                rel.lookup(txn, key)
                rel.lookup_by(txn, "items_by_g", key)

    @pytest.mark.parametrize("undo", ["abort", "statement", "log full"])
    def test_an_anchor_is_decoded_once_per_blob_and_again_after_a_rollback(
        self, anchor_decodes, undo
    ):
        db, rel, indexes = self.items_db()
        empty = self.anchors(indexes)
        self.look_up(db, rel, range(20))
        assert [id(blob) for blob in anchor_decodes] == [id(blob) for blob in empty]

        def doomed_load(txn):
            # 30 rows: the hash index splits, the T-Tree gets a root — both
            # anchors are rewritten, each write handing its form to the cache
            for key in range(30):
                rel.insert(txn, {"k": key, "g": key})
            assert all(now != before for now, before in zip(self.anchors(indexes), empty))
            raise Doomed

        if undo == "abort":
            with pytest.raises(Doomed), db.transaction() as txn:
                doomed_load(txn)
        elif undo == "log full":
            # the abort a failed log write makes: the next record finds the SLB full
            with pytest.raises(TransactionAborted, match="log write failed"):
                with db.transaction() as txn:
                    with pytest.raises(Doomed):
                        doomed_load(txn)
                    db.slb.append = refuse_log_write
                    rel.insert(txn, {"k": 99, "g": 99})
            del db.slb.append
        else:
            with db.transaction() as txn:
                with pytest.raises(Doomed), txn.statement():
                    doomed_load(txn)
        restored = self.anchors(indexes)
        assert restored == empty
        anchor_decodes.clear()
        self.look_up(db, rel, range(20))
        assert sorted(map(id, anchor_decodes)) == sorted(map(id, restored))
        for index in indexes:
            assert len(index) == 0
            index.verify_invariants()

    def test_an_anchor_is_decoded_again_after_command_replay_replaces_it(
        self, anchor_decodes
    ):
        """A value-logged load between two command-logged ones: replay
        re-executes the first command, its cursor then installs the value
        run's anchor images, and the second command's re-execution must
        read those."""
        db, rel, _ = self.items_db(
            logging_mode="command",
            update_count_threshold=10_000,  # no checkpoint settles a command
            log_window_pages=256,
            log_window_grace_pages=0,
        )

        def load(txn, start):
            for key in range(start, start + 30):
                rel.insert(txn, {"k": key, "g": key % 7})

        db.register_script("load", load, relations=["items"])
        db.run_script("load", 0)
        db.run_script("load", 100, logging="value")
        db.run_script("load", 200)
        expected = logical_digest(db)
        db.crash()
        anchor_decodes.clear()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 2
        assert logical_digest(db) == expected
        hash_anchors = [blob for blob in anchor_decodes if blob[0] == linear_hash.ANCHOR_TYPE]
        assert len(hash_anchors) >= 2  # the image's, then the value run's
        assert len(set(map(id, anchor_decodes))) == len(anchor_decodes)  # once per blob
        for name in ("items__pk", "items_by_g"):
            index = db.index_object(db.catalog.index(name), None)
            assert len(index) == 90
            index.verify_invariants()
            assert_cache_coherent(index.store)


class TestScansAreSnapshots:
    """``items`` and ``range_scan`` return materialised lists, so a
    consumer may change the index while it iterates."""

    @pytest.mark.parametrize("kind", [TTreeIndex, linear_hash.LinearHashIndex])
    def test_items_while_the_index_changes(self, kind):
        index = kind(make_store())
        for n in range(100):
            index.insert(n, addr(n))
        seen = []
        for key, value in index.items():  # deletes and splits under it
            seen.append(key)
            index.delete(key, value)
            index.insert(key + 1000, value)
        assert sorted(seen) == list(range(100))
        assert sorted(key for key, _ in index.items()) == list(range(1000, 1100))
        index.verify_invariants()

    def test_range_by_while_the_rows_it_indexes_move(self):
        db = Database(SystemConfig(partition_size=8192))
        rel = db.create_relation("items", [("k", "int"), ("g", "int")], primary_key="k")
        db.create_index("items_by_g", "items", "g", kind="ttree")
        with db.transaction() as txn:
            for key in range(200):
                rel.insert(txn, {"k": key, "g": key})
        with db.transaction() as txn:
            seen = []
            for row in rel.range_by(txn, "items_by_g", 50, 149):
                seen.append(row["k"])
                # out of the range, and a new row into it: the tree rotates
                rel.update(txn, row.address, {"g": row["g"] + 1000})
                rel.insert(txn, {"k": 1000 + row["k"], "g": row["g"]})
        assert seen == list(range(50, 150))
        with db.transaction() as txn:
            moved = [row["k"] for row in rel.range_by(txn, "items_by_g", 1050, 1149)]
            assert moved == list(range(50, 150))
            inserted = [row["k"] for row in rel.range_by(txn, "items_by_g", 50, 149)]
            assert inserted == list(range(1050, 1150))
        db.index_object(db.catalog.index("items_by_g"), None).verify_invariants()


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
