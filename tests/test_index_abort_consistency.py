"""Abort consistency of index structures under the no-wait lock policy.

Regression tests for two bugs the torture harness surfaced in its
rounds (``UniqueViolation('history.hid = N exists')`` on a retried
script):

1. ``NodeStore.write``/``free`` used to mutate component bytes *before*
   the change sink acquired the no-wait exclusive lock.  A refused lock
   aborts the transaction on the spot — with no UNDO record for the
   pending change — so the new bytes were stranded: a hash-bucket entry
   for a rolled-back insert survived the abort, and the script's retry
   found its own previous attempt in the unique check.

2. Byte-level UNDO restores anchors, buckets, and nodes, but a cached
   index object used to mirror its anchor in decoded form (bucket
   directory, split pointer, level, root address, item count).  After an
   abort rolled back a structural change, the mirror kept the
   rolled-back structure.  An index now reads its anchor through the
   component cache on every operation; only a hash index's item count
   is kept on the object, and a rollback takes its changes back.
"""

import pytest

from repro import Database
from repro.common.errors import TransactionAborted
from repro.index.linear_hash import stable_hash


def bank_db():
    db = Database()
    rel = db.create_relation(
        "history", [("hid", "int"), ("v", "int")], primary_key="hid"
    )
    return db, rel


def colliding_key(first: int) -> int:
    """A second key landing in the same initial hash bucket as ``first``."""
    target = stable_hash(first) % 4  # fresh index: 4 base buckets, level 0
    return next(k for k in range(first + 1, 512) if stable_hash(k) % 4 == target)


class TestRefusedLockLeavesNoOrphan:
    def test_bucket_conflict_abort_leaves_no_stale_entry(self):
        """The torture-round race, deterministically: txn B's insert dies
        on the bucket lock txn A holds; B's key must not survive in the
        bucket, so B's retry passes the unique check."""
        db, rel = bank_db()
        k1 = 0
        k2 = colliding_key(k1)
        txn_a = db.transactions.begin()
        rel.insert(txn_a, {"hid": k1, "v": 1})  # A holds the bucket X lock
        txn_b = db.transactions.begin()
        with pytest.raises(TransactionAborted):
            rel.insert(txn_b, {"hid": k2, "v": 2})
        txn_a.commit()
        with db.transaction() as txn:
            assert rel.lookup(txn, k2) is None
            # the retry: must not raise UniqueViolation against the orphan
            rel.insert(txn, {"hid": k2, "v": 2})
        with db.transaction() as txn:
            assert rel.lookup(txn, k1)["v"] == 1
            assert rel.lookup(txn, k2)["v"] == 2

    def test_conflicting_delete_leaves_entry_intact(self):
        """The same window on the free/rewrite side: a delete that dies on
        the bucket lock must leave the victim's entry in place."""
        db, rel = bank_db()
        k1 = 0
        k2 = colliding_key(k1)
        with db.transaction() as txn:
            rel.insert(txn, {"hid": k1, "v": 1})
            addr2 = rel.insert(txn, {"hid": k2, "v": 2})
        txn_a = db.transactions.begin()
        rel.update(txn_a, rel.lookup(txn_a, k1).address, {"v": 10})
        rel.insert(txn_a, {"hid": colliding_key(k2), "v": 3})  # bucket X lock
        txn_b = db.transactions.begin()
        with pytest.raises(TransactionAborted):
            rel.delete(txn_b, addr2)
        txn_a.commit()
        with db.transaction() as txn:
            assert rel.lookup(txn, k2)["v"] == 2


class TestAbortedStructuralChange:
    def test_aborted_hash_splits_restore_structure(self):
        db, rel = bank_db()
        with db.transaction() as txn:
            for k in range(10):
                rel.insert(txn, {"hid": k, "v": k})
        index = db.index_object(db.catalog.index("history__pk"), None)
        directory_before = index.bucket_count
        txn = db.transactions.begin()
        for k in range(10, 60):
            rel.insert(txn, {"hid": k, "v": k})
        assert index.bucket_count > directory_before  # splits happened
        txn.abort()
        # the index reads its anchor and directory from the restored
        # bytes: structure, contents, and count all roll back
        index.verify_invariants()
        with db.transaction() as txn:
            for k in range(10):
                assert rel.lookup(txn, k)["v"] == k
            for k in range(10, 60):
                assert rel.lookup(txn, k) is None
        assert index.bucket_count == directory_before
        assert len(index) == 10
        # and the structure stays fully usable for committed growth
        with db.transaction() as txn:
            for k in range(10, 60):
                rel.insert(txn, {"hid": k, "v": k})
        index.verify_invariants()
        with db.transaction() as txn:
            assert rel.lookup(txn, 42)["v"] == 42

    def test_aborted_ttree_growth_restores_root_and_count(self):
        db = Database()
        rel = db.create_relation(
            "t", [("id", "int"), ("v", "int")], primary_key="id"
        )
        db.create_index("t_by_v", "t", "v", kind="ttree")
        with db.transaction() as txn:
            for k in range(8):
                rel.insert(txn, {"id": k, "v": k})
        index = db.index_object(db.catalog.index("t_by_v"), None)
        txn = db.transactions.begin()
        for k in range(8, 48):
            rel.insert(txn, {"id": k, "v": k})  # rotations move the root
        txn.abort()
        index.verify_invariants()
        assert len(index) == 8
        assert index.search(30) == []
        with db.transaction() as txn:
            for k in range(8, 48):
                rel.insert(txn, {"id": k, "v": k})
        index.verify_invariants()
        with db.transaction() as txn:
            assert len(rel.lookup_by(txn, "t_by_v", 30)) == 1

    def test_abort_survives_crash_recovery(self):
        """The rolled-back structure is also what recovery rebuilds."""
        db, rel = bank_db()
        with db.transaction() as txn:
            for k in range(10):
                rel.insert(txn, {"hid": k, "v": k})
        txn = db.transactions.begin()
        for k in range(10, 60):
            rel.insert(txn, {"hid": k, "v": k})
        txn.abort()
        db.crash()
        db.restart()
        rel = db.table("history")
        with db.transaction() as txn:
            for k in range(10):
                assert rel.lookup(txn, k)["v"] == k
            for k in range(10, 60):
                assert rel.lookup(txn, k) is None
