"""Rolling back a segment growth (benchmarks/host/README.md, finding 10).

``Database.on_partition_allocated`` mirrors a new partition in three
places that byte-level UNDO does not reach: the decoded descriptor
(``descriptor.partitions``), the resident segment, and the Stable Log
Tail bin table.  An abort used to restore only the catalog *bytes*, so a
later committed insert landed in the partition, found it already
"catalogued" in memory, never re-logged it — and after a crash the row
sat in a partition the recovered catalog had never heard of.
"""

import random

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common import TransactionAborted
from repro.common.types import PartitionAddress
from repro.db.integrity import verify_integrity
from repro.recovery import restore_after_checkpoint_media_failure
from repro.recovery.oracle import logical_digest

SMALL = dict(partition_size=4096)


class Doomed(Exception):
    pass


def small_db(primary_index="hash"):
    db = Database(SystemConfig(**SMALL))
    rel = db.create_relation(
        "items", [("k", "int"), ("v", "int")], primary_key="k", primary_index=primary_index
    )
    return db, rel


def fill_until_next_insert_grows(db, rel, segment_id, start=0):
    """Commit single-row inserts until one more row no longer fits the
    segment's resident partitions; returns the next unused key."""
    segment = db.memory.segment(segment_id)
    key = start
    while True:
        partitions = len(segment)
        txn = db.transactions.begin()
        rel.insert(txn, {"k": key, "v": key})
        if len(segment) > partitions:
            txn.abort()  # this is the growing insert: take it back
            return key
        txn.commit()
        db.pump()
        key += 1


def fill_a_partition(db, rel):
    """Give the relation one full partition of committed rows (its first
    insert always grows); returns the next unused key."""
    with db.transaction() as txn:
        rel.insert(txn, {"k": 0, "v": 0})
    return fill_until_next_insert_grows(db, rel, rel.descriptor.segment_id, start=1)


def crash_and_restart(db):
    digest = logical_digest(db)
    db.crash()
    db.restart(RecoveryMode.EAGER)
    assert logical_digest(db) == digest
    assert verify_integrity(db) == []
    return db.table("items")


class TestAbortedGrowthIsTakenBack:
    def test_committed_row_survives_crash_after_aborted_growth(self):
        """The 20-line repro: fill, abort the growing insert, commit one
        insert, crash, restart, look the row up."""
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel, rel.descriptor.segment_id)
        with db.transaction() as txn:
            rel.insert(txn, {"k": key, "v": 7})
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key)["v"] == 7
            assert rel.count(txn) == key + 1

    def test_abort_undoes_descriptor_segment_and_bin(self):
        db, rel = small_db()
        segment_id = rel.descriptor.segment_id
        segment = db.memory.segment(segment_id)
        key = fill_until_next_insert_grows(db, rel, segment_id)
        before = sorted(rel.descriptor.partitions)
        bins = len(db.slt.bins())
        with pytest.raises(Doomed):
            with db.transaction() as txn:
                rel.insert(txn, {"k": key, "v": 0})
                grown = max(rel.descriptor.partitions)
                assert grown not in before
                raise Doomed
        assert sorted(rel.descriptor.partitions) == before
        assert segment.partition_numbers() == before
        assert len(db.slt.bins()) == bins
        assert not db.slt.has_partition(PartitionAddress(segment_id, grown))

    def test_statement_rollback_takes_growth_back_too(self):
        """The surrounding transaction stays alive and commits other work."""
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel, rel.descriptor.segment_id)
        before = sorted(rel.descriptor.partitions)
        with db.transaction() as txn:
            with pytest.raises(Doomed):
                with txn.statement():
                    rel.insert(txn, {"k": key, "v": 0})
                    raise Doomed
            assert sorted(rel.descriptor.partitions) == before
            rel.insert(txn, {"k": key + 1, "v": 1})
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key) is None
            assert rel.lookup(txn, key + 1)["v"] == 1

    @pytest.mark.parametrize("kind", ["hash", "ttree"])
    def test_index_segment_growth_is_taken_back(self, kind):
        db, rel = small_db(primary_index=kind)
        index_segment = db.catalog.index("items__pk").segment_id
        key = fill_until_next_insert_grows(db, rel, index_segment)
        before = sorted(db.catalog.index("items__pk").partitions)
        assert db.memory.segment(index_segment).partition_numbers() == before
        for value in range(3):
            with db.transaction() as txn:
                rel.insert(txn, {"k": key + value, "v": value})
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert [rel.lookup(txn, key + value)["v"] for value in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("seed", range(6))
def test_seeded_insert_delete_abort_crash_loop(seed):
    """Inserts, deletes and aborts (whole transactions and single
    statements) on a relation small enough to grow every few dozen rows,
    with a crash every round: the recovered state must equal the model."""
    rng = random.Random(seed)
    db = Database(SystemConfig(**SMALL))
    rel = db.create_relation(
        "items", [("k", "int"), ("v", "int"), ("pad", "str")], primary_key="k",
        primary_index=rng.choice(["hash", "ttree"]),
    )
    db.create_index("items_by_v", "items", "v", kind="ttree")
    model: dict[int, int] = {}
    next_key = 0
    for _ in range(6):
        for _ in range(40):
            doomed = rng.random() < 0.3
            staged = dict(model)
            try:
                with db.transaction() as txn:
                    for _ in range(rng.randint(1, 8)):
                        if staged and rng.random() < 0.35:
                            victim = rng.choice(sorted(staged))
                            rel.delete(txn, rel.lookup(txn, victim).address)
                            del staged[victim]
                            continue
                        row = {"k": next_key, "v": rng.randrange(50), "pad": "x" * 60}
                        next_key += 1
                        if rng.random() < 0.2:
                            with pytest.raises(Doomed):
                                with txn.statement():
                                    rel.insert(txn, row)
                                    raise Doomed
                        else:
                            rel.insert(txn, row)
                            staged[row["k"]] = row["v"]
                    if doomed:
                        raise Doomed
            except Doomed:
                continue
            model = staged
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert {row["k"]: row["v"] for row in rel.scan(txn)} == model


class TestKeptPartitionStaysCatalogued:
    """``release_partition`` keeps a grown partition another transaction
    placed rows in.  The allocator's before-image predates it, so after
    the rollback re-derived the descriptor the partition is re-catalogued
    under a system transaction — readable at once, and durable."""

    @staticmethod
    def growing_insert(db, rel):
        """An open transaction whose insert just grew the relation."""
        key = fill_a_partition(db, rel)
        txn = db.transactions.begin()
        rel.insert(txn, {"k": key, "v": 0})
        return txn, key, max(rel.descriptor.partitions)

    @staticmethod
    def check(db, rel, key, grown):
        assert grown in rel.descriptor.partitions
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            assert rel.lookup(txn, key) is None
            assert rel.lookup(txn, key + 1)["v"] == 77
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key + 1)["v"] == 77
            assert rel.count(txn) == key + 1

    @pytest.mark.parametrize("user_commits_first", [False, True])
    def test_allocator_aborts(self, user_commits_first):
        db, rel = small_db()
        allocator, key, grown = self.growing_insert(db, rel)
        user = db.transactions.begin()
        assert rel.insert(user, {"k": key + 1, "v": 77}).partition == grown
        if user_commits_first:
            user.commit()
        allocator.abort()
        if not user_commits_first:
            user.commit()
        db.pump()
        self.check(db, rel, key, grown)

    def test_allocator_rolls_the_statement_back_and_commits(self):
        db, rel = small_db()
        key = fill_a_partition(db, rel)
        before = set(rel.descriptor.partitions)
        allocator = db.transactions.begin()
        user = db.transactions.begin()
        with pytest.raises(Doomed):
            with allocator.statement():
                rel.insert(allocator, {"k": key, "v": 0})
                (grown,) = set(rel.descriptor.partitions) - before
                assert rel.insert(user, {"k": key + 1, "v": 77}).partition == grown
                raise Doomed
        assert grown in rel.descriptor.partitions
        rel.insert(allocator, {"k": key + 2, "v": 2})
        allocator.commit()
        user.commit()
        db.pump()
        assert verify_integrity(db) == []
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key) is None
            assert [rel.lookup(txn, key + n)["v"] for n in (1, 2)] == [77, 2]

    def test_user_aborts_as_well(self):
        """Nobody is left using it: an empty catalogued partition, which
        the next insert fills and the next restart knows."""
        db, rel = small_db()
        allocator, key, grown = self.growing_insert(db, rel)
        user = db.transactions.begin()
        rel.insert(user, {"k": key + 1, "v": 77})
        allocator.abort()
        user.abort()
        assert grown in rel.descriptor.partitions
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            assert rel.insert(txn, {"k": key + 1, "v": 77}).partition == grown
        self.check(db, rel, key, grown)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_interleaved_growth_abort_crash_loop(seed):
    """Several open transactions insert into one small relation, commit
    and abort in random order — so aborted growths keep being used by
    their neighbours, in the relation and in both index segments — with
    an integrity audit after every ending and a crash every round."""
    rng = random.Random(seed)
    db = Database(SystemConfig(**SMALL))
    rel = db.create_relation(
        "items", [("k", "int"), ("v", "int"), ("pad", "str")], primary_key="k",
        primary_index=rng.choice(["hash", "ttree"]),
    )
    db.create_index("items_by_v", "items", "v", kind="ttree")
    model: dict[int, int] = {}
    next_key = 0
    for _ in range(5):
        open_txns: dict = {}
        for _ in range(150):
            if len(open_txns) < 3 and rng.random() < 0.3:
                open_txns[db.transactions.begin()] = {}
            if not open_txns:
                continue
            txn = rng.choice(list(open_txns))
            roll = rng.random()
            try:
                if roll < 0.7:
                    row = {"k": next_key, "v": rng.randrange(50), "pad": "x" * 60}
                    next_key += 1
                    rel.insert(txn, row)
                    open_txns[txn][row["k"]] = row["v"]
                    continue
                staged = open_txns.pop(txn)
                if roll < 0.85:
                    txn.commit()
                    model.update(staged)
                else:
                    txn.abort()
            except TransactionAborted:  # no-wait loser: already rolled back
                open_txns.pop(txn, None)
            assert verify_integrity(db) == []
        for txn in open_txns:
            txn.abort()
        db.pump()
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert {row["k"]: row["v"] for row in rel.scan(txn)} == model


class TestTwoOpenGrowersOfOneSegment:
    """Catalog entities are not two-phase locked: the second grower's
    before-image lists the first one's uncommitted partition, and the
    first one's before-image predates the second's.  Whatever order they
    end in, the rollbacks must leave the descriptor listing exactly the
    partitions the segment has — in memory and in the log."""

    @staticmethod
    def two_growers():
        db = Database(SystemConfig(**SMALL))
        rel = db.create_relation(
            "items", [("k", "int"), ("pad", "str")], primary_key="k", primary_index="hash"
        )
        segment = db.memory.segment(rel.descriptor.segment_id)

        def row(key):
            return {"k": key, "pad": "x" * 500}

        with db.transaction() as txn:
            rel.insert(txn, row(0))
        first = db.transactions.begin()
        key, partitions = 1, len(segment)
        while len(segment) == partitions:  # fills partition 1, grows the next
            rel.insert(first, row(key))
            key += 1
        while True:  # fills its own partition alone, until a probe has to grow
            partitions = len(segment)
            second = db.transactions.begin()
            try:
                rel.insert(second, row(key))
            except TransactionAborted:  # one of first's hash buckets: another key
                key += 1
                continue
            if len(segment) > partitions:
                return db, rel, first, second, key
            second.abort()
            rel.insert(first, row(key))
            key += 1

    @pytest.mark.parametrize("second_commits", [False, True])
    def test_first_grower_aborts_then_the_second_ends(self, second_commits):
        db, rel, first, second, key = self.two_growers()
        first.abort()
        assert verify_integrity(db) == []
        if second_commits:
            second.commit()
        else:
            second.abort()
        db.pump()
        assert verify_integrity(db) == []
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert (rel.lookup(txn, key) is not None) == second_commits
            assert rel.count(txn) == 1 + second_commits

    def test_second_grower_commits_then_the_first_aborts(self):
        """The second one's committed after-image lists the first one's
        partition; the first one's rollback then releases it."""
        db, rel, first, second, key = self.two_growers()
        second.commit()
        first.abort()
        db.pump()
        assert verify_integrity(db) == []
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key) is not None
            assert rel.count(txn) == 2

    def test_media_restore_skips_the_released_partition_too(self):
        db, rel, first, second, key = self.two_growers()
        first.abort()
        second.commit()  # its after-image still lists the first one's partition
        db.pump()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            assert db.table("items").lookup(txn, key) is not None
