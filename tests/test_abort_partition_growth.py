"""Growing a segment is its own committed system transaction (ROADMAP
item 4; benchmarks/host/README.md, finding 10).

A transaction that finds no room does not grow the segment itself:
``Database.grow_segment`` allocates the partition, registers its Stable
Log Tail bin and writes the descriptor under a system transaction that
commits before anything can be placed in the partition.  The user's
abort, a statement rollback or a crash therefore undo nothing about the
growth — they leave an empty, catalogued, bin-backed partition, which the
next insert uses and every restart knows.

The classes keep the names they had while growth rode in the user's
transaction and was repaired after the fact (``release_partition``,
``reconcile_partitions``, the restart-time drop); what they assert now is
the prevention contract.
"""

import random

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common import TransactionAborted
from repro.common.errors import StableMemoryFullError
from repro.common.types import PartitionAddress
from repro.db.integrity import verify_integrity
from repro.recovery import restore_after_checkpoint_media_failure
from repro.recovery.oracle import logical_digest
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
from repro.sim.faults import SimulatedCrash
from repro.txn.scheduler import Scheduler

SMALL = dict(partition_size=4096)


class Doomed(Exception):
    pass


def small_db(primary_index="hash"):
    db = Database(SystemConfig(**SMALL))
    rel = db.create_relation(
        "items", [("k", "int"), ("v", "int")], primary_key="k", primary_index=primary_index
    )
    return db, rel


def segment_of(db, which):
    """The relation's own segment, or its primary-key index's."""
    catalog = db.catalog
    descriptor = catalog.relation("items") if which == "relation" else catalog.index("items__pk")
    return db.memory.segment(descriptor.segment_id)


def insert_until_one_grows(db, rel, which="relation", partitions=2):
    """Commit single-row inserts (keys 0, 1, ...) until one grows the
    segment to ``partitions`` partitions; that one is left *open*.
    Returns ``(its transaction, its key)``."""
    segment = segment_of(db, which)
    key = 0
    while True:
        txn = db.transactions.begin()
        rel.insert(txn, {"k": key, "v": key})
        if len(segment) == partitions:
            return txn, key
        txn.commit()
        db.pump()
        key += 1


def fill_until_next_insert_grows(db, rel, which="relation"):
    """Commit single-row inserts until one more row no longer fits the
    segment's partitions; returns the next unused key.  A growth cannot be
    probed for and taken back, so a twin database says where it comes."""
    twin, twin_rel = small_db(db.catalog.index("items__pk").kind)
    _, growing_key = insert_until_one_grows(twin, twin_rel, which)
    for key in range(growing_key):
        with db.transaction() as txn:
            rel.insert(txn, {"k": key, "v": key})
    return growing_key


def crash_and_restart(db):
    digest = logical_digest(db)
    db.crash()
    db.restart(RecoveryMode.EAGER)
    assert logical_digest(db) == digest
    assert verify_integrity(db) == []
    return db.table("items")


def assert_empty_catalogued_and_binned(db, descriptor, number):
    """What an insert that did not happen leaves of its growth."""
    address = PartitionAddress(descriptor.segment_id, number)
    assert number in descriptor.partitions
    assert db.slt.has_partition(address)
    partition = db.memory.partition(address)
    assert len(partition) == 0 and len(partition.heap) == 0
    assert verify_integrity(db) == []


class TestCommittedRowOutlivesItsOpenAllocator:
    """The defect: the descriptor entry of a grown partition travelled in
    the after-image of whichever transaction filled the old one.  A row
    another transaction committed into the new partition was lost when the
    machine crashed before that allocator ended — ``CatalogError: items
    has no partition 2`` at the first lookup after restart."""

    @staticmethod
    def committed_beside_an_open_allocator(db, rel):
        allocator, key = insert_until_one_grows(db, rel)
        grown = max(rel.descriptor.partitions)
        user = db.transactions.begin()
        assert rel.insert(user, {"k": key + 1, "v": 77}).partition == grown
        user.commit()
        db.pump()
        return allocator, key

    @staticmethod
    def assert_readable(db, key):
        with db.transaction() as txn:
            assert db.table("items").lookup(txn, key + 1)["v"] == 77

    def test_crash_with_the_allocator_still_open(self):
        db, rel = small_db()
        _, key = self.committed_beside_an_open_allocator(db, rel)
        self.assert_readable(db, key)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert verify_integrity(db) == []
        self.assert_readable(db, key)
        with db.transaction() as txn:
            assert db.table("items").lookup(txn, key) is None  # the allocator's own row
            assert db.table("items").count(txn) == key + 1

    def test_allocator_aborts_after_the_commit(self):
        db, rel = small_db()
        allocator, key = self.committed_beside_an_open_allocator(db, rel)
        allocator.abort()
        self.assert_readable(db, key)
        crash_and_restart(db)
        self.assert_readable(db, key)

    def test_allocator_is_a_statement_that_rolls_back(self):
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel)
        allocator = db.transactions.begin()
        user = db.transactions.begin()
        with pytest.raises(Doomed):
            with allocator.statement():
                rel.insert(allocator, {"k": key, "v": 0})
                grown = max(rel.descriptor.partitions)
                assert rel.insert(user, {"k": key + 1, "v": 77}).partition == grown
                user.commit()
                raise Doomed
        self.assert_readable(db, key)
        db.crash()  # the allocator is still open
        db.restart(RecoveryMode.EAGER)
        assert verify_integrity(db) == []
        self.assert_readable(db, key)

    @pytest.mark.parametrize("kind, partitions", [("hash", 3), ("ttree", 2)])
    def test_index_segment_growth(self, kind, partitions):
        """The allocator's insert grows the primary-key index's segment
        and stays open; peers commit what the no-wait locks let them.  A
        hash index lets a peer split a bucket into the new partition (at
        the segment's second growth; the first one's allocator holds the
        anchor); in a T-Tree this small every writer meets the allocator
        at the root, so there the crash finds the allocator alone."""
        db, rel = small_db(primary_index=kind)
        allocator, key = insert_until_one_grows(db, rel, "index", partitions)
        grown = segment_of(db, "index").get(partitions)
        components = len(grown)
        committed = []
        for peer_key in range(-1, -200, -1):
            peer = db.transactions.begin()
            try:
                rel.insert(peer, {"k": peer_key, "v": 77})
            except TransactionAborted:  # one of the allocator's components
                continue
            peer.commit()
            db.pump()
            committed.append(peer_key)
            if len(grown) > components:
                break
        assert (len(grown) > components) == (kind == "hash")
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert verify_integrity(db) == []
        assert partitions in db.catalog.index("items__pk").partitions
        with db.transaction() as txn:
            rel = db.table("items")
            assert all(rel.lookup(txn, k)["v"] == 77 for k in committed)
            assert rel.lookup(txn, key) is None
            assert rel.count(txn) == key + len(committed)

    def test_checkpoint_media_restore(self):
        db, rel = small_db()
        _, key = self.committed_beside_an_open_allocator(db, rel)
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        assert verify_integrity(db) == []
        self.assert_readable(db, key)
        digest = logical_digest(db)  # the restore re-images: compare from here on
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == digest
        self.assert_readable(db, key)


class TestAbortedGrowthIsTakenBack:
    """It is not, any more: the growth was never the aborted
    transaction's.  What stays behind is harmless and is used next."""

    def test_committed_row_survives_crash_after_aborted_growth(self):
        """Finding 10's repro: fill, abort the growing insert, commit one
        insert, crash, restart, look the row up."""
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel)
        txn = db.transactions.begin()
        grown = rel.insert(txn, {"k": key, "v": 0}).partition
        txn.abort()
        with db.transaction() as txn:
            assert rel.insert(txn, {"k": key, "v": 7}).partition == grown
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key)["v"] == 7
            assert rel.count(txn) == key + 1

    def test_abort_undoes_descriptor_segment_and_bin(self):
        """None of the three: the partition stays catalogued, resident and
        bin-backed, the aborted transaction logged nothing about it, the
        next insert lands in it, and a restart finds it again, empty."""
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel)
        before = sorted(rel.descriptor.partitions)
        with pytest.raises(Doomed):
            with db.transaction() as txn:
                grown = rel.insert(txn, {"k": key, "v": 0}).partition
                assert grown not in before
                raise Doomed
        assert_empty_catalogued_and_binned(db, rel.descriptor, grown)
        rel = crash_and_restart(db)
        assert_empty_catalogued_and_binned(db, rel.descriptor, grown)
        with db.transaction() as txn:
            assert rel.insert(txn, {"k": key, "v": 0}).partition == grown
        assert sorted(rel.descriptor.partitions) == before + [grown]

    def test_statement_rollback_takes_growth_back_too(self):
        """The statement's rows go, its growth stays; the surrounding
        transaction stays alive and commits other work into it."""
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel)
        with db.transaction() as txn:
            with pytest.raises(Doomed):
                with txn.statement():
                    grown = rel.insert(txn, {"k": key, "v": 0}).partition
                    raise Doomed
            assert_empty_catalogued_and_binned(db, rel.descriptor, grown)
            assert rel.insert(txn, {"k": key + 1, "v": 1}).partition == grown
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key) is None
            assert rel.lookup(txn, key + 1)["v"] == 1

    @pytest.mark.parametrize("kind", ["hash", "ttree"])
    def test_index_segment_growth_is_taken_back(self, kind):
        db, rel = small_db(primary_index=kind)
        key = fill_until_next_insert_grows(db, rel, "index")
        descriptor = db.catalog.index("items__pk")
        before = sorted(descriptor.partitions)
        txn = db.transactions.begin()
        rel.insert(txn, {"k": key, "v": 0})
        (grown,) = set(descriptor.partitions) - set(before)
        txn.abort()
        assert_empty_catalogued_and_binned(db, descriptor, grown)
        for value in range(3):
            with db.transaction() as txn:
                rel.insert(txn, {"k": key + value, "v": value})
        assert sorted(descriptor.partitions) == before + [grown]  # reused, not grown again
        assert len(segment_of(db, "index").get(grown)) > 0
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert [rel.lookup(txn, key + value)["v"] for value in range(3)] == [0, 1, 2]


def insert_delete_abort_crash_loop(seed):
    """Inserts, deletes and aborts (whole transactions and single
    statements) on a relation small enough to grow every few dozen rows,
    with a crash every round: the recovered state must equal the model,
    and every partition an aborted insert grew is still there."""
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
        partitions = {
            descriptor.name: sorted(descriptor.partitions)
            for descriptor in (*db.catalog.relations(), *db.catalog.indexes())
        }
        rel = crash_and_restart(db)
        assert partitions == {
            descriptor.name: sorted(descriptor.partitions)
            for descriptor in (*db.catalog.relations(), *db.catalog.indexes())
        }
        with db.transaction() as txn:
            assert {row["k"]: row["v"] for row in rel.scan(txn)} == model


@pytest.mark.parametrize("seed", range(6))
def test_seeded_insert_delete_abort_crash_loop(seed):
    insert_delete_abort_crash_loop(seed)


class TestKeptPartitionStaysCatalogued:
    """A grown partition another transaction placed rows in stays
    catalogued whatever becomes of the transaction whose insert grew it —
    by construction: its descriptor entry was committed before either of
    them could use it."""

    @staticmethod
    def growing_insert(db, rel):
        """An open transaction whose insert just grew the relation."""
        key = fill_until_next_insert_grows(db, rel)
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
        key = fill_until_next_insert_grows(db, rel)
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
        assert_empty_catalogued_and_binned(db, rel.descriptor, grown)
        with db.transaction() as txn:
            assert rel.insert(txn, {"k": key + 1, "v": 77}).partition == grown
        self.check(db, rel, key, grown)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_interleaved_growth_abort_crash_loop(seed):
    """Several open transactions insert into one small relation, commit
    and abort in random order — so partitions grown for transactions that
    abort keep being used by their neighbours, in the relation and in both
    index segments — with an integrity audit after every ending and a
    crash every round, half of them with transactions still open."""
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
        if rng.random() < 0.5:  # the others die with the machine
            for txn in open_txns:
                txn.abort()
            db.pump()
            rel = crash_and_restart(db)
        else:
            db.crash()
            db.restart(RecoveryMode.EAGER)
            assert verify_integrity(db) == []
            rel = db.table("items")
        with db.transaction() as txn:
            assert {row["k"]: row["v"] for row in rel.scan(txn)} == model


class TestTwoOpenGrowersOfOneSegment:
    """Two open transactions whose inserts each grew the same segment.
    Neither's UNDO holds a descriptor image, so whatever order they end
    in the descriptor lists exactly the partitions the segment has — in
    memory and in the log."""

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
        partitions = sorted(rel.descriptor.partitions)
        first.abort()
        assert verify_integrity(db) == []
        if second_commits:
            second.commit()
        else:
            second.abort()
        db.pump()
        assert verify_integrity(db) == []
        assert sorted(rel.descriptor.partitions) == partitions
        rel = crash_and_restart(db)
        assert sorted(rel.descriptor.partitions) == partitions
        with db.transaction() as txn:
            assert (rel.lookup(txn, key) is not None) == second_commits
            assert rel.count(txn) == 1 + second_commits

    def test_second_grower_commits_then_the_first_aborts(self):
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
        """Nothing is released and nothing skipped: the first grower's
        partition comes back from the log history as what it is, empty."""
        db, rel, first, second, key = self.two_growers()
        partitions = sorted(rel.descriptor.partitions)
        first.abort()
        second.commit()
        db.pump()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        assert verify_integrity(db) == []
        assert sorted(db.catalog.relation("items").partitions) == partitions
        with db.transaction() as txn:
            assert db.table("items").lookup(txn, key) is not None


class TestCrashInsideAGrowth:
    """The two windows of the growth transaction (``growth.catalogued``,
    ``growth.committed``).  Decided once: restart drops a bin no recovered
    descriptor lists, so the partition number an uncommitted growth
    reserved is free again — bin included — for the next one."""

    @staticmethod
    def crash_at(point):
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel)
        digest = logical_digest(db)
        injector = ChaosEngine(ChaosPlan.crash_at(0, point))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                with db.transaction() as txn:
                    rel.insert(txn, {"k": key, "v": 0})
        assert injector.fired
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == digest
        assert verify_integrity(db) == []
        return db, db.table("items"), key

    def test_before_the_growth_commits(self):
        db, rel, key = self.crash_at("growth.catalogued")
        assert sorted(rel.descriptor.partitions) == [1]
        assert not db.slt.has_partition(PartitionAddress(rel.descriptor.segment_id, 2))
        with db.transaction() as txn:  # grows to the same number, bin and all
            assert rel.insert(txn, {"k": key, "v": 7}).partition == 2
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key)["v"] == 7

    def test_after_the_growth_commits(self):
        db, rel, key = self.crash_at("growth.committed")
        assert_empty_catalogued_and_binned(db, rel.descriptor, 2)
        with db.transaction() as txn:
            assert rel.insert(txn, {"k": key, "v": 7}).partition == 2
        assert sorted(rel.descriptor.partitions) == [1, 2]
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key)["v"] == 7

    def test_failed_growth_leaves_nothing_behind(self):
        """The growth transaction itself rolls back (here: the stable log
        buffer refuses its descriptor record): its bin goes by
        compensation, the partition was never installed, and the caller's
        insert fails with the growth's ``TransactionAborted``."""
        db, rel = small_db()
        key = fill_until_next_insert_grows(db, rel)
        bins = len(db.slt.bins())
        refused = []

        def refuse(txn_id, record):
            refused.append(record)
            if len(refused) == 2:  # the retry after the drain: refused too
                del db.slb.append
            raise StableMemoryFullError("no room for the descriptor record")

        db.slb.append = refuse
        with pytest.raises(TransactionAborted):
            with db.transaction() as txn:
                rel.insert(txn, {"k": key, "v": 0})
        assert len(refused) == 2 and refused[0] is refused[1]
        assert sorted(rel.descriptor.partitions) == [1]
        assert len(db.slt.bins()) == bins
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            rel.insert(txn, {"k": key, "v": 7})
        rel = crash_and_restart(db)
        with db.transaction() as txn:
            assert rel.lookup(txn, key)["v"] == 7

    def test_crashed_ddl_leaves_no_bin_for_the_next_one_to_trip_on(self):
        """Same rule, other owner: a ``create_relation`` that dies before
        its commit registered bins for a segment id the next one reuses."""
        db = Database(SystemConfig(**SMALL))
        injector = ChaosEngine(ChaosPlan.crash_at(0, "txn.commit.before-slb"))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                db.create_relation("items", [("k", "int"), ("v", "int")], primary_key="k")
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert verify_integrity(db) == []
        rel = db.create_relation("items", [("k", "int"), ("v", "int")], primary_key="k")
        with db.transaction() as txn:
            rel.insert(txn, {"k": 1, "v": 1})
        assert verify_integrity(db) == []


class TestUndoIntoRoomAPeerTook:
    """A deletes a row from a full partition, B inserts into the room it
    freed and commits, then A aborts: A's UNDO re-insert must put the row
    back although the partition is full again — capacity is the insert's
    rule, not the replay's.  An insert storm on worker threads first hit
    this; two interleaved transactions reach it as well."""

    @pytest.mark.parametrize("text", [None, "x" * 40], ids=["entity-area", "string-heap"])
    def test_abort_puts_the_row_back_into_a_partition_a_peer_refilled(self, text):
        """Without strings the entity area fills first; with them, the heap."""
        db = Database(SystemConfig(**SMALL))
        rel = db.create_relation(
            "items", [("k", "int"), ("s", "str")], primary_key="k"
        )
        key, address = 0, None
        while address is None or address.partition == 1:
            with db.transaction() as txn:
                address = rel.insert(txn, {"k": key, "s": text})
            key += 1
        a = db.transactions.begin()
        victim = rel.lookup(a, 0)
        assert victim.address.partition == 1
        rel.delete(a, victim.address)
        b = db.transactions.begin()
        assert rel.insert(b, {"k": key, "s": text}).partition == 1
        b.commit()
        a.abort()
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            assert rel.lookup(txn, 0)["s"] == text
            assert rel.lookup(txn, key)["s"] == text
        crash_and_restart(db)


def insert_storm(seed, rounds=3, scripts=16):
    """Sixteen scripts interleave inserts, one per step, into one relation
    on 4 KB partitions — every partition is filled, and grown past, by
    several open transactions — with a third of the scripts aborting their
    first attempt after their inserts, growths included; then the machine
    crashes.  Every committed key must be back, the integrity audit clean."""
    rng = random.Random(seed)
    db = Database(
        SystemConfig(
            log_page_size=512,
            update_count_threshold=16,
            **SMALL,
        )
    )
    rel = db.create_relation(
        "items", [("k", "int"), ("v", "int"), ("pad", "str")], primary_key="k"
    )
    db.create_index("items_by_v", "items", "v", kind="hash")
    committed: dict[int, int] = {}
    next_key = 0
    for _ in range(rounds):
        scheduler = Scheduler(db)
        batches = []
        for _ in range(scripts):
            rows = [
                {"k": next_key + n, "v": rng.randrange(1000), "pad": "x" * rng.randrange(40, 120)}
                for n in range(rng.randint(2, 8))
            ]
            next_key += len(rows)
            batches.append(rows)

            def script(txn, rows=rows, doomed=iter([rng.random() < 0.33])):
                for row in rows:
                    rel.insert(txn, row)
                    yield
                if next(doomed, False):  # the first attempt only
                    raise TransactionAborted("deliberate", txn_id=txn.txn_id)

            scheduler.submit(script)
        for result, rows in zip(scheduler.run(), batches):
            if result.committed:
                committed.update((row["k"], row["v"]) for row in rows)
    assert verify_integrity(db) == []
    digest = logical_digest(db)
    db.crash()
    db.restart(RecoveryMode.EAGER)
    assert verify_integrity(db) == []
    assert logical_digest(db) == digest
    with db.transaction() as txn:
        assert {row["k"]: row["v"] for row in db.table("items").scan(txn)} == committed
    assert len(committed) > rounds * scripts  # it was a storm, not a drizzle


@pytest.mark.parametrize("seed", range(4))
def test_four_worker_insert_storm_then_crash(seed):
    """ROADMAP item 4's four-worker storm (29 of 40 runs lost committed
    rows while growth rode in user transactions), its scripts interleaved
    by the round-robin instead of raced on threads."""
    insert_storm(seed)
