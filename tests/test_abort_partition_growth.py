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
from repro.common.types import PartitionAddress
from repro.db.integrity import verify_integrity
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
