"""Transactions too large for the Stable Log Buffer must abort cleanly.

A transaction's REDO chain lives in the SLB until commit; a transaction
whose log volume exceeds the whole buffer can never commit.  The system
must roll it back completely (including the mutation whose log write
failed) and stay consistent.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common import TransactionAborted
from repro.common.errors import StableMemoryFullError
from repro.wal.slb import WELL_KNOWN_RESERVE


def tiny_slb_db():
    # room for the well-known areas and audit buffers, then only ~10KB of
    # actual log blocks — far less than the oversized transaction needs
    config = SystemConfig(
        slb_capacity=WELL_KNOWN_RESERVE + 16 * 1024,
        log_block_size=512,
        log_page_size=1024,
    )
    db = Database(config)
    rel = db.create_relation(
        "t", [("id", "int"), ("pad", "str")], primary_key="id"
    )
    return db, rel


class TestOversizedTransaction:
    def test_oversized_transaction_aborts(self):
        db, rel = tiny_slb_db()
        with pytest.raises(TransactionAborted):
            with db.transaction() as txn:
                for i in range(500):
                    rel.insert(txn, {"id": i, "pad": "x" * 100})

    def test_database_consistent_after_oversized_abort(self):
        db, rel = tiny_slb_db()
        try:
            with db.transaction() as txn:
                for i in range(500):
                    rel.insert(txn, {"id": i, "pad": "x" * 100})
        except TransactionAborted:
            pass
        with db.transaction() as txn:
            assert rel.count(txn) == 0
        # and the system still works for reasonable transactions
        with db.transaction() as txn:
            rel.insert(txn, {"id": 1, "pad": "ok"})
        with db.transaction() as txn:
            assert rel.count(txn) == 1

    def test_recovery_after_oversized_abort(self):
        db, rel = tiny_slb_db()
        with db.transaction() as txn:
            rel.insert(txn, {"id": 0, "pad": "keep"})
        try:
            with db.transaction() as txn:
                for i in range(1, 500):
                    rel.insert(txn, {"id": i, "pad": "x" * 100})
        except TransactionAborted:
            pass
        db.crash()
        db.restart()
        with db.transaction() as txn:
            table = db.table("t")
            assert table.count(txn) == 1
            assert table.lookup(txn, 0)["pad"] == "keep"

    def test_failed_log_write_rolls_back_final_mutation(self):
        """The mutation whose REDO write failed must itself be undone."""
        db, rel = tiny_slb_db()
        inserted = []
        try:
            with db.transaction() as txn:
                for i in range(500):
                    inserted.append(
                        rel.insert(txn, {"id": i, "pad": "x" * 100})
                    )
        except TransactionAborted:
            pass
        # nothing the transaction touched remains, including the last row
        with db.transaction() as txn:
            for i in range(len(inserted) + 1):
                assert rel.lookup(txn, i) is None


class TestBackPressure:
    def test_a_stall_acknowledges_a_finished_checkpoint_before_it_drains(self):
        """A finished checkpoint resets its bin when it is acknowledged.  A
        back-pressure drain before that — a log write inside a pump's
        checkpoint pass finding the SLB full, say — must acknowledge it
        first: drained first, a record committed after the copy lands in
        that bin, and the reset drops it."""
        db, rel = tiny_slb_db()
        with db.transaction() as txn:
            address = rel.insert(txn, {"id": 1, "pad": "before"})
        assert db.checkpoints.copy([address.partition_address])  # finished, unacknowledged
        with db.transaction(pump=False) as txn:
            rel.update(txn, address, {"pad": "after"})
        append = db.slb.append

        def full_once(txn_id, record):
            db.slb.append = append
            raise StableMemoryFullError("Stable Log Buffer exhausted")

        db.slb.append = full_once  # the next log write stalls for a drain
        with db.transaction() as txn:
            rel.insert(txn, {"id": 2, "pad": "stalled"})
        db.crash()
        db.restart(RecoveryMode.EAGER)
        with db.transaction() as txn:
            assert db.table("t").lookup(txn, 1)["pad"] == "after"
            assert db.table("t").lookup(txn, 2)["pad"] == "stalled"
