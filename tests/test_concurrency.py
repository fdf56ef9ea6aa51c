"""Tests for the no-wait two-phase lock table and latches."""

import importlib

import pytest

from repro.common import LockNotHeldError
from repro.common.errors import TransactionAborted
from repro import Database, SystemConfig
from repro.concurrency import Latch, LockManager, LockMode
from repro.concurrency.latch import LatchViolationError, assert_no_latch_held
from repro.sim.chaos import crash_point, set_crash_point_observer
from repro.txn.transaction import TxnState

S = LockMode.SHARED
X = LockMode.EXCLUSIVE
IS = LockMode.INTENT_SHARED
IX = LockMode.INTENT_EXCLUSIVE


@pytest.fixture()
def lm():
    return LockManager()


def _snapshot(lm, txns=(1, 2, 3)):
    """Everything the public surface shows of the table, plus the table."""
    return (
        {txn: lm.locks_held(txn) for txn in txns},
        {resource: dict(holders) for resource, holders in lm._holders.items()},
    )


class TestBasicLocking:
    def test_exclusive_grant(self, lm):
        assert lm.acquire(1, "r", X)
        assert lm.holds(1, "r", X)

    def test_shared_locks_coexist(self, lm):
        assert lm.acquire(1, "r", S)
        assert lm.acquire(2, "r", S)
        assert lm.holds(1, "r", S)
        assert lm.holds(2, "r", S)

    def test_exclusive_blocks_shared(self, lm):
        lm.acquire(1, "r", X)
        before = _snapshot(lm)
        assert not lm.acquire(2, "r", S)
        assert _snapshot(lm) == before

    def test_shared_blocks_exclusive(self, lm):
        lm.acquire(1, "r", S)
        assert not lm.acquire(2, "r", X)

    def test_nowait_does_not_queue(self, lm):
        """A refused request leaves nothing behind: once the holder is
        gone the table is empty, and only a *new* request gets the lock."""
        lm.acquire(1, "r", X)
        assert not lm.acquire(2, "r", S)
        lm.release_all(1)
        assert not lm.holds(2, "r")
        assert lm._holders == {}
        assert lm.acquire(2, "r", S)

    def test_refused_fresh_request_creates_no_table_entry(self, lm):
        lm.acquire(1, "a", X)
        before = _snapshot(lm)
        assert not lm.acquire(2, "a", X)
        assert _snapshot(lm) == before
        assert lm.locks_held(2) == set()

    def test_reentrant_acquire(self, lm):
        assert lm.acquire(1, "r", X)
        assert lm.acquire(1, "r", X)
        assert lm.acquire(1, "r", S)  # weaker re-request is free
        assert lm.holds(1, "r", X)

    def test_x_satisfies_s_query(self, lm):
        lm.acquire(1, "r", X)
        assert lm.holds(1, "r", S)

    def test_upgrade_sole_holder(self, lm):
        lm.acquire(1, "r", S)
        assert lm.acquire(1, "r", X)
        assert lm.holds(1, "r", X)

    def test_upgrade_blocked_by_other_sharer(self, lm):
        lm.acquire(1, "r", S)
        lm.acquire(2, "r", S)
        before = _snapshot(lm)
        assert not lm.acquire(1, "r", X)
        assert _snapshot(lm) == before
        assert lm.holds(1, "r", S) and not lm.holds(1, "r", X)
        assert lm.holds(2, "r", S)

    def test_ix_join_s_promotes_to_exclusive(self, lm):
        """IX ∨ S is X (no SIX mode): granted to a sole holder, refused
        while anyone else holds even the weakest mode."""
        lm.acquire(1, "r", IX)
        lm.acquire(2, "r", IS)
        before = _snapshot(lm)
        assert not lm.acquire(1, "r", S)
        assert _snapshot(lm) == before
        lm.release_all(2)
        assert lm.acquire(1, "r", S)
        assert lm.holds(1, "r", X)
        assert not lm.acquire(2, "r", IS)


class TestReleaseAndWakeup:
    """Release paths.  Nothing wakes: a refused request was never queued
    (``TestBasicLocking::test_nowait_does_not_queue``)."""

    def test_early_release_single_resource(self, lm):
        lm.acquire(1, "rel", S)
        lm.acquire(1, "tuple", X)
        lm.release(1, "rel")
        assert not lm.holds(1, "rel", S)
        assert lm.holds(1, "tuple", X)
        assert lm.locks_held(1) == {"tuple"}

    def test_release_not_held_raises(self, lm):
        with pytest.raises(LockNotHeldError):
            lm.release(1, "ghost")

    def test_release_all_keeps_other_holders(self, lm):
        lm.acquire(1, "r", S)
        lm.acquire(2, "r", S)
        lm.acquire(1, "mine", X)
        lm.release_all(1)
        assert lm.locks_held(1) == set()
        assert lm._holders == {"r": {2: S}}


class TestCrash:
    def test_crash_clears_all_state(self, lm):
        lm.acquire(1, "a", X)
        lm.acquire(2, "b", S)
        lm.crash()
        assert not lm.holds(1, "a", X)
        assert lm.locks_held(2) == set()
        assert lm._holders == {}
        assert lm.acquire(3, "a", X)


ROWS = 8


def _bump_db():
    """A loaded relation, a registered 6-row read-then-update script, and
    the probes the script calls with its transaction once it is done."""
    db = Database(SystemConfig())
    table = db.create_relation("t", [("id", "int"), ("v", "int"), ("pad", "str")], "id")
    with db.transaction() as txn:
        for key in range(ROWS):
            table.insert(txn, {"id": key, "v": 0, "pad": "x" * 16})
    probes = []

    def bump(txn, start):
        for offset in range(6):
            row = table.lookup(txn, (start + offset) % ROWS)
            table.update(txn, row.address, {"v": row["v"] + 1, "pad": f"{offset:08d}"})
        for probe in probes:
            probe(txn)

    db.register_script("bump", bump, relations=["t"])
    with db.transaction() as txn:
        address = table.lookup(txn, 3).address
    return db, table, probes, address


class TestLockHierarchy:
    """A transaction holding S or X on a relation asks for no row or intent
    lock there; every foreign request is still refused at the relation."""

    def test_command_script_holds_its_relation_lock_only(self, monkeypatch):
        db, _, probes, _ = _bump_db()
        segment = db.catalog.relation("t").segment_id
        held = []
        probes.append(lambda txn: held.append(db.locks.locks_held(txn.txn_id)))
        calls = []
        acquire = db.locks.acquire

        def counting(txn_id, resource, mode):
            calls.append(resource)
            return acquire(txn_id, resource, mode)

        monkeypatch.setattr(db.locks, "acquire", counting)
        db.run_script("bump", 1, logging="command", pump=False)
        assert held == [{("rel", segment)}]
        # lock_declared's X; the 6 reads and 6 updates are covered by it
        assert calls == [("rel", segment)]

    def test_foreign_requests_are_refused_at_the_relation(self):
        db, table, probes, address = _bump_db()
        segment = db.catalog.relation("t").segment_id
        attempts = {
            "read": lambda other: table.read(other, address),
            "update": lambda other: table.update(other, address, {"v": -1}),
            "insert": lambda other: table.insert(other, {"id": 99, "v": 0, "pad": None}),
        }
        outcomes = {}

        def foreign(txn):
            for name, attempt in attempts.items():
                other = db.transactions.begin()
                with pytest.raises(TransactionAborted, match=rf"\('rel', {segment}\)"):
                    attempt(other)
                outcomes[name] = (other.state, db.locks.locks_held(other.txn_id))
            deferred = db.checkpoints.checkpoints_deferred
            outcomes["checkpoint"] = db.checkpoints.copy([address.partition_address])
            assert db.checkpoints.checkpoints_deferred == deferred + 1

        probes.append(foreign)
        db.run_script("bump", 1, logging="command")
        refused = (TxnState.ABORTED, set())
        assert outcomes == {
            "read": refused, "update": refused, "insert": refused, "checkpoint": False
        }
        with db.transaction() as txn:
            assert table.lookup(txn, 99) is None
            assert table.lookup(txn, 3)["v"] == 1

    def test_checkpoint_early_release_ends_the_coverage(self):
        db, table, _, address = _bump_db()
        segment = db.catalog.relation("t").segment_id
        seen = {}

        def observe(point):
            assert_no_latch_held(point)
            if point in ("checkpoint.locked", "checkpoint.copied"):
                (checkpoint,) = db.transactions.active_transactions()
                table.read(checkpoint, address)
                seen[point] = db.locks.locks_held(checkpoint.txn_id)

        set_crash_point_observer(observe)
        try:
            assert db.checkpoints.copy([address.partition_address])
        finally:
            set_crash_point_observer(assert_no_latch_held)
        # under the S lock the row read is covered; once the lock is
        # released early, the same read takes IS and the row lock for real
        assert seen == {
            "checkpoint.locked": {("rel", segment)},
            "checkpoint.copied": {("rel", segment), address},
        }


class TestLatch:
    def test_acquire_release(self):
        latch = Latch("map")
        latch.acquire(1)
        assert latch.held
        assert latch.owner == 1
        latch.release(1)
        assert not latch.held

    def test_double_acquire_raises(self):
        latch = Latch("map")
        latch.acquire(1)
        with pytest.raises(LatchViolationError):
            latch.acquire(2)

    def test_foreign_release_raises(self):
        latch = Latch("map")
        latch.acquire(1)
        with pytest.raises(LatchViolationError):
            latch.release(2)

    def test_context_manager(self):
        latch = Latch("map")
        with latch.held_by(7):
            assert latch.owner == 7
        assert not latch.held

    def test_context_manager_releases_on_error(self):
        latch = Latch("map")
        with pytest.raises(RuntimeError):
            with latch.held_by(7):
                raise RuntimeError("boom")
        assert not latch.held

    def test_assert_unheld(self):
        latch = Latch("map")
        latch.assert_unheld("recovery wait")  # free latch passes
        latch.acquire(1)
        with pytest.raises(LatchViolationError):
            latch.assert_unheld("recovery wait")

    def test_acquisition_counter(self):
        latch = Latch("map")
        for owner in range(5):
            with latch.held_by(owner):
                pass
        assert latch.acquisitions == 5


class TestLatchAcrossCrashPoint:
    """Section 2.5: no latch across a crash point — the rule
    ``tests/conftest.py`` installs as the crash-point observer."""

    def test_rule_is_installed_for_every_test(self):
        chaos = importlib.import_module("repro.sim.chaos")
        assert chaos._observer is assert_no_latch_held

    def test_latch_held_across_a_crash_point_fails(self):
        latch = Latch("deliberate")
        with latch.held_by(7):
            with pytest.raises(LatchViolationError) as raised:
                crash_point("txn.commit.before-slb")
        assert "'deliberate' held by 7 across crash_point('txn.commit.before-slb')" in str(
            raised.value
        )
        crash_point("txn.commit.before-slb")  # released: the point passes

    def test_commit_holding_the_slb_latch_fails(self):
        db = Database(SystemConfig(log_page_size=1024))
        rel = db.create_relation("items", [("id", "int")], primary_key="id")
        txn = db.transactions.begin()
        rel.insert(txn, {"id": 1})
        with db.slb.block_latch.held_by(txn.txn_id):
            with pytest.raises(LatchViolationError, match="slb-block-free-list"):
                txn.commit()
        txn.commit()
