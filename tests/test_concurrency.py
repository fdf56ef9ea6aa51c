"""Tests for the no-wait two-phase lock table and latches."""

import pytest

from repro.common import LockNotHeldError
from repro.concurrency import Latch, LockManager, LockMode
from repro.concurrency.latch import LatchViolationError

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
