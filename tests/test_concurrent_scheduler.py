"""Concurrent user transactions: scripts interleaved by the scheduler.

Covers the determinism contract (a batch is a function of its scripts),
no-wait retry semantics, the conflict-storm livelock-avoidance property,
chaos crash points firing mid-script, and the observability surface.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.recovery.oracle import committed_digests, logical_digest
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
from repro.sim.faults import SimulatedCrash
from repro.txn.scheduler import Scheduler


def build_bank(accounts_count=8, balance=100):
    db = Database(SystemConfig(log_page_size=2048))
    accounts = db.create_relation(
        "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
    )
    with db.transaction() as txn:
        for i in range(accounts_count):
            accounts.insert(txn, {"id": i, "balance": balance})
    return db, accounts


def transfer(db, accounts, src, dst, amount):
    def script(txn):
        row = db.table("accounts").lookup(txn, src)
        yield
        accounts.update(txn, row.address, {"balance": row["balance"] - amount})
        yield
        row2 = db.table("accounts").lookup(txn, dst)
        yield
        accounts.update(txn, row2.address, {"balance": row2["balance"] + amount})

    return script


def deposit(db, accounts, target, amount):
    def script(txn):
        row = db.table("accounts").lookup(txn, target)
        yield
        accounts.update(txn, row.address, {"balance": row["balance"] + amount})

    return script


def balances(db, accounts):
    with db.transaction() as txn:
        return {r["id"]: r["balance"] for r in accounts.scan(txn)}


class TestDeterminismContract:
    @staticmethod
    def run_batch(pairs):
        """One batch of transfers on a fresh bank: everything the
        contract covers."""
        db, accounts = build_bank()
        scheduler = Scheduler(db)
        for i, (src, dst, amount) in enumerate(pairs):
            scheduler.submit(transfer(db, accounts, src, dst, amount), name=f"t{i}")
        results = scheduler.run()
        outcome = (
            [(r.name, r.committed, r.attempts, r.txn_ids) for r in results],
            balances(db, accounts),
            db.stats()["transactions_committed"],
        )
        return outcome

    def test_sim_engine_degenerates_to_round_robin(self):
        """The round-robin is the whole schedule: a second run of the
        same batch repeats the results, attempts, txn ids, and final
        state exactly."""
        pairs = [(i % 3, 3 + (i % 3), 7) for i in range(6)]
        first = self.run_batch(pairs)
        assert first == self.run_batch(pairs)
        assert any(attempts > 1 for _, _, attempts, _ in first[0])  # it did contend


class TestConcurrentExecution:
    def test_disjoint_scripts_commit_in_parallel(self):
        """Script *i* only ever touches accounts 2i and 2i+1: interleaved,
        every one commits first time — rows that differ never conflict."""
        db, accounts = build_bank(accounts_count=48)
        scheduler = Scheduler(db)
        for i in range(24):
            scheduler.submit(transfer(db, accounts, 2 * i, 2 * i + 1, 1), name=f"t{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert [r.name for r in results] == [f"t{i}" for i in range(24)]
        assert scheduler.conflicts == 0
        assert sum(balances(db, accounts).values()) == 48 * 100

    def test_conflict_storm_avoids_livelock(self):
        """Every script hammers the same account; the no-wait policy plus
        staggered backoff must still commit all of them (livelock
        avoidance) and conserve money."""
        db, accounts = build_bank(accounts_count=4)
        scheduler = Scheduler(db, max_attempts=500)
        for i in range(24):
            scheduler.submit(transfer(db, accounts, 0, 1 + i % 3, 1), name=f"s{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert scheduler.conflicts > 0
        assert scheduler.max_attempts_seen > 1
        assert sum(balances(db, accounts).values()) == 4 * 100

    def test_retry_uses_fresh_transaction_per_attempt(self):
        db, accounts = build_bank(accounts_count=4)
        scheduler = Scheduler(db, max_attempts=500)
        for i in range(16):
            scheduler.submit(transfer(db, accounts, 0, 1, 1), name=f"s{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        retried = [r for r in results if r.attempts > 1]
        assert retried, "storm produced no retries"
        for result in results:
            # replayable-script semantics: every attempt began a brand-new
            # transaction, and none of them is reused across attempts
            assert len(result.txn_ids) == result.attempts
            assert len(set(result.txn_ids)) == result.attempts


class TestChaosInterleaving:
    def test_crash_point_mid_script_propagates_and_recovers(self):
        """A chaos crash point armed on the commit path fires mid-run;
        the crash propagates to the caller, and restart recovers exactly
        the durably committed deposits."""
        db, accounts = build_bank(accounts_count=4)
        scheduler = Scheduler(db, max_attempts=500)
        for i in range(12):
            scheduler.submit(deposit(db, accounts, i % 4, 10), name=f"d{i}")
        injector = ChaosEngine(ChaosPlan.crash_at(0, "txn.commit.before-slb", after_visits=5))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                scheduler.run()
        assert injector.fired[0].point == "txn.commit.before-slb"
        # The crash fired *before* slb.commit, so the crashing transaction
        # is not durable: recovery brings back exactly the deposits
        # committed at the crash, no more, no fewer.
        (expected,) = committed_digests([db])
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        # five commits passed the armed point before it fired on the sixth
        assert sum(balances(db, accounts).values()) == 4 * 100 + 10 * 5

    def test_stopped_peers_roll_back_cleanly(self):
        """A crash mid-batch leaves the peers' in-flight transactions to
        restart, which discards them: no active transaction survives and
        money is conserved."""
        db, accounts = build_bank(accounts_count=8)
        scheduler = Scheduler(db, max_attempts=500)
        for i in range(12):
            scheduler.submit(transfer(db, accounts, i % 8, (i + 1) % 8, 1), name=f"t{i}")
        injector = ChaosEngine(ChaosPlan.crash_at(0, "txn.commit.before-slb", after_visits=3))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                scheduler.run()
        # the machine "died": surviving state is only inspected post-restart
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.transactions.active_count == 0
        assert sum(balances(db, accounts).values()) == 8 * 100


class TestObservability:
    def test_stats_surface_in_database_and_monitor(self):
        db, accounts = build_bank()
        scheduler = Scheduler(db)
        for i in range(12):
            scheduler.submit(transfer(db, accounts, i % 4, 4 + i % 4, 3), name=f"t{i}")
        scheduler.run()
        stats = db.stats()["scheduler"]
        assert stats is not None
        assert stats["committed"] == 12
        assert stats["failed"] == 0
        assert stats["runs"] == 1
        assert stats["retries"] == stats["conflicts"] - stats["failed"]
        assert db.stats()["scheduler"] == stats

    def test_snapshot_reports_none_without_scheduler(self):
        assert Database().stats()["scheduler"] is None
