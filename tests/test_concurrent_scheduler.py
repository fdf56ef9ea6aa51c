"""Concurrent user-transaction execution: the scheduler's worker pool.

Covers the determinism contract (an engine with one worker — SimEngine,
or ThreadedEngine(workers=1) — runs the cooperative round-robin), no-wait
retry semantics across threads, the conflict-storm livelock-avoidance
property, chaos crash points firing mid-script on a worker thread, and
the observability surface.
"""

import threading

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.engine import SimEngine, ThreadedEngine
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
from repro.sim.faults import SimulatedCrash
from repro.txn.scheduler import Scheduler


def build_bank(engine=None, accounts_count=8, balance=100):
    db = Database(SystemConfig(log_page_size=2048), engine=engine)
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
    def run_batch(engine, pairs):
        """One batch of transfers on a fresh bank: everything the
        contract covers."""
        db, accounts = build_bank(engine=engine)
        scheduler = Scheduler(db)
        for i, (src, dst, amount) in enumerate(pairs):
            scheduler.submit(transfer(db, accounts, src, dst, amount), name=f"t{i}")
        results = scheduler.run()
        outcome = (
            [(r.name, r.committed, r.attempts, r.txn_ids) for r in results],
            balances(db, accounts),
            db.stats()["transactions_committed"],
        )
        db.close()
        return outcome

    def test_sim_engine_degenerates_to_round_robin(self):
        """Whatever engine has one worker runs the same round-robin:
        identical results, attempts, txn ids, and final state — and a
        second run on SimEngine repeats them."""
        pairs = [(i % 3, 3 + (i % 3), 7) for i in range(6)]
        first = self.run_batch(SimEngine(), pairs)
        assert first == self.run_batch(SimEngine(), pairs)
        assert first == self.run_batch(ThreadedEngine(workers=1), pairs)
        assert any(attempts > 1 for _, _, attempts, _ in first[0])  # it did contend

    def test_workers_1_threaded_matches_interleaved(self):
        pairs = [(i % 4, 4 + i % 4, 5) for i in range(6)]
        expected = self.run_batch(SimEngine(), pairs)
        assert self.run_batch(ThreadedEngine(workers=1), pairs) == expected


class TestConcurrentExecution:
    def test_disjoint_scripts_commit_in_parallel(self):
        """Script *i* only ever touches accounts 2i and 2i+1: every one
        commits first time, whatever the pool size — rows that differ
        never conflict."""
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=48)
        scheduler = Scheduler(db)
        for i in range(24):
            scheduler.submit(transfer(db, accounts, 2 * i, 2 * i + 1, 1), name=f"t{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert [r.name for r in results] == [f"t{i}" for i in range(24)]
        assert scheduler.conflicts == 0
        assert sum(balances(db, accounts).values()) == 48 * 100
        db.close()

    def test_conflict_storm_avoids_livelock(self):
        """Every script hammers the same account from four workers; the
        no-wait policy plus staggered backoff must still commit all of
        them (livelock avoidance) and conserve money."""
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=4)
        # give each metered instruction real duration so workers genuinely
        # overlap inside transactions and conflicts actually occur
        db.main_cpu.realtime_scale = 50.0
        scheduler = Scheduler(db, max_attempts=500)
        for i in range(24):
            scheduler.submit(transfer(db, accounts, 0, 1 + i % 3, 1), name=f"s{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert scheduler.conflicts > 0
        assert scheduler.max_attempts_seen > 1
        assert sum(balances(db, accounts).values()) == 4 * 100
        db.close()

    def test_retry_uses_fresh_transaction_per_attempt(self):
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=4)
        db.main_cpu.realtime_scale = 50.0
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
        db.close()

    def test_worker_count_caps_at_pool_size(self):
        db, accounts = build_bank(engine=ThreadedEngine(workers=2))
        scheduler = Scheduler(db)
        for i in range(8):
            scheduler.submit(transfer(db, accounts, i % 4, 4 + i % 4, 2), name=f"t{i}")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert len(scheduler.stats()["per_worker"]) == 2
        db.close()


class TestChaosInterleaving:
    @pytest.mark.parametrize(
        "failure,state,events",
        [
            (ValueError("peer bug"), "aborted", ["begin", "abort"]),
            (SimulatedCrash("peer crashed"), "active", ["begin"]),
        ],
    )
    def test_stopped_peer_ends_as_if_its_own_body_raised(self, failure, state, events):
        """A worker stopped by a failing peer settles its script through
        the transaction frame: rolled back on an error, untouched on a
        crash — no abort machinery runs on a dead machine."""
        db, accounts = build_bank()
        scheduler = Scheduler(db)
        scheduler.submit(deposit(db, accounts, 0, 10))
        (running,) = scheduler._batch
        assert scheduler.advance(running) == "running"  # mid-script, lock held
        stop = threading.Event()
        stop.set()
        assert scheduler._drive(running, stop, [failure]) == "stopped"
        assert running.txn.state.value == state
        audit = [e.event for e in db.audit.entries_for(running.txn.txn_id)]
        assert audit == events

    def test_crash_point_mid_script_propagates_and_recovers(self):
        """A chaos crash point armed on the commit path fires on a worker
        thread mid-run; the crash propagates to the caller, and restart
        recovers exactly the durably committed deposits."""
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=4)
        db.main_cpu.realtime_scale = 20.0
        durable = []
        durable_mutex = threading.Lock()

        def observer(txn):
            with durable_mutex:
                durable.append(txn.txn_id)

        db.commit_observer = observer
        scheduler = Scheduler(db, max_attempts=500)
        for i in range(12):
            scheduler.submit(deposit(db, accounts, i % 4, 10), name=f"d{i}")
        injector = ChaosEngine(ChaosPlan.crash_at(0, "txn.commit.before-slb", after_visits=5))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                scheduler.run()
        assert injector.fired[0].point == "txn.commit.before-slb"
        db.commit_observer = None
        db.crash()
        db.restart(RecoveryMode.EAGER)
        # The crash fired *before* slb.commit, so the crashing transaction
        # is not durable; the observer fires right after slb.commit, so it
        # saw exactly the durable deposits — no more, no fewer.
        assert sum(balances(db, accounts).values()) == 4 * 100 + 10 * len(durable)
        db.close()

    def test_stopped_peers_roll_back_cleanly(self):
        """When one worker crashes the pool, peers abort their in-flight
        transactions; no lock or active transaction leaks."""
        db, accounts = build_bank(engine=ThreadedEngine(workers=4), accounts_count=8)
        db.main_cpu.realtime_scale = 20.0
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
        db.close()


class TestObservability:
    def test_stats_surface_in_database_and_monitor(self):
        db, accounts = build_bank(engine=ThreadedEngine(workers=4))
        scheduler = Scheduler(db)
        for i in range(12):
            scheduler.submit(transfer(db, accounts, i % 4, 4 + i % 4, 3), name=f"t{i}")
        scheduler.run()
        stats = db.stats()["scheduler"]
        assert stats is not None
        assert stats["committed"] == 12
        assert stats["failed"] == 0
        assert stats["workers"] == 4
        assert stats["runs"] == 1
        assert stats["retries"] == stats["conflicts"] - stats["failed"]
        assert len(stats["per_worker"]) == 4
        assert all(0.0 <= w["utilisation"] <= 1.0 for w in stats["per_worker"])
        assert sum(w["scripts"] for w in stats["per_worker"]) >= 12
        assert db.stats()["scheduler"] == stats
        db.close()

    def test_snapshot_reports_none_without_scheduler(self):
        db = Database()
        assert db.stats()["scheduler"] is None
        db.close()
