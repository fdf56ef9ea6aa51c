"""Tests for interleaved transaction execution: real conflicts, retries,
and serialisability under contention.

The ``bank`` fixture pins ``SimEngine``: these tests rest on the
cooperative driver's deterministic interleaving ("guaranteed lock
conflict"); the worker pool has tests/test_concurrent_scheduler.py."""

import pytest

from repro import Database, SystemConfig
from repro.engine import SimEngine, ThreadedEngine
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
from repro.sim.faults import SimulatedCrash
from repro.txn.scheduler import Scheduler, SchedulerError
from repro.txn.transaction import TxnState


def make_bank(engine):
    db = Database(SystemConfig(log_page_size=2048), engine=engine)
    accounts = db.create_relation(
        "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
    )
    with db.transaction() as txn:
        for i in range(4):
            accounts.insert(txn, {"id": i, "balance": 100})
    return db, accounts


@pytest.fixture()
def bank():
    return make_bank(SimEngine())


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


class TestBasicScheduling:
    def test_single_script_commits(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db)
        scheduler.submit(transfer(db, accounts, 0, 1, 30))
        results = scheduler.run()
        assert results[0].committed
        assert results[0].attempts == 1
        with db.transaction() as txn:
            assert accounts.lookup(txn, 0)["balance"] == 70
            assert accounts.lookup(txn, 1)["balance"] == 130

    def test_disjoint_scripts_interleave_without_conflict(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db)
        scheduler.submit(transfer(db, accounts, 0, 1, 10), name="a")
        scheduler.submit(transfer(db, accounts, 2, 3, 20), name="b")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert scheduler.conflicts == 0
        with db.transaction() as txn:
            balances = {r["id"]: r["balance"] for r in accounts.scan(txn)}
        assert balances == {0: 90, 1: 110, 2: 80, 3: 120}

    def test_results_in_submission_order(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db)
        scheduler.submit(transfer(db, accounts, 0, 1, 1), name="first")
        scheduler.submit(transfer(db, accounts, 2, 3, 1), name="second")
        results = scheduler.run()
        assert [r.name for r in results] == ["first", "second"]


class TestConflicts:
    def test_conflicting_scripts_both_commit_via_retry(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db)
        # both move money out of account 0: guaranteed lock conflict
        scheduler.submit(transfer(db, accounts, 0, 1, 10), name="a")
        scheduler.submit(transfer(db, accounts, 0, 2, 10), name="b")
        results = scheduler.run()
        assert all(r.committed for r in results)
        assert scheduler.conflicts >= 1
        assert any(r.attempts > 1 for r in results)
        with db.transaction() as txn:
            balances = {r["id"]: r["balance"] for r in accounts.scan(txn)}
        # no lost update: both debits applied
        assert balances[0] == 80
        assert balances[1] == 110
        assert balances[2] == 110

    def test_money_conserved_under_heavy_contention(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db, max_attempts=50)
        for k in range(8):
            scheduler.submit(
                transfer(db, accounts, k % 4, (k + 1) % 4, 5), name=f"t{k}"
            )
        results = scheduler.run()
        assert all(r.committed for r in results)
        with db.transaction() as txn:
            total = sum(r["balance"] for r in accounts.scan(txn))
        assert total == 400

    def test_retry_uses_fresh_transaction_ids(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db)
        scheduler.submit(transfer(db, accounts, 0, 1, 10), name="a")
        scheduler.submit(transfer(db, accounts, 0, 2, 10), name="b")
        results = scheduler.run()
        retried = next(r for r in results if r.attempts > 1)
        assert len(set(retried.txn_ids)) == retried.attempts

    def test_retry_budget_exhaustion_reported(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db, max_attempts=1)
        scheduler.submit(transfer(db, accounts, 0, 1, 10), name="a")
        scheduler.submit(transfer(db, accounts, 0, 2, 10), name="b")
        results = scheduler.run()
        committed = [r for r in results if r.committed]
        failed = [r for r in results if not r.committed]
        assert len(committed) >= 1
        # with a budget of one attempt, the loser cannot come back
        if failed:
            assert failed[0].attempts == 1
        # consistency regardless: the failed script left no trace
        with db.transaction() as txn:
            total = sum(r["balance"] for r in accounts.scan(txn))
        assert total == 400

    def test_script_exception_propagates_and_aborts(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db)

        def broken(txn):
            accounts.update(
                txn, db.table("accounts").lookup(txn, 0).address, {"balance": 0}
            )
            yield
            raise RuntimeError("script bug")

        scheduler.submit(broken)
        with pytest.raises(RuntimeError):
            scheduler.run()
        with db.transaction() as txn:
            assert accounts.lookup(txn, 0)["balance"] == 100  # rolled back

    def test_invalid_retry_budget_rejected(self, bank):
        db, _ = bank
        with pytest.raises(SchedulerError):
            Scheduler(db, max_attempts=0)


@pytest.mark.parametrize(
    "engine", [SimEngine, lambda: ThreadedEngine(workers=2)], ids=["cooperative", "pool"]
)
class TestOneOutcomeRule:
    """Both drivers end a script through the same ``finish``: what a run
    leaves behind, how results are keyed and what the counters say do
    not depend on which one ran."""

    def test_a_run_that_raises_consumes_its_batch(self, engine):
        db, accounts = make_bank(engine())
        scheduler = Scheduler(db)

        def broken(txn):
            yield
            raise ValueError("script bug")

        scheduler.submit(broken)
        with pytest.raises(ValueError):
            scheduler.run()
        scheduler.submit(transfer(db, accounts, 0, 1, 30), name="after")
        results = scheduler.run()
        assert [(r.name, r.committed) for r in results] == [("after", True)]
        with db.transaction() as txn:
            assert accounts.lookup(txn, 1)["balance"] == 130
        db.close()

    def test_results_are_per_submission_not_per_name(self, engine):
        db, accounts = make_bank(engine())
        scheduler = Scheduler(db)
        began = ([], [])

        def recording(k, src, dst):
            body = transfer(db, accounts, src, dst, 10)

            def script(txn):
                began[k].append(txn.txn_id)
                yield from body(txn)

            return script

        scheduler.submit(recording(0, 0, 1), name="x")
        scheduler.submit(recording(1, 2, 3), name="x")
        first, second = scheduler.run()
        assert first is not second
        assert (first.name, first.committed, first.txn_ids) == ("x", True, began[0])
        assert (second.name, second.committed, second.txn_ids) == ("x", True, began[1])
        assert began[0] and began[1] and set(began[0]).isdisjoint(began[1])
        db.close()

    def test_exhausted_budget_counters_agree(self, engine):
        db, accounts = make_bank(engine())
        blocker = db.transactions.begin()
        row = accounts.lookup(blocker, 0)
        accounts.update(blocker, row.address, {"balance": 0})  # X-locked throughout
        scheduler = Scheduler(db, max_attempts=3)
        scheduler.submit(transfer(db, accounts, 0, 1, 10))
        (result,) = scheduler.run()
        blocker.abort()
        stats = scheduler.stats()
        assert not result.committed
        assert result.attempts == 3
        assert stats["conflicts"] == 3
        assert sum(w["conflicts"] for w in stats["per_worker"]) == 3
        assert (stats["failed"], stats["retries"], stats["committed"]) == (1, 2, 0)
        assert stats["max_attempts_seen"] == 3
        assert db.stats()["scheduler"] == stats
        assert set(stats) == {
            "workers", "runs", "committed", "failed", "conflicts", "retries",
            "max_attempts_seen", "per_worker",
        }
        assert all(
            set(w) == {"worker", "scripts", "committed", "conflicts", "busy_seconds",
                       "utilisation"}
            for w in stats["per_worker"]
        )
        db.close()


class TestAuditIntegration:
    def test_scripts_appear_in_audit_trail(self, bank):
        db, accounts = bank
        scheduler = Scheduler(db)
        scheduler.submit(transfer(db, accounts, 0, 1, 5), name="audited")
        scheduler.run()
        user_data = [e.user_data for e in db.audit.trail() if e.user_data]
        assert "script:audited" in user_data


class TestCrashIsNotAnAbort:
    """A ``SimulatedCrash`` inside a script body freezes the machine under
    every driver alike: no abort machinery runs, nothing is written to
    stable memory after the crash, and restart discards the chain."""

    #: The engine that puts each driver under the script (``None``: the
    #: environment's, whichever it is — a scope has no driver).
    ENGINES = {
        "scope": lambda: None,
        "interleaved": SimEngine,
        "concurrent": lambda: ThreadedEngine(workers=2),
    }

    @staticmethod
    def crowded_bank(engine):
        """Accounts plus unpumped commits until the SLB has no block left,
        so the next REDO append reaches the recovery CPU's sort through
        back-pressure."""
        db = Database(SystemConfig(slb_capacity=112 * 1024), engine=engine)
        accounts = db.create_relation(
            "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
        )
        key = 0
        while db.slb_memory.free_bytes >= db.config.log_block_size:
            with db.transaction(pump=False) as txn:
                accounts.insert(txn, {"id": key, "balance": 100})
            key += 1
        return db, accounts, key

    @pytest.mark.parametrize("driver", ["scope", "interleaved", "concurrent"])
    def test_crash_in_body_leaves_the_transaction_untouched(self, driver):
        db, accounts, key = self.crowded_bank(self.ENGINES[driver]())
        seen = []

        def body(txn):
            seen.append((txn, db.audit.entries_written, db.slb.aborts))
            accounts.insert(txn, {"id": key, "balance": 1})

        def script(txn):
            body(txn)
            yield

        plan = ChaosPlan.crash_at(7, "recovery.sort.after-deposit")
        with chaos(ChaosEngine(plan)), pytest.raises(SimulatedCrash):
            if driver == "scope":
                with db.transaction() as txn:
                    body(txn)
            else:
                scheduler = Scheduler(db)
                scheduler.submit(script)
                scheduler.run()
        (txn, audit_before, aborts_before), = seen
        assert txn.state is TxnState.ACTIVE
        assert db.slb.aborts == aborts_before
        assert txn.txn_id in db.slb.uncommitted_txn_ids
        assert db.audit.entries_written == audit_before
        assert [e.event for e in db.audit.entries_for(txn.txn_id)] == ["begin"]
        db.crash()
        db.restart()
        assert txn.txn_id not in db.slb.uncommitted_txn_ids
        with db.transaction() as check:
            assert accounts.lookup(check, key) is None
            assert accounts.count(check) == key
        db.close()
