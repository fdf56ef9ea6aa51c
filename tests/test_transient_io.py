"""Transient-I/O retry on the duplex log/checkpoint paths.

The escalation boundary is the contract under test: a fault burst within
the :class:`~repro.sim.faults.RetryPolicy` budget is absorbed invisibly
(commits succeed, recovery is digest-exact, zero escalations), while one
fault past the budget becomes a hard
:class:`~repro.common.errors.MediaFailure` — fatal on the log side (the
log is the last copy), survivable on the checkpoint side (full-history
replay rebuilds without the image).  Because the retry loop re-runs the
*same* operation, a probability-1.0 fault rule with ``max_fires = N``
lands all N fires on one operation's consecutive attempts: ``N <= 4``
stays under the default budget, ``N = 5`` escalates on attempt five.
"""

from __future__ import annotations

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common.counters import Counters
from repro.common.errors import ConfigurationError, MediaFailure
from repro.db.monitor import status_page
from repro.engine import SimEngine, ThreadedEngine
from repro.recovery.oracle import RecoveryVerifier
from repro.sim.chaos import FAULT, ChaosEngine, ChaosPlan, ChaosRule, chaos
from repro.sim.faults import IO_COUNTERS, RetryPolicy, TransientIOError, run_with_retry
from repro.workloads.debit_credit import DebitCreditWorkload

ENGINES = [
    pytest.param(lambda: SimEngine(), id="sim"),
    pytest.param(lambda: ThreadedEngine(workers=4), id="threaded"),
]

#: The default retry budget: bursts of this length are absorbed, one
#: fault more escalates.
BUDGET = RetryPolicy().budget


def _config():
    return SystemConfig(
        log_page_size=512,
        update_count_threshold=16,
        log_window_pages=64,
        log_window_grace_pages=8,
    )


def _bank(db):
    workload = DebitCreditWorkload(
        db, branches=2, tellers_per_branch=2, accounts_per_branch=25, seed=17
    )
    workload.load()
    return workload


def fault_rule(point, fires):
    return ChaosRule(point, FAULT, probability=1.0, max_fires=fires)


class TestRetryPolicy:
    def test_backoff_is_exponential_then_capped(self):
        policy = RetryPolicy(budget=6, backoff_base=0.0002, backoff_cap=0.002)
        assert policy.backoff_seconds(1) == 0.0002
        assert policy.backoff_seconds(2) == 0.0004
        assert policy.backoff_seconds(3) == 0.0008
        assert policy.backoff_seconds(10) == 0.002

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            RetryPolicy(budget=-1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base=-0.1)


def io_counters():
    return Counters(*IO_COUNTERS)


class TestRunWithRetry:
    def _flaky(self, failures, result="ok"):
        remaining = [failures]

        def operation():
            if remaining[0] > 0:
                remaining[0] -= 1
                raise TransientIOError("hiccup")
            return result

        return operation

    def test_clean_operation_counts_nothing(self):
        stats = io_counters()
        policy = RetryPolicy(backoff_base=0.0)
        assert run_with_retry(self._flaky(0), policy, stats, "write", "op") == "ok"
        assert stats.snapshot() == dict.fromkeys(IO_COUNTERS, 0)

    def test_burst_within_budget_is_absorbed(self):
        stats = io_counters()
        policy = RetryPolicy(budget=4, backoff_base=0.0)
        assert run_with_retry(self._flaky(4), policy, stats, "write", "op") == "ok"
        snap = stats.snapshot()
        assert snap["write_faults"] == 4
        assert snap["write_retries"] == 4
        assert snap["write_escalations"] == 0

    def test_fault_past_budget_escalates(self):
        stats = io_counters()
        policy = RetryPolicy(budget=4, backoff_base=0.0)
        with pytest.raises(MediaFailure, match="retry budget"):
            run_with_retry(self._flaky(5), policy, stats, "read", "op")
        snap = stats.snapshot()
        assert snap["read_faults"] == 5
        assert snap["read_retries"] == 4
        assert snap["read_escalations"] == 1

    def test_other_exceptions_pass_through(self):
        stats = io_counters()

        def broken():
            raise RuntimeError("not transient")

        with pytest.raises(RuntimeError):
            run_with_retry(broken, RetryPolicy(), stats, "read", "op")
        assert stats.snapshot() == dict.fromkeys(IO_COUNTERS, 0)

    def test_zero_budget_escalates_first_fault(self):
        stats = io_counters()
        policy = RetryPolicy(budget=0, backoff_base=0.0)
        with pytest.raises(MediaFailure):
            run_with_retry(self._flaky(1), policy, stats, "write", "op")
        assert stats.snapshot()["write_retries"] == 0


class TestConfigWiring:
    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(io_retry_budget=-1)

    def test_budget_reaches_both_duplex_layers(self):
        db = Database(SystemConfig(io_retry_budget=2))
        try:
            assert db.log_disk.retry_policy.budget == 2
            assert db.checkpoint_disk.retry_policy.budget == 2
        finally:
            db.close()


@pytest.mark.parametrize("make_engine", ENGINES)
class TestUnderBudgetBursts:
    def test_bursts_on_all_four_points_are_invisible(self, make_engine):
        """Max-length bursts on every duplex operation: commits succeed,
        restart recovers digest-exact, and nothing escalates."""
        db = Database(_config(), engine=make_engine())
        try:
            workload = _bank(db)
            verifier = RecoveryVerifier(db)
            plan = ChaosPlan(
                101,
                (
                    fault_rule("log-disk.write", BUDGET),
                    fault_rule("checkpoint.image.write", BUDGET),
                    fault_rule("log-disk.read", BUDGET),
                    fault_rule("checkpoint.image.read", BUDGET),
                ),
            )
            injector = ChaosEngine(plan)
            with chaos(injector):
                workload.run(60)
                committed = db.slb.commits
                db.crash()
                db.restart(RecoveryMode.EAGER)
                db.restart_coordinator.recover_everything()
            verifier.detach()
            verifier.verify()
            assert db.slb.commits == committed
            assert db.checkpoints.checkpoints_taken > 0

            stats = db.stats()["transient_io"]
            observed = sum(
                side[f"{kind}_faults"]
                for side in stats.values()
                for kind in ("read", "write")
            )
            # The write rules always exhaust; read rules need restart to
            # touch their path, which eager recovery guarantees at least
            # once.  Every injected fault was counted, none escalated.
            assert observed == injector.faults_fired
            assert stats["log"]["write_faults"] == BUDGET
            assert all(
                side[f"{kind}_escalations"] == 0
                for side in stats.values()
                for kind in ("read", "write")
            )
        finally:
            db.close()


@pytest.mark.parametrize("make_engine", ENGINES)
class TestEscalationBoundary:
    def test_log_write_escalation_is_fatal(self, make_engine):
        """One fault past the budget on the duplexed log write: the log
        is the last copy, so MediaFailure reaches the caller."""
        db = Database(_config(), engine=make_engine())
        try:
            workload = _bank(db)
            plan = ChaosPlan(202, (fault_rule("log-disk.write", BUDGET + 1),))
            with chaos(ChaosEngine(plan)):
                with pytest.raises(MediaFailure, match="retry budget"):
                    workload.run(60)
            assert db.stats()["transient_io"]["log"]["write_escalations"] == 1
        finally:
            db.close()

    def test_checkpoint_read_escalation_falls_back_to_history(self, make_engine):
        """A checkpoint image lost past the retry budget during eager
        restart is survivable: full-history replay rebuilds the partition
        and recovery stays digest-exact."""
        db = Database(_config(), engine=make_engine())
        try:
            workload = _bank(db)
            verifier = RecoveryVerifier(db)
            workload.run(60)
            assert db.checkpoints.checkpoints_taken > 0
            committed = db.slb.commits
            db.crash()
            plan = ChaosPlan(303, (fault_rule("checkpoint.image.read", BUDGET + 1),))
            with chaos(ChaosEngine(plan)):
                db.restart(RecoveryMode.EAGER)
                db.restart_coordinator.recover_everything()
            verifier.detach()
            verifier.verify()
            assert db.slb.commits == committed
            stats = db.stats()["transient_io"]["checkpoint"]
            assert stats["read_escalations"] == 1
            assert stats["read_faults"] == BUDGET + 1
        finally:
            db.close()

    def test_monitor_surfaces_the_counters(self, make_engine):
        db = Database(_config(), engine=make_engine())
        try:
            workload = _bank(db)
            plan = ChaosPlan(404, (fault_rule("log-disk.write", 2),))
            with chaos(ChaosEngine(plan)):
                workload.run(40)
            snap = db.stats()
            assert snap["transient_io"]["log"]["write_faults"] == 2
            assert snap["transient_io"]["log"]["write_escalations"] == 0
            assert "transient I/O    2 faults" in status_page(snap)
        finally:
            db.close()
