"""Tests for the execution-engine layer (``repro.engine``)."""
import threading

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common.config import (
    CONDENSE_ENV_VAR,
    ENGINE_ENV_VAR,
    LOGGING_MODE_ENV_VAR,
    WORKERS_ENV_VAR,
    env_settings,
)
from repro.common.errors import ConfigurationError
from repro.engine import (
    ExecutionEngine,
    SimEngine,
    ThreadedEngine,
    engine_from_env,
    run_pool,
)
from repro.engine.threaded import _RecoveryThread
from repro.sim.faults import SimulatedCrash


def small_config(**overrides):
    defaults = dict(
        partition_size=8 * 1024, log_page_size=1024, update_count_threshold=50
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def loaded_db(engine=None, rows=60):
    db = Database(small_config(), engine=engine)
    rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
    with db.transaction() as txn:
        for i in range(rows):
            rel.insert(txn, {"id": i, "v": i * 10})
    return db


class TestEngineSelection:
    def test_default_is_sim(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert isinstance(engine_from_env(), SimEngine)
        db = Database(small_config())
        assert db.engine.name == "sim"
        db.close()

    def test_env_selects_threaded_with_workers(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "threaded")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        engine = engine_from_env()
        assert isinstance(engine, ThreadedEngine)
        assert engine.workers == 3
        engine.shutdown()

    def test_env_rejects_unknown_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "quantum")
        with pytest.raises(ConfigurationError, match="quantum"):
            engine_from_env()

    def test_explicit_engine_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "threaded")
        db = Database(small_config(), engine=SimEngine())
        assert db.engine.name == "sim"
        db.close()

    def test_threaded_engine_needs_a_worker(self):
        with pytest.raises(ValueError):
            ThreadedEngine(workers=0)

    def test_engine_cannot_be_shared_between_databases(self):
        engine = SimEngine()
        db = Database(small_config(), engine=engine)
        with pytest.raises(RuntimeError):
            Database(small_config(), engine=engine)
        db.close()

    def test_stats_and_snapshot_name_the_engine(self):
        db = loaded_db(engine=SimEngine())
        assert db.stats()["engine"] == "sim"
        db.close()
        db = loaded_db(engine=ThreadedEngine(workers=2))
        assert db.stats()["engine"] == "threaded"
        db.close()

    def test_unattached_engine_refuses_duties(self):
        engine = SimEngine()
        with pytest.raises(RuntimeError):
            engine.pump()


class TestEnvSettings:
    """One parser for the four ``REPRO_*`` variables: bad values fail at
    once, naming the variable and what it accepts."""

    @pytest.mark.parametrize(
        "variable,value,accepted",
        [
            (ENGINE_ENV_VAR, "quantum", "sim, threaded"),
            (WORKERS_ENV_VAR, "abc", "positive integer"),
            (WORKERS_ENV_VAR, "0", "positive integer"),
            (LOGGING_MODE_ENV_VAR, "bogus", "value, command"),
            (CONDENSE_ENV_VAR, "maybe", "1, true, yes, on, 0, false, no, off"),
        ],
    )
    def test_bad_value_names_variable_and_accepted(
        self, monkeypatch, variable, value, accepted
    ):
        monkeypatch.setenv(variable, value)
        with pytest.raises(ConfigurationError) as raised:
            env_settings()
        assert variable in str(raised.value)
        assert value in str(raised.value)
        assert accepted in str(raised.value)

    def test_bad_logging_mode_fails_before_post_init(self, monkeypatch):
        monkeypatch.setenv(LOGGING_MODE_ENV_VAR, "bogus")
        with pytest.raises(ConfigurationError, match=LOGGING_MODE_ENV_VAR):
            SystemConfig()
        # Explicit values never consult the environment.
        config = SystemConfig(logging_mode="command", condense_enabled=False)
        assert config.logging_mode == "command"

    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("true", True), ("YES", True), ("on", True),
         ("", False), ("0", False), ("false", False), ("No", False), ("off", False)],
    )
    def test_condense_uses_the_one_boolean_rule(self, monkeypatch, value, expected):
        monkeypatch.setenv(CONDENSE_ENV_VAR, value)
        assert env_settings().condense is expected
        assert SystemConfig().condense_enabled is expected

    def test_defaults_when_unset(self, monkeypatch):
        for variable in (
            ENGINE_ENV_VAR, WORKERS_ENV_VAR, LOGGING_MODE_ENV_VAR, CONDENSE_ENV_VAR
        ):
            monkeypatch.delenv(variable, raising=False)
        assert env_settings() == ("sim", 4, "value", False)


class TestRunPool:
    """The one worker pool behind every fan-out."""

    def test_results_in_input_order_on_named_threads(self):
        seen_threads = set()
        gate = threading.Barrier(3, timeout=10)

        def work(item):
            seen_threads.add(threading.current_thread().name)
            if item < 3:
                gate.wait()  # three workers are genuinely running at once
            return item * 2

        assert run_pool(work, range(30), workers=3, name="pool-test") == [
            i * 2 for i in range(30)
        ]
        assert seen_threads == {"pool-test-0", "pool-test-1", "pool-test-2"}

    @pytest.mark.parametrize("workers,items", [(1, [3, 1, 2]), (4, [7])])
    def test_one_worker_or_one_item_runs_inline_on_the_caller(self, workers, items):
        caller = threading.current_thread().name
        seen = []
        run_pool(
            lambda item: seen.append((item, threading.current_thread().name)),
            items,
            workers=workers,
            name="pool-test",
        )
        assert seen == [(item, caller) for item in items]

    def test_stop_on_error_stops_claiming_and_reraises_the_first_error(self):
        ran = []
        both_in_flight = threading.Barrier(2, timeout=10)
        failing = []

        def work(item):
            ran.append(item)
            if item == 0:
                failing.append(threading.current_thread())
                both_in_flight.wait()
                raise RuntimeError("first")
            # item 1 is in flight while item 0 fails, and still finishes
            both_in_flight.wait()
            failing[0].join(10)
            return item

        with pytest.raises(RuntimeError, match="first"):
            run_pool(work, range(50), workers=2, name="pool-test")
        assert sorted(ran) == [0, 1]

    def test_without_stop_on_error_every_job_runs_then_reraises(self):
        ran = []

        def work(item):
            ran.append(item)
            if item == 0:
                raise RuntimeError("first")
            return item

        with pytest.raises(RuntimeError, match="first"):
            run_pool(work, range(20), workers=2, name="pool-test", stop_on_error=False)
        assert sorted(ran) == list(range(20))

    def test_simulated_crash_crosses_the_pool(self):
        def work(item):
            if item == 2:
                raise SimulatedCrash("injected")
            return item

        with pytest.raises(SimulatedCrash, match="injected"):
            run_pool(work, range(8), workers=4, name="pool-test")

    def test_empty_input(self):
        assert run_pool(lambda item: item, [], workers=4, name="pool-test") == []


class TestDutyOrder:
    """The between-transactions sequence is declared once; an engine only
    chooses the thread each duty runs on."""

    def pumped_duties(self, engine):
        db = loaded_db(engine=engine)
        calls = []

        def recording(owner, duty):
            real = getattr(owner, duty)

            def wrapper():
                calls.append((duty, threading.current_thread().name))
                return real()

            setattr(owner, duty, wrapper)

        for duty in ("run_until_drained", "acknowledge_finished"):
            recording(db.recovery_processor, duty)
        recording(db.checkpoints, "process_pending")
        recording(db, "background_restore")
        recording(db.condenser, "step")
        db.pump()
        db.close()
        return calls

    def test_both_engines_run_the_same_sequence(self):
        caller = threading.current_thread().name
        sim = self.pumped_duties(SimEngine())
        threaded = self.pumped_duties(ThreadedEngine(workers=2))
        assert [duty for duty, _ in sim] == [
            "run_until_drained",
            "acknowledge_finished",
            "process_pending",
            "acknowledge_finished",
            "background_restore",
            "step",
        ]
        assert [duty for duty, _ in threaded] == [duty for duty, _ in sim]
        assert {thread for _, thread in sim} == {caller}
        for duty, thread in threaded:
            on_main_cpu = duty in ("process_pending", "background_restore")
            assert thread == (caller if on_main_cpu else "repro-recovery-cpu"), duty


class TestThreadedMatchesSim:
    def test_metered_totals_identical(self):
        """Duty order is preserved, so every metered figure matches the
        cooperative engine bit for bit."""
        snaps = {}
        for engine in (SimEngine(), ThreadedEngine(workers=4)):
            db = loaded_db(engine=engine)
            db.pump()
            snap = db.stats()
            snaps[engine.name] = snap
            db.close()
        sim, threaded = snaps["sim"], snaps["threaded"]
        assert sim.pop("engine") == "sim"
        assert threaded.pop("engine") == "threaded"
        assert sim == threaded

    def test_crash_restart_round_trip(self):
        db = loaded_db(engine=ThreadedEngine(workers=4), rows=200)
        db.crash()
        db.restart()
        with db.transaction() as txn:
            assert db.table("items").lookup(txn, 150)["v"] == 1500
        db.close()

    def test_recovery_thread_runs_duties_off_caller_thread(self):
        db = loaded_db(engine=ThreadedEngine(workers=2))
        seen = []
        db.engine._recovery.run_job(lambda: seen.append(threading.current_thread().name))
        assert seen == ["repro-recovery-cpu"]
        db.close()


class TestParallelRestore:
    def restore_all(self, workers):
        db = loaded_db(engine=ThreadedEngine(workers=workers), rows=400)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = coordinator.drain_queue()
        assert len(addresses) > 1
        restored = db.engine.restore_partitions(addresses)
        assert restored == len(addresses)
        assert coordinator.fully_recovered
        with db.transaction() as txn:
            for i in (0, 199, 399):
                assert db.table("items").lookup(txn, i)["v"] == i * 10
        db.close()
        return restored, coordinator.pages_read, coordinator.records_replayed

    def test_pool_restores_everything(self):
        self.restore_all(workers=4)

    def test_single_worker_pool_restores_everything(self):
        # the pool size decides who does the work, never how much of it
        assert self.restore_all(workers=1) == self.restore_all(workers=4)

    def test_worker_failure_requeues_and_propagates(self):
        db = loaded_db(engine=ThreadedEngine(workers=4), rows=400)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = coordinator.drain_queue()
        boom = addresses[len(addresses) // 2]
        real = coordinator.recover_partition

        def failing(address):
            if address == boom:
                raise RuntimeError("injected restore failure")
            return real(address)

        coordinator.recover_partition = failing
        with pytest.raises(RuntimeError, match="injected restore failure"):
            db.engine.restore_partitions(addresses)
        coordinator.recover_partition = real
        # The failed address (and anything unprocessed) went back on the
        # queue; a second sweep finishes the job.
        pending = coordinator.drain_queue()
        assert boom in pending
        db.engine.restore_partitions(pending)
        assert coordinator.fully_recovered
        db.close()

    def test_duplicate_addresses_recovered_once(self):
        db = loaded_db(engine=ThreadedEngine(workers=4), rows=400)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = coordinator.drain_queue()
        doubled = addresses + addresses
        restored = db.engine.restore_partitions(doubled)
        assert restored == len(addresses)
        assert coordinator.fully_recovered
        db.close()


class TestRestoreMap:
    """The media-recovery fan-out seam: results in input order, first
    error propagated, sequential degenerate cases."""

    def test_threaded_pool_preserves_input_order(self):
        engine = ThreadedEngine(workers=4)
        try:
            items = list(range(50))
            seen_threads = set()
            gate = threading.Barrier(2, timeout=10)

            def work(item):
                seen_threads.add(threading.current_thread().name)
                if item < 2:
                    gate.wait()  # prove two workers run concurrently
                return item * 2

            assert engine.restore_map(work, items) == [i * 2 for i in items]
            assert len(seen_threads) > 1  # the pool actually fanned out
        finally:
            engine.shutdown()

    def test_single_worker_runs_on_caller(self):
        engine = ThreadedEngine(workers=1)
        try:
            caller = threading.current_thread().name
            threads = []
            engine.restore_map(lambda i: threads.append(threading.current_thread().name), [1, 2, 3])
            assert threads == [caller] * 3
        finally:
            engine.shutdown()

    def test_sim_engine_is_sequential_in_order(self):
        engine = SimEngine()
        order = []
        engine.restore_map(order.append, [3, 1, 2])
        assert order == [3, 1, 2]

    def test_first_error_propagates(self):
        engine = ThreadedEngine(workers=4)
        try:
            def work(item):
                if item == 7:
                    raise RuntimeError("injected fan-out failure")
                return item

            with pytest.raises(RuntimeError, match="injected fan-out failure"):
                engine.restore_map(work, list(range(20)))
        finally:
            engine.shutdown()

    def test_empty_items(self):
        engine = ThreadedEngine(workers=4)
        try:
            assert engine.restore_map(lambda i: i, []) == []
        finally:
            engine.shutdown()


class TestRecoveryThreadFerry:
    def test_exception_reraised_on_submitter(self):
        thread = _RecoveryThread("test-ferry")
        try:
            with pytest.raises(KeyError, match="ferried"):
                thread.run_job(lambda: (_ for _ in ()).throw(KeyError("ferried")))
            # The thread survives a failed job.
            assert thread.run_job(lambda: 7) == 7
        finally:
            thread.stop()

    def test_stop_is_idempotent_and_restartable(self):
        thread = _RecoveryThread("test-stop")
        assert thread.run_job(lambda: 1) == 1
        thread.stop()
        thread.stop()
        assert thread.run_job(lambda: 2) == 2
        thread.stop()


class TestLifecycle:
    def test_close_is_idempotent_and_context_managed(self):
        with Database(small_config(), engine=ThreadedEngine(workers=2)) as db:
            db.pump()
        db.close()
        db.close()

    def test_shutdown_stops_recovery_thread(self):
        db = loaded_db(engine=ThreadedEngine(workers=2))
        db.pump()
        worker = db.engine._recovery._thread
        assert worker is not None and worker.is_alive()
        db.close()
        assert not worker.is_alive()
