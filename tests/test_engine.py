"""Tests for the engine (``repro.engine``), the absence of environment
settings and the phase-2 bulk restore."""
import pytest

import repro
from repro import Database, RecoveryMode, SystemConfig
from repro.common.types import PartitionAddress
from repro.engine import SimEngine
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos


def small_config(**overrides):
    defaults = dict(
        partition_size=8 * 1024, log_page_size=1024, update_count_threshold=50
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def loaded_db(rows=60):
    db = Database(small_config())
    rel = db.create_relation("items", [("id", "int"), ("v", "int")], primary_key="id")
    with db.transaction() as txn:
        for i in range(rows):
            rel.insert(txn, {"id": i, "v": i * 10})
    return db


class TestEngineSelection:
    def test_default_is_sim(self):
        assert isinstance(Database(small_config()).engine, SimEngine)

    def test_engine_cannot_be_shared_between_databases(self):
        engine = SimEngine()
        Database(small_config(), engine=engine)
        with pytest.raises(RuntimeError):
            Database(small_config(), engine=engine)

    def test_unattached_engine_refuses_duties(self):
        engine = SimEngine()
        with pytest.raises(RuntimeError):
            engine.pump()


class TestNoEnvironmentInput:
    def test_former_variables_are_ignored(self, monkeypatch):
        """SystemConfig is the only configuration: the variables earlier
        versions read (``<PACKAGE>_LOGGING_MODE``, ``<PACKAGE>_CONDENSE``)
        change nothing."""
        prefix = repro.__name__.upper()
        monkeypatch.setenv(f"{prefix}_LOGGING_MODE", "command")
        monkeypatch.setenv(f"{prefix}_CONDENSE", "1")
        assert SystemConfig() == SystemConfig(logging_mode="value")
        assert Database().stats()["logging"]["mode"] == "value"


class TestDutyOrder:
    """The between-transactions sequence is declared once, in the paper's
    order, and runs on the caller."""

    def test_pump_runs_the_duty_sequence(self):
        db = loaded_db()
        calls = []

        def recording(owner, duty):
            real = getattr(owner, duty)

            def wrapper():
                calls.append(duty)
                return real()

            setattr(owner, duty, wrapper)

        for duty in ("run_until_drained", "acknowledge_finished"):
            recording(db.recovery_processor, duty)
        recording(db.checkpoints, "process_pending")
        recording(db, "background_restore")
        db.pump()
        assert calls == [
            "run_until_drained",  # acknowledges a finished checkpoint first
            "process_pending",
            "acknowledge_finished",
            "background_restore",
        ]


class TestBulkRestore:
    """``RestartCoordinator.recover``: phase 2's one restore loop, in order."""

    def drained(self):
        db = loaded_db(rows=400)
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        coordinator = db.restart_coordinator
        addresses = [
            PartitionAddress(segment.segment_id, number)
            for segment in db.memory.segments()
            for number in segment.missing_partitions()
        ]
        assert len(addresses) > 1
        return db, coordinator, addresses

    def test_restores_everything(self):
        db, coordinator, addresses = self.drained()
        assert coordinator.recover(addresses) == len(addresses)
        assert coordinator.fully_recovered
        with db.transaction() as txn:
            for i in (0, 199, 399):
                assert db.table("items").lookup(txn, i)["v"] == i * 10

    def test_failure_leaves_the_rest_missing_and_propagates(self):
        db, coordinator, addresses = self.drained()
        boom = addresses[len(addresses) // 2]
        real = coordinator.recover_partition

        def failing(address, *trigger):
            if address == boom:
                raise RuntimeError("injected restore failure")
            return real(address, *trigger)

        coordinator.recover_partition = failing
        with pytest.raises(RuntimeError, match="injected restore failure"):
            coordinator.recover(addresses)
        coordinator.recover_partition = real
        # Nothing was claimed: the failed address and everything after it
        # are still missing, and a second sweep finishes the job.
        left = len(addresses) - addresses.index(boom)
        assert coordinator.pending_partitions() == left
        assert coordinator.recover_everything() == left
        assert coordinator.fully_recovered

    def test_duplicate_addresses_recovered_once(self):
        _, coordinator, addresses = self.drained()
        assert coordinator.recover(addresses + addresses) == len(addresses)
        assert coordinator.fully_recovered

    def test_bulk_path_visits_only_missing_partitions(self):
        """After an on-demand transaction restored some partitions, a bulk
        restore passes its crash point once per partition still missing."""
        db = loaded_db(rows=400)
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        total = coordinator.pending_partitions()
        with db.transaction(pump=False) as txn:
            assert db.table("items").lookup(txn, 7)["v"] == 70
        pending = coordinator.pending_partitions()
        assert 0 < pending < total
        injector = ChaosEngine(ChaosPlan(0, ()))
        with chaos(injector):
            assert coordinator.recover_everything() == pending
        assert injector.hits()["engine.restore.before-partition"] == pending
        assert coordinator.fully_recovered

    def test_sweep_stops_looking_once_everything_is_resident(self):
        db = loaded_db(rows=400)
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        coordinator.recover_everything()
        assert coordinator.background_step() is None

        def scan():
            raise AssertionError("a finished sweep scanned the segments")

        db.memory.segments = scan
        assert coordinator.background_step() is None


class TestLifecycle:
    def test_close_is_idempotent_and_context_managed(self):
        with Database(small_config()) as db:
            db.pump()
        db.close()
        db.close()
