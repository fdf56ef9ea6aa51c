"""The seeded multi-action chaos engine (plans, rules, dispatch).

Covers rule/plan validation, deterministic crash placement, seeded
probabilistic reproducibility, thread-name filters, fire latching, the
transient-fault action, the latency injector for the realtime bridges,
atomic activate/deactivate publication under thread pressure, and the
lock-audit-clean regression for the hook path under the threaded engine.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database, SystemConfig
from repro.concurrency import audit
from repro.concurrency.audit import LockOrderRecorder
from repro.engine import ThreadedEngine
import importlib

chaos_module = importlib.import_module("repro.sim.chaos")

from repro.sim.chaos import (
    CRASH,
    FAULT,
    LATENCY,
    ChaosEngine,
    ChaosPlan,
    ChaosRule,
    activate,
    chaos,
    crash_point,
    deactivate,
    fault_point,
    install_latency,
    remove_latency,
    set_crash_point_observer,
)
from repro.sim.faults import SimulatedCrash, TransientIOError
from repro.txn.scheduler import Scheduler

POINT = "txn.commit.after-slb"
FAULT_POINT = "log-disk.write"

#: Jitter small enough that latency fires cost microseconds of host time.
TINY = (0.0, 0.00001)


def latency_rule(point=POINT, **kwargs):
    kwargs.setdefault("latency_range", TINY)
    kwargs.setdefault("max_fires", None)
    return ChaosRule(point, LATENCY, **kwargs)


class TestRuleValidation:
    def test_unknown_action(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosRule(POINT, "explode")

    @pytest.mark.parametrize("probability", [-0.1, 1.1])
    def test_probability_range(self, probability):
        with pytest.raises(ValueError, match="probability"):
            ChaosRule(POINT, CRASH, probability=probability)

    def test_negative_after_visits(self):
        with pytest.raises(ValueError, match="after_visits"):
            ChaosRule(POINT, CRASH, after_visits=-1)

    def test_zero_max_fires(self):
        with pytest.raises(ValueError, match="max_fires"):
            ChaosRule(POINT, CRASH, max_fires=0)

    @pytest.mark.parametrize("latency_range", [(-0.001, 0.001), (0.002, 0.001)])
    def test_bad_latency_range(self, latency_range):
        with pytest.raises(ValueError, match="latency_range"):
            ChaosRule(POINT, LATENCY, latency_range=latency_range)

    def test_describe_mentions_filters(self):
        rule = ChaosRule(
            POINT, CRASH, probability=0.5, after_visits=3, thread_prefix="repro-"
        )
        text = rule.describe()
        assert "crash@" + POINT in text
        assert "p=0.5" in text
        assert "after=3" in text
        assert "thread=repro-*" in text


class TestPlan:
    def test_describe_prints_seed_and_rules(self):
        plan = ChaosPlan(42, (ChaosRule(POINT, CRASH),))
        assert "seed=42" in plan.describe()
        assert POINT in plan.describe()

    def test_crash_at_constructor(self):
        plan = ChaosPlan.crash_at(7, POINT, after_visits=2)
        (rule,) = plan.rules
        assert rule.action == CRASH
        assert rule.after_visits == 2

    def test_engine_rejects_unknown_point(self):
        with pytest.raises(ValueError, match="unknown chaos point"):
            ChaosEngine(ChaosPlan(1, (ChaosRule("no.such.point", CRASH),)))

    def test_engine_rejects_fault_rule_on_crash_point(self):
        with pytest.raises(ValueError, match="fault rules need a fault point"):
            ChaosEngine(ChaosPlan(1, (ChaosRule(POINT, FAULT),)))

    def test_fault_points_accept_fault_and_latency_rules(self):
        ChaosEngine(
            ChaosPlan(
                1,
                (
                    ChaosRule(FAULT_POINT, FAULT),
                    latency_rule(FAULT_POINT),
                ),
            )
        )


class TestDispatch:
    def test_crash_fires_at_exact_visit(self):
        engine = ChaosEngine(ChaosPlan.crash_at(3, POINT, after_visits=2))
        with chaos(engine):
            crash_point(POINT)
            crash_point(POINT)
            with pytest.raises(SimulatedCrash, match=r"seed=3"):
                crash_point(POINT)
        assert engine.crashes_fired == 1
        (fire,) = engine.fires()
        assert (fire.point, fire.action, fire.visit) == (POINT, CRASH, 3)

    def test_crash_latches_after_max_fires(self):
        """Recovery re-executes the same path; the rule must not re-fire."""
        engine = ChaosEngine(ChaosPlan.crash_at(5, POINT))
        with chaos(engine):
            with pytest.raises(SimulatedCrash):
                crash_point(POINT)
            for _ in range(10):
                crash_point(POINT)
        assert engine.crashes_fired == 1

    def test_probability_zero_never_fires(self):
        engine = ChaosEngine(
            ChaosPlan(1, (ChaosRule(POINT, CRASH, probability=0.0),))
        )
        with chaos(engine):
            for _ in range(50):
                crash_point(POINT)
        assert engine.fires() == []

    def test_same_seed_same_fire_schedule(self):
        def schedule(seed):
            engine = ChaosEngine(
                ChaosPlan(seed, (latency_rule(probability=0.5),))
            )
            with chaos(engine):
                for _ in range(60):
                    crash_point(POINT)
            return [fire.visit for fire in engine.fires()]

        first = schedule(99)
        assert first  # p=0.5 over 60 visits fires essentially surely
        assert schedule(99) == first
        assert schedule(100) != first

    def test_thread_prefix_filters_main_thread(self):
        engine = ChaosEngine(
            ChaosPlan(1, (ChaosRule(POINT, CRASH, thread_prefix="repro-txn"),))
        )
        with chaos(engine):
            for _ in range(5):
                crash_point(POINT)  # MainThread: never matches
        assert engine.fires() == []

    def test_thread_prefix_matches_named_thread(self):
        engine = ChaosEngine(
            ChaosPlan(1, (ChaosRule(POINT, CRASH, thread_prefix="repro-txn"),))
        )
        seen: list[BaseException] = []

        def body():
            try:
                crash_point(POINT)
            except SimulatedCrash as exc:
                seen.append(exc)

        with chaos(engine):
            worker = threading.Thread(target=body, name="repro-txn-worker-0")
            worker.start()
            worker.join()
        assert len(seen) == 1
        assert "repro-txn-worker-0" in str(seen[0])

    def test_fault_rule_raises_transient_error(self):
        engine = ChaosEngine(ChaosPlan(8, (ChaosRule(FAULT_POINT, FAULT),)))
        with chaos(engine):
            with pytest.raises(TransientIOError, match="seed=8"):
                fault_point(FAULT_POINT)
            fault_point(FAULT_POINT)  # latched
        assert engine.faults_fired == 1

    def test_latency_fires_do_not_raise(self):
        engine = ChaosEngine(ChaosPlan(4, (latency_rule(),)))
        with chaos(engine):
            for _ in range(5):
                crash_point(POINT)
        assert engine.latency_fired == 5
        assert engine.crashes_fired == 0

    def test_every_passage_is_counted_ruled_or_not(self):
        engine = ChaosEngine(ChaosPlan(0, (latency_rule(),)))
        with chaos(engine):
            fault_point(FAULT_POINT)
            fault_point(FAULT_POINT)
            crash_point(POINT)
        assert engine.hits() == {FAULT_POINT: 2, POINT: 1}
        assert [fire.point for fire in engine.fires()] == [POINT]


class TestLatencyInjector:
    def test_perturb_adds_seeded_jitter(self):
        jitter = (0.001, 0.002)
        first = ChaosEngine(ChaosPlan(21)).latency_injector(jitter)
        pauses = [first(0.01) for _ in range(10)]
        assert all(0.011 <= p <= 0.012 for p in pauses)
        again = ChaosEngine(ChaosPlan(21)).latency_injector(jitter)
        assert [again(0.01) for _ in range(10)] == pauses

    def test_bad_jitter_rejected(self):
        engine = ChaosEngine(ChaosPlan(1))
        with pytest.raises(ValueError, match="jitter"):
            engine.latency_injector((0.002, 0.001))

    def test_install_and_remove_latency_bridges(self):
        db = Database(SystemConfig(log_page_size=512))
        engine = ChaosEngine(ChaosPlan(5))
        try:
            install_latency(db, engine, disk_scale=0.25, cpu_scale=2.0)
            assert db.log_disk.disks.primary.realtime_scale == 0.25
            assert db.log_disk.disks.mirror.latency_injector is not None
            assert db.checkpoint_disk.disk.latency_injector is not None
            assert db.main_cpu.realtime_scale == 2.0
            assert db.recovery_cpu.latency_injector is not None
            remove_latency(db)
            assert db.log_disk.disks.primary.realtime_scale == 0.0
            assert db.log_disk.disks.primary.latency_injector is None
            assert db.main_cpu.realtime_scale == 0.0
            assert db.main_cpu.latency_injector is None
        finally:
            db.close()


class TestAtomicPublication:
    """Satellite: hook readers race activate/deactivate/observer swaps
    without locks; publication must be atomic, never torn."""

    def test_double_activate_raises(self):
        activate(ChaosEngine(ChaosPlan(0)))
        try:
            with pytest.raises(RuntimeError, match="already active"):
                activate(ChaosEngine(ChaosPlan(0)))
        finally:
            deactivate()

    def test_hooks_survive_concurrent_toggling(self):
        errors: list[BaseException] = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    for _ in range(100):
                        crash_point(POINT)
                        fault_point(FAULT_POINT)
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)

        readers = [
            threading.Thread(target=hammer, name=f"repro-hammer-{i}")
            for i in range(4)
        ]
        for thread in readers:
            thread.start()
        observed: list[str] = []
        try:
            for round_no in range(200):
                rules = () if round_no % 2 else (latency_rule(),)
                activate(ChaosEngine(ChaosPlan(round_no, rules)))
                set_crash_point_observer(observed.append)
                set_crash_point_observer(None)
                deactivate()
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert errors == []
        assert chaos_module._active is None
        assert chaos_module._observer is None


@pytest.mark.no_lock_audit  # installs its own recorder
class TestHookPathLockAudit:
    """Regression: the chaos hook path itself must stay lock-audit clean
    under a real threaded workload with an engine armed."""

    def test_threaded_workload_under_latency_plan_is_clean(self):
        recorder = LockOrderRecorder()
        audit.activate(recorder)
        set_crash_point_observer(recorder.on_crash_point)
        db = Database(
            SystemConfig(log_page_size=2048), engine=ThreadedEngine(workers=4)
        )
        try:
            accounts = db.create_relation(
                "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
            )
            with db.transaction() as txn:
                for i in range(16):
                    accounts.insert(txn, {"id": i, "balance": 100})

            def transfer(src, dst):
                def script(txn):
                    row = db.table("accounts").lookup(txn, src)
                    yield
                    accounts.update(
                        txn, row.address, {"balance": row["balance"] - 1}
                    )
                    yield
                    row2 = db.table("accounts").lookup(txn, dst)
                    accounts.update(
                        txn, row2.address, {"balance": row2["balance"] + 1}
                    )

                return script

            engine = ChaosEngine(
                ChaosPlan(
                    13,
                    (
                        latency_rule("txn.commit.before-slb", probability=0.4),
                        latency_rule("txn.commit.after-slb", probability=0.4),
                        latency_rule("recovery.sort.after-deposit", probability=0.3),
                    ),
                )
            )
            scheduler = Scheduler(db)
            for i in range(24):
                scheduler.submit(transfer(i % 8, 8 + (i % 8)), name=f"t{i}")
            with chaos(engine):
                results = scheduler.run()
                db.pump()
            assert all(r.committed for r in results)
            assert engine.latency_fired > 0
            report = recorder.report()
            assert report.ok, report.render()
        finally:
            set_crash_point_observer(None)
            audit.deactivate()
            db.close()
