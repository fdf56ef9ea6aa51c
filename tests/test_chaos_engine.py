"""The seeded multi-action chaos engine (plans, rules, dispatch).

Covers rule/plan validation, deterministic crash placement, seeded
probabilistic reproducibility, fire latching, the transient-fault action,
and how activate /
deactivate / the observer compose the one hook ``crash_point`` reads.
"""

from __future__ import annotations

import contextlib
import importlib

import pytest

chaos_module = importlib.import_module("repro.sim.chaos")

from repro.sim.chaos import (
    CRASH,
    FAULT,
    ChaosEngine,
    ChaosPlan,
    ChaosRule,
    activate,
    chaos,
    crash_point,
    deactivate,
    fault_point,
    set_crash_point_observer,
)
from repro.sim.faults import SimulatedCrash, TransientIOError

POINT = "txn.commit.after-slb"
FAULT_POINT = "log-disk.write"


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

    def test_describe_mentions_filters(self):
        rule = ChaosRule(POINT, CRASH, probability=0.5, after_visits=3)
        text = rule.describe()
        assert "crash@" + POINT in text
        assert "p=0.5" in text
        assert "after=3" in text


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

    def test_fault_points_accept_fault_and_crash_rules(self):
        ChaosEngine(
            ChaosPlan(
                1,
                (
                    ChaosRule(FAULT_POINT, FAULT),
                    ChaosRule(FAULT_POINT, CRASH),
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
        (fire,) = engine.fired
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
        assert engine.fired == []

    def test_same_seed_same_fire_schedule(self):
        def schedule(seed):
            rule = ChaosRule(POINT, CRASH, probability=0.5, max_fires=None)
            engine = ChaosEngine(ChaosPlan(seed, (rule,)))
            with chaos(engine):
                for _ in range(60):
                    with contextlib.suppress(SimulatedCrash):
                        crash_point(POINT)
            return [fire.visit for fire in engine.fired]

        first = schedule(99)
        assert first  # p=0.5 over 60 visits fires essentially surely
        assert schedule(99) == first
        assert schedule(100) != first

    def test_fault_rule_raises_transient_error(self):
        engine = ChaosEngine(ChaosPlan(8, (ChaosRule(FAULT_POINT, FAULT),)))
        with chaos(engine):
            with pytest.raises(TransientIOError, match="seed=8"):
                fault_point(FAULT_POINT)
            fault_point(FAULT_POINT)  # latched
        assert engine.faults_fired == 1

    def test_every_passage_is_counted_ruled_or_not(self):
        engine = ChaosEngine(ChaosPlan.crash_at(0, POINT))
        with chaos(engine):
            fault_point(FAULT_POINT)
            fault_point(FAULT_POINT)
            with pytest.raises(SimulatedCrash):
                crash_point(POINT)
        assert engine.hits() == {FAULT_POINT: 2, POINT: 1}
        assert [fire.point for fire in engine.fired] == [POINT]


class TestAtomicPublication:
    """activate / deactivate / the observer publish one composed hook, so
    ``crash_point`` reads one global however many are installed."""

    def test_double_activate_raises(self):
        activate(ChaosEngine(ChaosPlan(0)))
        try:
            with pytest.raises(RuntimeError, match="already active"):
                activate(ChaosEngine(ChaosPlan(0)))
        finally:
            deactivate()

    def test_observer_sees_every_passage_before_the_injector(self):
        observed: list[str] = []
        set_crash_point_observer(observed.append)
        engine = ChaosEngine(ChaosPlan.crash_at(0, POINT))
        with chaos(engine):
            with pytest.raises(SimulatedCrash):
                crash_point(POINT)
            crash_point("txn.commit.before-slb")
        crash_point(POINT)  # injector gone, observer still there
        assert observed == [POINT, "txn.commit.before-slb", POINT]
        assert engine.hits() == {POINT: 1, "txn.commit.before-slb": 1}
        set_crash_point_observer(None)
        assert chaos_module._crash_hook is None
