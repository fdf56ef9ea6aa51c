"""The torture harness: seeded randomized chaos rounds must verify.

The acceptance matrix runs three fixed seeds for each round kind
(crash / latency / fault) on both engines; every round must recover to a
verified state.  The remaining tests pin the harness contract itself:
plans are a pure function of the seed, a failing round raises
:class:`~repro.sim.torture.TortureFailure` carrying the reproducing
command line, and the CLI drives the same rounds with a JSONL log.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import torture
from repro.sim.torture import (
    KINDS,
    RoundSpec,
    TortureFailure,
    TortureHarness,
    build_plan,
    main,
)
from repro.txn.scheduler import Scheduler
from repro.workloads.debit_credit import DebitCreditWorkload

SEEDS = [0, 1, 2]


class TestRoundSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown round kind"):
            RoundSpec(1, "meteor")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RoundSpec(1, "crash", engine="quantum")

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            RoundSpec(1, "crash", workers=0)

    def test_repro_command_names_the_round(self):
        command = RoundSpec(41, "fault", engine="sim", workers=1).repro_command()
        assert "--seed 41" in command
        assert "--kinds fault" in command
        assert "--engine sim" in command


class TestBuildPlan:
    def test_same_seed_same_plan(self):
        import random

        spec = RoundSpec(9, "fault")
        first = build_plan(spec, random.Random(9))
        second = build_plan(spec, random.Random(9))
        assert first == second
        assert any(rule.action == "fault" for rule in first.rules)

    def test_every_kind_gets_latency_rules(self):
        import random

        for kind in KINDS:
            plan = build_plan(RoundSpec(5, kind), random.Random(5))
            assert any(rule.action == "latency" for rule in plan.rules)

    def test_fault_rules_stay_within_retry_budget(self):
        import random

        for seed in range(20):
            plan = build_plan(RoundSpec(seed, "fault"), random.Random(seed))
            for rule in plan.rules:
                if rule.action == "fault":
                    assert rule.max_fires is not None
                    assert rule.max_fires <= 4


class TestAcceptanceMatrix:
    """Three fixed seeds x every kind, both engines, all verified."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_threaded_rounds_verify(self, kind):
        results = TortureHarness().run_rounds(
            SEEDS, kinds=(kind,), engine="threaded", workers=4
        )
        assert len(results) == len(SEEDS)
        assert all(r.verified_by in ("digest", "invariants") for r in results)
        assert all(r.committed > 0 for r in results)
        fired = {
            "crash": sum(r.crashes_fired for r in results),
            "latency": sum(r.latency_fired for r in results),
            "fault": sum(r.faults_fired for r in results),
        }
        # Three seeds per kind make the kind's signature action fire at
        # least once across the batch (probabilistic rules, fixed seeds).
        assert fired[kind] > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_sim_rounds_verify(self, kind):
        results = TortureHarness().run_rounds(
            SEEDS, kinds=(kind,), engine="sim", workers=1
        )
        assert len(results) == len(SEEDS)
        assert all(r.committed > 0 for r in results)


class TestRoundIsAFunctionOfItsSpec:
    """On ``--engine sim`` nothing but the spec decides a round: the same
    spec run twice gives the same record, ``host_seconds`` apart."""

    @pytest.mark.parametrize(
        "kind,topology",
        zip(KINDS, [{"shards": 1}, {"shards": 1, "condense": True}, {"shards": 2}]),
        ids=["single", "condense", "sharded"],
    )
    def test_same_spec_same_record(self, kind, topology):
        spec = RoundSpec(100, kind, engine="sim", workers=1, **topology)
        first, second = (TortureHarness().run_round(spec).to_json() for _ in range(2))
        assert first.pop("host_seconds") > 0 and second.pop("host_seconds") > 0
        assert first == second


class TestFailureReporting:
    def test_failed_round_carries_repro_command(self, monkeypatch):
        def broken(self):
            raise AssertionError("synthetic check failure")

        monkeypatch.setattr(DebitCreditWorkload, "check_invariants", broken)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(3, "latency", engine="sim", workers=1))
        message = str(excinfo.value)
        assert "synthetic check failure" in message
        assert "--seed 3" in message

    def test_unexpected_error_is_wrapped_with_seed(self, monkeypatch):
        def explode(self):
            raise RuntimeError("worker wedged")

        monkeypatch.setattr(Scheduler, "run", explode)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(8, "crash", engine="sim", workers=1))
        message = str(excinfo.value)
        assert "seed=8" in message
        assert "--seed 8" in message
        assert "reproduce with" in message


class TestCommandLine:
    def test_cli_runs_rounds_and_logs_jsonl(self, tmp_path, capsys):
        log = tmp_path / "rounds.jsonl"
        code = main(
            [
                "--seed",
                "1",
                "--rounds",
                "2",
                "--kinds",
                "latency",
                "--engine",
                "sim",
                "--workers",
                "1",
                "--log",
                str(log),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all 2 rounds passed" in out
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [entry["seed"] for entry in lines] == [1, 2]
        assert all(entry["kind"] == "latency" for entry in lines)

    def test_cli_failure_prints_seed_and_returns_one(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(self):
            raise AssertionError("forced")

        monkeypatch.setattr(DebitCreditWorkload, "check_invariants", broken)
        log = tmp_path / "rounds.jsonl"
        code = main(
            [
                "--seed",
                "5",
                "--rounds",
                "1",
                "--kinds",
                "latency",
                "--engine",
                "sim",
                "--workers",
                "1",
                "--log",
                str(log),
            ]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().err
        (entry,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert "failure" in entry

    def test_module_is_executable(self):
        assert torture.__name__ == "repro.sim.torture"
