"""The torture harness: seeded randomized chaos rounds must verify.

The acceptance matrix runs three fixed seeds for each round kind
(crash / fault); every round must recover to a verified state, with
``time.sleep`` refusing to run.  The remaining tests pin the harness
contract itself: plans are a pure function of the seed, a crash plan
draws from the crash points its dry run passed, a failing round raises
:class:`~repro.sim.torture.TortureFailure` carrying the reproducing
command line (an interrupt is not a failing round), and the CLI drives
the same rounds with a JSONL log and ends with its reach report.
"""

from __future__ import annotations

import json

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common.types import EntityAddress
from repro.concurrency.locks import LockMode
from repro.db.relation import Relation
from repro.recovery import restart as restart_module
from repro.recovery.oracle import (
    committed_digests,
    log_order_violations,
    logical_digest,
    serialization_violations,
)
from repro.sim import torture
from repro.sim.chaos import registered_crash_points, registered_fault_points
from repro.sim.torture import (
    FAULT_POINTS,
    KINDS,
    POOL_SCRIPTS,
    RoundSpec,
    TortureFailure,
    TortureHarness,
    build_plan,
    main,
)
from repro.txn.scheduler import Scheduler
from repro.wal.records import bin_index_of
from repro.wal.slb import StableLogBuffer
from repro.workloads.debit_credit import DebitCreditWorkload

SEEDS = [0, 1, 2]

#: A dry run's passages: two crash points and a fault point.
HITS = {"txn.commit.before-slb": 3, "checkpoint.begin": 1, "log-disk.write": 5}


class TestRoundSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown round kind"):
            RoundSpec(1, "meteor")

    def test_repro_command_names_the_round(self):
        command = RoundSpec(41, "fault").repro_command()
        assert "--seed 41" in command
        assert "--kinds fault" in command


class TestBuildPlan:
    def test_same_seed_same_plan(self):
        import random

        spec = RoundSpec(9, "fault")
        first = build_plan(spec, random.Random(9), {})
        second = build_plan(spec, random.Random(9), {})
        assert first == second
        assert any(rule.action == "fault" for rule in first.rules)

    def test_every_kind_gets_only_its_own_action(self):
        import random

        for kind in KINDS:
            plan = build_plan(RoundSpec(5, kind), random.Random(5), HITS)
            assert plan.rules
            assert all(rule.action == kind for rule in plan.rules)

    def test_plan_points_are_the_live_registry(self):
        """A crash plan crashes at a registered crash point its dry run
        passed, at one of its passages; the fault list is the live fault
        registry."""
        import random

        drawn = set()
        for seed in range(40):
            (rule,) = build_plan(RoundSpec(seed, "crash"), random.Random(seed), HITS).rules
            assert rule.point in registered_crash_points()
            assert 0 <= rule.after_visits < HITS[rule.point]
            drawn.add((rule.point, rule.after_visits))
        # every passage of every passed crash point gets drawn
        assert drawn == {("txn.commit.before-slb", k) for k in range(3)} | {
            ("checkpoint.begin", 0)
        }
        assert FAULT_POINTS == tuple(sorted(registered_fault_points()))

    def test_crash_plan_needs_a_passed_crash_point(self):
        import random

        with pytest.raises(ValueError, match="passed no registered crash point"):
            build_plan(RoundSpec(5, "crash"), random.Random(5), {"log-disk.write": 5})

    def test_fault_rules_stay_within_retry_budget(self):
        import random

        for seed in range(20):
            plan = build_plan(RoundSpec(seed, "fault"), random.Random(seed), {})
            for rule in plan.rules:
                if rule.action == "fault":
                    assert rule.max_fires is not None
                    assert rule.max_fires <= 4


class TestAcceptanceMatrix:
    """Three fixed seeds x every kind, all verified."""

    @pytest.mark.usefixtures("no_host_sleep")
    @pytest.mark.parametrize("kind", KINDS)
    def test_sim_rounds_verify(self, kind):
        results = TortureHarness().run_rounds(SEEDS, kinds=(kind,))
        assert len(results) == len(SEEDS)
        if kind == "crash":
            # every crash round fires, at the point and passage it records
            # (before the pool's first commit, it leaves none committed)
            assert all(r.crashes_fired == 1 and r.point and r.visit >= 1 for r in results)
        else:
            # a fault round crashes after its pool: every script committed
            assert all(r.committed == POOL_SCRIPTS for r in results)
        fired = {
            "crash": sum(r.crashes_fired for r in results),
            "fault": sum(r.faults_fired for r in results),
        }
        # Three seeds per kind make the kind's signature action fire at
        # least once across the batch (probabilistic rules, fixed seeds).
        assert fired[kind] > 0


class TestMixedRounds:
    """The mixed round: ``MixedWorkload`` on a T-tree primary key, with
    deletes and an insert-then-abort every ``MIXED_ABORT_EVERY``-th
    transaction, through the same crash, restart and checks."""

    def test_spec_checks_the_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            RoundSpec(1, "crash", workload="ledger")
        with pytest.raises(ValueError, match="runs on one node"):
            RoundSpec(1, "crash", shards=2, workload="mixed")
        command = RoundSpec(41, "fault", workload="mixed").repro_command()
        assert command.endswith("--kinds fault --workload mixed")
        assert "--workload" not in RoundSpec(41, "fault").repro_command()

    @pytest.mark.usefixtures("no_host_sleep")
    @pytest.mark.parametrize("kind", KINDS)
    def test_rounds_verify(self, kind):
        results = TortureHarness().run_rounds(SEEDS, kinds=(kind,), workload="mixed")
        assert [r.to_json()["workload"] for r in results] == ["mixed"] * len(SEEDS)
        if kind == "crash":
            assert all(r.crashes_fired == 1 and r.point for r in results)

    def test_bank_record_names_no_workload(self):
        assert "workload" not in TortureHarness().run_round(RoundSpec(0, "fault")).to_json()

    def test_round_deletes_and_aborts_inserts_on_a_ttree_key(self):
        """What the round runs, with nothing injected: deletes, one aborted
        insert-then-abort per ``MIXED_ABORT_EVERY`` transactions that
        grows the segment, and a T-tree primary key; after a crash the
        heap images hold strings of several widths."""
        db = Database(SystemConfig(**torture.ROUND_CONFIG))
        workload = torture.MixedWorkload(
            db,
            initial_rows=torture.MIXED_ROWS,
            mix=torture.MIXED_MIX,
            ops_per_transaction=torture.MIXED_OPS,
            seed=3,
            primary_index="ttree",
        )
        workload.load()
        partitions_before = len(db.catalog.relation("items").partitions)
        torture._run_mixed(workload)
        doomed = torture.MIXED_TRANSACTIONS // torture.MIXED_ABORT_EVERY
        assert db.stats()["transactions_aborted"] == doomed
        assert db.catalog.index("items__pk").kind == "ttree"
        assert workload.live_rows < torture.MIXED_ROWS + workload.operations_run
        assert len(db.catalog.relation("items").partitions) > partitions_before
        db.crash()
        db.restart(RecoveryMode.EAGER)
        segment = db.memory.segment(db.catalog.relation("items").segment_id)
        widths = {
            len(data)
            for partition in segment.resident_partitions()
            for data in partition.heap._strings.values()
        }
        assert len(widths) > 1
        with db.transaction() as txn:
            keys = [row["key"] for row in db.table("items").scan(txn)]
        assert keys and min(keys) >= 0


class TestMediaRounds:
    """The media round: the bank round with the checkpoint disk destroyed
    before its restart and a restore from the log history; a crash round
    crashes inside the restore, and an ordinary restart follows."""

    def test_spec_checks_the_topology(self):
        with pytest.raises(ValueError, match="single-node bank round"):
            RoundSpec(1, "crash", media=True, workload="mixed")
        with pytest.raises(ValueError, match="single-node bank round"):
            RoundSpec(1, "crash", media=True, shards=2)
        assert RoundSpec(41, "fault", media=True).repro_command().endswith(
            "--kinds fault --media"
        )
        assert "--media" not in RoundSpec(41, "fault").repro_command()

    def test_a_crash_plan_draws_after_the_restore_began(self):
        import random

        hits = {**HITS, "checkpoint.begin": 2}
        before = {"txn.commit.before-slb": 3, "checkpoint.begin": 1}
        for seed in range(20):
            plan = build_plan(RoundSpec(seed, "crash"), random.Random(seed), hits, before)
            (rule,) = plan.rules
            # only checkpoint.begin passed after ``before``: its second passage
            assert (rule.point, rule.after_visits) == ("checkpoint.begin", 1)

    @pytest.mark.usefixtures("no_host_sleep")
    @pytest.mark.parametrize("kind", KINDS)
    def test_rounds_verify(self, kind):
        harness = TortureHarness()
        results = harness.run_rounds([400, 401, 402], kinds=(kind,), media=True)
        assert all(r.to_json()["media"] is True for r in results)
        assert "media.scan.page-routed" in harness.passed
        if kind == "crash":
            assert all(r.crashes_fired == 1 and r.restart_attempts >= 2 for r in results)

    def test_bank_record_names_no_media(self):
        assert "media" not in TortureHarness().run_round(RoundSpec(0, "fault")).to_json()

    def test_crash_acknowledging_the_restores_checkpoint(self):
        """Seed 406 crashes at an archive-page write inside the
        acknowledgement of the restore's whole-database checkpoint.  Restart must
        acknowledge that checkpoint before it drains the log: drained
        first, the checkpoint's own slot installs (logged to the catalog
        partition it imaged) left with the catalog's leftovers, and a
        partition first imaged by the restore came back empty."""
        result = TortureHarness().run_round(RoundSpec(406, "crash", media=True))
        assert (result.point, result.crashes_fired) == ("log-disk.append.before-write", 1)


class TestOverloadRounds:
    """The overload round: the bank round on an SLB its pool runs dry,
    where every log write that finds it full ends in back-pressure (a
    drain, then a retry that writes) or in a clean ``TransactionAborted``,
    which the scheduler retries; anything else escapes the pool and fails
    the round."""

    def test_spec_checks_the_topology(self):
        for other in ({"shards": 2}, {"media": True}):
            with pytest.raises(ValueError, match="round"):
                RoundSpec(1, "crash", workload="overload", **other)
        assert RoundSpec(41, "fault", workload="overload").repro_command().endswith(
            "--kinds fault --workload overload"
        )
        record = TortureHarness().run_round(RoundSpec(0, "fault")).to_json()
        assert not {"back_pressure", "exhausted"} & set(record)

    @pytest.mark.usefixtures("no_host_sleep")
    @pytest.mark.parametrize("kind", KINDS)
    def test_rounds_run_the_slb_dry_both_ways(self, kind):
        harness = TortureHarness()
        results = harness.run_rounds([500, 501, 502], kinds=(kind,), workload="overload")
        assert all(r.to_json()["workload"] == "overload" for r in results)
        assert sum(r.back_pressure for r in results) > 0
        assert sum(r.exhausted for r in results) > 0

    def test_a_batch_that_never_runs_dry_fails(self, monkeypatch):
        monkeypatch.setattr(torture, "OVERLOAD_SLB_BLOCKS", 4096)
        with pytest.raises(TortureFailure, match="never both drained and aborted"):
            TortureHarness().run_rounds([500], kinds=("fault",), workload="overload")

    def test_half_logged_transactions_are_rolled_back(self):
        """Seed 500's crash round: 21 log writes find the SLB exhausted,
        each after the change it logs is applied, so the abort ``_redo``
        makes must roll that change back.  Skipping the rollback fails this
        round (the recovered account total keeps the aborted changes)."""
        result = TortureHarness().run_round(RoundSpec(500, "crash", workload="overload"))
        assert (result.exhausted, result.crashes_fired) == (21, 1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_stall_in_a_checkpoint_pass_loses_no_record(self, kind):
        """Seed 502: a checkpoint's log write stalls for a drain while an
        earlier checkpoint of the same pump pass is finished but not yet
        acknowledged.  Drained first, a record committed after that
        checkpoint's copy (the branch's new image slot, in the catalog
        partition's bin) was dropped by the bin's reset, and the branch
        relation came back empty."""
        result = TortureHarness().run_round(RoundSpec(502, kind, workload="overload"))
        assert result.exhausted > 0


class TestKeptSeeds:
    """Rounds kept because they catch a mutation no seed of CI's batches
    does: a commit acknowledged (state ``COMMITTED``) before
    ``slb.commit``, which only a crash between the two shows.  Each
    asserts it still crashes there, so a change to the draw that moves it
    fails here instead of quietly losing the guard."""

    @pytest.mark.parametrize("seed", [1056, 1057])
    def test_round_crashes_before_the_commit_point(self, seed):
        result = TortureHarness().run_round(RoundSpec(seed, "crash"))
        assert (result.point, result.crashes_fired) == ("txn.commit.before-slb", 1)


class TestRoundIsAFunctionOfItsSpec:
    """Nothing but the spec decides a round: the same spec run twice
    gives the same record, ``host_seconds`` apart."""

    @pytest.mark.usefixtures("no_host_sleep")
    @pytest.mark.parametrize(
        "kind,topology",
        [
            ("crash", {"shards": 1}),
            ("fault", {"shards": 1}),
            ("fault", {"shards": 2}),
            ("crash", {"shards": 2}),
        ],
        ids=["single", "single-fault", "sharded", "sharded-crash"],
    )
    def test_same_spec_same_record(self, kind, topology):
        spec = RoundSpec(100, kind, **topology)
        first, second = (TortureHarness().run_round(spec).to_json() for _ in range(2))
        assert first.pop("host_seconds") > 0 and second.pop("host_seconds") > 0
        assert first == second


class TestFailureReporting:
    def test_failed_round_carries_repro_command(self, monkeypatch):
        def broken(self):
            raise AssertionError("synthetic check failure")

        monkeypatch.setattr(DebitCreditWorkload, "check_invariants", broken)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(3, "fault"))
        message = str(excinfo.value)
        assert "synthetic check failure" in message
        assert "--seed 3" in message

    def test_unexpected_error_is_wrapped_with_seed(self, monkeypatch):
        def explode(self):
            raise RuntimeError("worker wedged")

        monkeypatch.setattr(Scheduler, "run", explode)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(8, "crash"))
        message = str(excinfo.value)
        assert "seed=8" in message
        assert "--seed 8" in message
        assert "reproduce with" in message


class TestRecoveryStability:
    def test_a_second_recovery_that_differs_fails_the_round(self, monkeypatch):
        """The stability check crashes the recovered round again with no
        new work: a restart whose second run per database drops one
        committed history row fails the round, though the first
        recovery was exact."""
        restart = Database.restart
        runs: dict[int, int] = {}

        def forgetful(db, mode=RecoveryMode.ON_DEMAND):
            coordinator = restart(db, mode)
            runs[id(db)] = runs.get(id(db), 0) + 1
            if runs[id(db)] == 2:
                coordinator.recover_everything()
                history = db.table("history")
                with db.transaction() as txn:
                    history.delete(txn, next(history.scan(txn)).address)
            return coordinator

        monkeypatch.setattr(Database, "restart", forgetful)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(3, "fault"))
        assert list(runs.values()) == [2]
        message = str(excinfo.value)
        assert "recovered to digest" in message and "--seed 3" in message


def swap_the_next_two_drained_chains(monkeypatch) -> None:
    """Make the recovery CPU deposit the first two committed chains it
    drains in the wrong order."""
    drain = StableLogBuffer.drain_committed

    def swapped(slb):
        slb._committed[:2] = slb._committed[1::-1]
        return drain(slb)

    monkeypatch.setattr(StableLogBuffer, "drain_committed", swapped)


class TestLogOrder:
    """Two transactions write the same value to one row, so replaying
    their records in either order gives the same bytes: only the log-order
    check sees a drain that swapped them."""

    @staticmethod
    def same_value_pair(monkeypatch, swap):
        db = Database(SystemConfig(log_page_size=512))
        cells = db.create_relation("cells", [("id", "int"), ("v", "int")], primary_key="id")
        with db.transaction() as txn:
            address = cells.insert(txn, {"id": 1, "v": 7})
        pair = []
        for _ in range(2):
            with db.transaction(pump=False) as txn:
                cells.update(txn, address, {"v": 7})
                pair.append(txn.txn_id)
        if swap:
            swap_the_next_two_drained_chains(monkeypatch)
        db.pump()
        return db, pair

    def test_commit_order_passes(self, monkeypatch):
        db, _ = self.same_value_pair(monkeypatch, swap=False)
        assert log_order_violations(db) == []

    def test_swapped_pair_is_named_though_recovery_is_exact(self, monkeypatch):
        db, (first, second) = self.same_value_pair(monkeypatch, swap=True)
        (expected,) = committed_digests([db])
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        problems = log_order_violations(db)
        assert len(problems) == 1
        assert f"txn {first} is logged after txn {second} but committed first" in problems[0]

    def test_the_rig_fails_a_round_whose_log_is_out_of_order(self, monkeypatch):
        swap_the_next_two_drained_chains(monkeypatch)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(100, "fault"))
        message = str(excinfo.value)
        assert "log order broken" in message
        assert "reproduce with" in message


class TestSerializability:
    """The rig's conflict check.  The histories are hand-built; the first
    is seed 200's (``--shards 2``, database 1) with ``Relation.read``
    releasing its row S lock right after reading: txn 16's upgrade to X
    was granted while txn 19 had read the row, so txn 19 overwrote 16's
    balance with one read before it."""

    ROW = EntityAddress(2, 1, 3)
    REL = ("rel", 2)
    IS, IX, S, X = (LockMode.INTENT_SHARED, LockMode.INTENT_EXCLUSIVE,
                    LockMode.SHARED, LockMode.EXCLUSIVE)

    def test_a_row_lock_released_before_commit(self):
        grants = [
            (16, self.REL, self.IS), (16, self.ROW, self.S),
            (19, self.REL, self.IS), (19, self.ROW, self.S),
            (16, self.REL, self.IX), (16, self.ROW, self.X),
            (19, self.REL, self.IX), (19, self.ROW, self.X),
        ]
        assert serialization_violations(grants, [16, 19]) == [
            f"txn 19 -> txn 16 (rw on {self.ROW!r}), but txn 16 committed first"
        ]

    def test_the_same_transactions_under_strict_locking(self):
        grants = [
            (16, self.REL, self.IS), (16, self.ROW, self.S),
            (16, self.REL, self.IX), (16, self.ROW, self.X),
            (19, self.REL, self.IS), (19, self.ROW, self.S),
            (19, self.REL, self.IX), (19, self.ROW, self.X),
        ]
        assert serialization_violations(grants, [16, 19]) == []

    def test_a_relation_lock_conflicts_with_intent_and_an_aborted_one_is_left_out(self):
        grants = [
            (3, self.REL, self.IX), (3, self.ROW, self.X),
            (4, self.REL, self.S),  # a checkpoint's read of the whole relation
            (5, self.REL, self.IX),
        ]
        assert serialization_violations(grants, [4, 3]) == [
            f"txn 3 -> txn 4 (wr on {self.REL!r}), but txn 4 committed first"
        ]
        assert serialization_violations(grants, [3, 4]) == []
        assert serialization_violations(grants, [5, 3]) == []  # 4 never committed

    def test_the_rig_fails_that_round(self, monkeypatch):
        read = Relation._read

        def releasing(self, txn, descriptor, address):
            row = read(self, txn, descriptor, address)
            if self.db.locks._holders[address].get(txn.txn_id) is LockMode.SHARED:
                self.db.locks.release(txn.txn_id, address)
            return row

        monkeypatch.setattr(Relation, "_read", releasing)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(200, "crash", shards=2))
        assert "conflicts out of commit order: database 1: txn 19 -> txn 16 (rw on" in str(
            excinfo.value
        )

    def test_an_id_reused_across_a_restart_fails_the_round(self, monkeypatch):
        """Restart starting the id sequence over: each REDO stream holds only
        the records since its partition's last checkpoint, so only the audit
        trail's second ``begin`` shows it."""
        resolve = restart_module.resolve_in_doubt

        def resetting(db):
            resolve(db)
            db.slb.next_txn_id = 1

        monkeypatch.setattr(restart_module, "resolve_in_doubt", resetting)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(100, "crash"))
        assert "log order broken: database 0: txn 1 began 2 times" in str(excinfo.value)

    def test_swapped_deposits_fail_the_round(self, monkeypatch):
        """The recovery CPU sorting two adjacent records of one bin, from
        different transactions, out of commit order: the partition's REDO
        stream no longer replays the history, and the log-order check sees
        it.  The swap is the drain's, so it reaches every deposit."""
        record_history = torture._record_history

        def swapping(db):
            drain = db.slb.drain_committed

            def swapped_drain():
                records = drain()
                for i, (first, second) in enumerate(zip(records, records[1:])):
                    # same Bin Index, different transaction id (header bytes 5-12)
                    if bin_index_of(first) == bin_index_of(second) and first[5:13] != second[5:13]:
                        records[i : i + 2] = second, first
                        break
                return records

            db.slb.drain_committed = swapped_drain
            return record_history(db)

        monkeypatch.setattr(torture, "_record_history", swapping)
        with pytest.raises(TortureFailure) as excinfo:
            TortureHarness().run_round(RoundSpec(100, "crash"))
        assert (
            "log order broken: database 0: S1.P1: txn 15 is logged after txn 16 "
            "but committed first" in str(excinfo.value)
        )


class TestInterruptIsNotAFailure:
    def test_keyboard_interrupt_propagates_unwrapped(self, monkeypatch):
        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(Scheduler, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            TortureHarness().run_round(RoundSpec(8, "crash"))


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
                "fault",
                "--log",
                str(log),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all 2 rounds passed" in out
        # the reach report: fault rounds never take the 2PC path
        assert "crash points no round passed: " in out
        assert "shard.2pc.before-decision" in out.splitlines()[-1]
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [entry["seed"] for entry in lines] == [1, 2]
        assert all(entry["kind"] == "fault" for entry in lines)

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
                "fault",
                "--log",
                str(log),
            ]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().err
        (entry,) = [json.loads(line) for line in log.read_text().splitlines()]
        assert "failure" in entry

    def test_cli_runs_mixed_rounds(self, tmp_path, capsys):
        log = tmp_path / "rounds.jsonl"
        code = main(
            ["--seed", "300", "--rounds", "1", "--workload", "mixed", "--log", str(log)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all 2 rounds passed" in out
        assert "workload=mixed" in out
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(entry["kind"], entry["workload"]) for entry in lines] == [
            ("crash", "mixed"),
            ("fault", "mixed"),
        ]

    def test_cli_runs_overload_rounds(self, capsys):
        argv = ["--seed", "500", "--rounds", "1", "--kinds", "fault", "--workload", "overload"]
        assert main(argv) == 0
        assert "workload=overload" in capsys.readouterr().out

    def test_module_is_executable(self):
        assert torture.__name__ == "repro.sim.torture"
