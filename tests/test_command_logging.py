"""Command logging and dependency-batched replay (docs/LOGGING.md).

The tentpole guarantees tested here: the commit point is unchanged in
every mode, command-mode recovery re-executes the live suffix to the
byte-identical state value logging reaches by REDO, group settlement
sweeps prune the command log, and every drift hazard (missing script, version bump,
declared-set change) fails restart loudly instead of replaying wrong.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common.errors import ConfigurationError, RecoveryError, TransactionStateError
from repro.db.integrity import verify_integrity
from repro.engine import ThreadedEngine
from repro.recovery import restore_after_checkpoint_media_failure
from repro.recovery.oracle import logical_digest
from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos, registered_crash_points
from repro.sim.faults import SimulatedCrash
from repro.txn.registry import ScriptError, ScriptRegistry
from repro.txn.transaction import TxnState
from repro.wal.records import TxnPrepare


def small_config(**kwargs):
    defaults = dict(
        log_page_size=1024,
        update_count_threshold=10_000,  # checkpoints only when forced
        log_window_pages=256,
        log_window_grace_pages=0,  # no age triggers: sweeps only on demand
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


ACCOUNTS = 16
OPENING = 100


def make_bank(db, name="accounts"):
    """A loaded accounts relation plus a registered transfer script."""
    accounts = db.create_relation(
        name, [("id", "int"), ("balance", "int")], primary_key="id"
    )
    with db.transaction(relations=[name]) as txn:
        for i in range(ACCOUNTS):
            accounts.insert(txn, {"id": i, "balance": OPENING})

    def transfer(txn, src, dst, amount):
        a = accounts.lookup(txn, src)
        b = accounts.lookup(txn, dst)
        accounts.update(txn, a.address, {"balance": a["balance"] - amount})
        accounts.update(txn, b.address, {"balance": b["balance"] + amount})

    db.register_script(f"transfer_{name}", transfer, relations=[name])
    return accounts


def run_transfers(db, count, name="accounts", **kwargs):
    for i in range(count):
        db.run_script(
            f"transfer_{name}", i % ACCOUNTS, (i + 3) % ACCOUNTS, 5, **kwargs
        )


def total_balance(db, accounts):
    with db.transaction() as txn:
        return sum(row["balance"] for row in accounts.scan(txn))


# ---------------------------------------------------------------------------
# script registry units
# ---------------------------------------------------------------------------


class TestScriptRegistry:
    def test_registration_requires_relations(self, ):
        db = Database(small_config())
        with pytest.raises(ScriptError):
            db.register_script("noop", lambda txn: None, relations=[])

    def test_unknown_script(self):
        db = Database(small_config())
        with pytest.raises(ScriptError):
            db.run_script("nope")

    def test_replay_fences(self):
        db = Database(small_config())
        registry: ScriptRegistry = db.scripts
        db.register_script("s", lambda txn: None, relations=["r"], version="1")
        assert registry.get_for_replay("s", "1").version == "1"
        with pytest.raises(RecoveryError, match="version"):
            registry.get_for_replay("s", "2")
        registry.unregister("s")
        with pytest.raises(RecoveryError, match="no such script"):
            registry.get_for_replay("s", "1")

    def test_version_stamp_is_stable(self):
        db = Database(small_config())
        db.register_script("s", lambda txn: None, relations=["r"], version="7")
        from repro.txn.registry import SCRIPT_VERSIONS_KEY

        assert db.slb.get_well_known(SCRIPT_VERSIONS_KEY)["s"] == "7"


# ---------------------------------------------------------------------------
# mode selection and accounting
# ---------------------------------------------------------------------------


class TestModes:
    def test_invalid_mode_rejected(self, monkeypatch):
        """The three places a mode is spelled refuse alike, naming the two
        that exist."""
        db = Database(small_config())
        make_bank(db)
        for mode in ("logical", "adaptive"):
            refusal = f"={mode!r}: expected one of value, command$"
            with pytest.raises(ConfigurationError, match="^logging" + refusal):
                db.run_script("transfer_accounts", 0, 1, 5, logging=mode)
            with pytest.raises(ConfigurationError, match="^logging_mode" + refusal):
                SystemConfig(logging_mode=mode)
            with monkeypatch.context() as env:
                env.setenv("REPRO_LOGGING_MODE", mode)
                with pytest.raises(ConfigurationError, match="^REPRO_LOGGING_MODE" + refusal):
                    SystemConfig()

    def test_command_mode_logs_less(self):
        db = Database(small_config())
        make_bank(db)
        run_transfers(db, 8, logging="value")
        run_transfers(db, 8, logging="command")
        stats = db.stats()["logging"]
        assert stats["mode_commits"]["command"] == 8
        assert stats["mode_commits"]["value"] >= 8
        # Two-int-update transfers are the worst case for the ratio; the
        # ≥5x acceptance runs on the realistic bank workload in
        # benchmarks/bench_logging_modes.py.
        assert (
            stats["log_bytes_per_txn"]["command"]
            < stats["log_bytes_per_txn"]["value"] / 2
        )
        assert stats["live_commands"] == 8
        assert stats["command_seq"] == 8

    def test_config_mode_applies_and_override_wins(self):
        db = Database(small_config(logging_mode="command"))
        make_bank(db)
        run_transfers(db, 3)
        run_transfers(db, 2, logging="value")
        commits = db.stats()["logging"]["mode_commits"]
        # loads plus the two overridden transfers
        assert commits["value"] >= 2
        assert commits == {"command": 3, "value": commits["value"]}

    def test_stats_surface(self):
        db = Database(small_config())
        make_bank(db)
        run_transfers(db, 4, logging="command")
        logging = db.stats()["logging"]
        for key in (
            "mode",
            "mode_commits",
            "mode_bytes",
            "log_bytes_per_txn",
            "command_seq",
            "live_commands",
            "sweeps_taken",
            "commands_settled",
            "command_replay",
        ):
            assert key in logging
        from repro.db.monitor import status_page

        assert logging["live_commands"] == 4
        assert "command log       4 live / 4 issued" in status_page(db.stats())
        assert "mode commits" in status_page(db.stats())


# ---------------------------------------------------------------------------
# recovery: digest identity across modes and engines
# ---------------------------------------------------------------------------


def _run_to_digest(mode, engine=None):
    config = small_config(logging_mode=mode)
    db = Database(config, engine=engine) if engine is not None else Database(config)
    try:
        accounts = make_bank(db)
        run_transfers(db, 24)
        settled = db.stats()["logging"]["commands_settled"]
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        recovered = logical_digest(db)
        replay = db.last_command_replay
        assert total_balance(db, accounts) == ACCOUNTS * OPENING
        return expected, recovered, replay, settled
    finally:
        db.close()


class TestDigestIdentity:
    @pytest.mark.parametrize("mode", ["value", "command"])
    def test_recovery_is_exact_per_mode(self, mode):
        expected, recovered, replay, settled = _run_to_digest(mode)
        assert recovered == expected
        if mode == "value":
            assert replay["commands_replayed"] == 0
        else:
            # a mid-workload sweep may have settled a prefix already
            assert replay["commands_replayed"] == 24 - settled
            assert replay["commands_replayed"] > 0
            # cooperative engine degenerates to serial replay
            assert replay["replay_workers"] == 1

    def test_modes_and_engines_converge(self):
        digests = set()
        for mode in ("value", "command"):
            for engine in (None, ThreadedEngine(workers=4)):
                expected, recovered, _, _ = _run_to_digest(mode, engine)
                digests.update({expected, recovered})
        assert len(digests) == 1

    def test_replay_rewinds_a_failed_statement_like_the_live_run(self):
        """A script that survives a failed statement is re-executed
        statement rollback and all: the replay transaction has no SLB
        chain to truncate and must not ask for one."""
        db = Database(small_config())
        accounts = make_bank(db)

        def credit_capped(txn, key, amount):
            row = accounts.lookup(txn, key)
            try:
                with txn.statement():
                    accounts.update(
                        txn, row.address, {"balance": row["balance"] + amount}
                    )
                    if row["balance"] + amount > OPENING + 50:
                        raise ValueError("over the cap")
            except ValueError:
                accounts.update(txn, row.address, {"balance": OPENING + 50})

        db.register_script("credit_capped", credit_capped, relations=["accounts"])
        db.run_script("credit_capped", 3, 20, logging="command")
        db.run_script("credit_capped", 3, 40, logging="command")  # rewinds, then caps
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 2
        assert logical_digest(db) == expected

    def test_disjoint_closures_batch_independently(self):
        db = Database(small_config())
        banks = [make_bank(db, name=f"bank{i}") for i in range(3)]
        # A script spanning two extra relations merges their closure.
        left = db.create_relation("left", [("id", "int"), ("v", "int")], "id")
        right = db.create_relation("right", [("id", "int"), ("v", "int")], "id")
        with db.transaction() as txn:
            left.insert(txn, {"id": 1, "v": 0})
            right.insert(txn, {"id": 1, "v": 0})

        def cross(txn, delta):
            a = left.lookup(txn, 1)
            left.update(txn, a.address, {"v": a["v"] + delta})
            b = right.lookup(txn, 1)
            right.update(txn, b.address, {"v": b["v"] - delta})

        db.register_script("cross", cross, relations=["left", "right"])
        for i in range(3):
            run_transfers(db, 4, name=f"bank{i}", logging="command")
        db.run_script("cross", 2, logging="command")
        db.run_script("cross", 3, logging="command")
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        replay = db.last_command_replay
        # three bank closures plus the merged left+right closure
        assert replay["batches"] == 4
        assert replay["commands_replayed"] == 14
        assert logical_digest(db) == expected


# ---------------------------------------------------------------------------
# crash windows
# ---------------------------------------------------------------------------


class TestScriptsThatGrowASegment:
    """The growth a script's insert causes is a value-logged system
    transaction committed before the script's command record exists:
    replay finds the partition catalogued, bin-backed and empty, and
    re-execution fills it exactly as the live run did."""

    @staticmethod
    def ledger():
        db = Database(small_config(partition_size=4096))
        ledger = db.create_relation(
            "ledger", [("id", "int"), ("memo", "str")], primary_key="id"
        )

        def post(txn, first, count):
            for key in range(first, first + count):
                ledger.insert(txn, {"id": key, "memo": f"entry {key}".ljust(40, ".")})

        db.register_script("post", post, relations=["ledger"])
        for batch in range(6):  # every batch fills partitions and grows past them
            db.run_script("post", batch * 40, 40, logging="command")
        assert len(db.catalog.relation("ledger").partitions) > 2
        return db

    def test_replay_reaches_the_same_digest(self):
        db = self.ledger()
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 6
        assert logical_digest(db) == expected
        assert verify_integrity(db) == []

    def test_crash_between_the_growth_commit_and_the_scripts_own(self):
        """The script dies, its growth does not: the partition is there,
        empty, and the same script run again fills it."""
        db = self.ledger()
        expected = logical_digest(db)
        partitions = len(db.catalog.relation("ledger").partitions)
        injector = ChaosEngine(ChaosPlan.crash_at(0, "growth.committed"))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                db.run_script("post", 240, 200, logging="command")
        assert injector.fired
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 6
        assert logical_digest(db) == expected
        assert verify_integrity(db) == []
        assert len(db.catalog.relation("ledger").partitions) == partitions + 1
        db.run_script("post", 240, 200, logging="command")
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 7
        assert logical_digest(db) == expected
        assert verify_integrity(db) == []


class TestCrashWindows:
    def test_new_points_are_registered(self):
        points = registered_crash_points()
        for name in (
            "txn.commit.command-emitted",
            "replay.batch.before-command",
            "replay.batch.command-executed",
            "checkpoint.sweep.markers-appended",
        ):
            assert name in points and points[name]

    def test_crash_after_command_commit_point(self):
        """The commit point precedes the crash point: the transaction's
        effect must survive."""
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 5, logging="command")
        injector = ChaosEngine(ChaosPlan.crash_at(0, "txn.commit.command-emitted"))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                db.run_script("transfer_accounts", 0, 1, 50, logging="command")
        assert injector.fired
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 6
        with db.transaction() as txn:
            assert accounts.lookup(txn, 1)["balance"] > OPENING
        assert total_balance(db, accounts) == ACCOUNTS * OPENING

    @pytest.mark.parametrize(
        "point", ["replay.batch.before-command", "replay.batch.command-executed"]
    )
    def test_crash_during_replay_is_recoverable(self, point):
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 10, logging="command")
        expected = logical_digest(db)
        db.crash()
        injector = ChaosEngine(ChaosPlan.crash_at(0, point))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                db.restart(RecoveryMode.EAGER)
            assert injector.fired[0].point == point
            db.crash()
            db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 10
        assert logical_digest(db) == expected
        assert total_balance(db, accounts) == ACCOUNTS * OPENING

    def test_crash_mid_sweep_before_commit(self):
        """A sweep dying after appending markers but before its commit
        leaves the command suffix live and the old images authoritative."""
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 6, logging="command")
        expected = logical_digest(db)
        with db.transaction() as txn:
            target = accounts.lookup(txn, 0).address.partition_address
        bin_ = db.slt.bin_for_partition(target)
        db.slt.mark_for_checkpoint(bin_.bin_index, "test")
        db.checkpoint_queue.submit(target, bin_.bin_index, "test")
        injector = ChaosEngine(ChaosPlan.crash_at(0, "checkpoint.sweep.markers-appended"))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                db.checkpoints.process_pending()
            assert injector.fired
            db.crash()
            db.restart(RecoveryMode.EAGER)
        # the sweep never committed: nothing settled, everything replays
        assert db.stats()["logging"]["commands_settled"] == 0
        assert db.last_command_replay["commands_replayed"] == 6
        assert logical_digest(db) == expected


# ---------------------------------------------------------------------------
# group settlement sweeps and DDL fences
# ---------------------------------------------------------------------------


class TestSettlement:
    def test_sweep_settles_and_prunes(self):
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 6, logging="command")
        with db.transaction() as txn:
            target = accounts.lookup(txn, 0).address.partition_address
        bin_ = db.slt.bin_for_partition(target)
        db.slt.mark_for_checkpoint(bin_.bin_index, "test")
        db.checkpoint_queue.submit(target, bin_.bin_index, "test")
        assert db.checkpoints.process_pending() >= 1
        db.recovery_processor.acknowledge_finished()
        stats = db.stats()["logging"]
        assert stats["sweeps_taken"] == 1
        assert stats["commands_settled"] == 6
        assert stats["live_commands"] == 0
        assert db.catalog.relation("accounts").command_watermark == 6

    def test_replay_over_settled_images(self):
        """Commands after a sweep replay on top of the swept images; the
        settled prefix is never re-executed."""
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 6, logging="command")
        with db.transaction() as txn:
            target = accounts.lookup(txn, 0).address.partition_address
        bin_ = db.slt.bin_for_partition(target)
        db.slt.mark_for_checkpoint(bin_.bin_index, "test")
        db.checkpoint_queue.submit(target, bin_.bin_index, "test")
        assert db.checkpoints.process_pending() >= 1
        db.recovery_processor.acknowledge_finished()
        run_transfers(db, 4, logging="command")
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        replay = db.last_command_replay
        assert replay["commands_replayed"] == 4
        assert replay["commands_skipped"] == 0  # settled ones were pruned
        assert logical_digest(db) == expected
        assert total_balance(db, accounts) == ACCOUNTS * OPENING

    @pytest.mark.parametrize("live_after_sweep", [0, 4])
    def test_unusable_image_of_settled_relation_refuses_history(
        self, live_after_sweep
    ):
        """Settled command effects exist only in the swept images, so a
        torn one cannot be survived by history replay — neither by the
        restart's own rebuild nor by the replay planner's (which loads
        the closure first when commands are still live)."""
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 6, logging="command")
        with db.transaction() as txn:
            target = accounts.lookup(txn, 0).address.partition_address
        bin_ = db.slt.bin_for_partition(target)
        db.slt.mark_for_checkpoint(bin_.bin_index, "test")
        db.checkpoint_queue.submit(target, bin_.bin_index, "test")
        assert db.checkpoints.process_pending() >= 1
        db.recovery_processor.acknowledge_finished()
        descriptor = db.catalog.relation("accounts")
        assert descriptor.command_watermark > 0
        run_transfers(db, live_after_sweep, logging="command")
        slot = descriptor.partitions[target.partition].checkpoint_slot
        db.crash()
        db.checkpoint_disk.disk.corrupt_block(slot, "torn")
        with pytest.raises(RecoveryError, match="settled commands"):
            db.restart(RecoveryMode.EAGER)

    @pytest.mark.parametrize("ddl", ["create_index", "drop_relation", "drop_index"])
    def test_ddl_settles_live_commands_first(self, ddl):
        db = Database(small_config())
        make_bank(db)
        db.create_index("accounts_by_balance", "accounts", "balance")
        run_transfers(db, 5, logging="command")
        assert db.stats()["logging"]["live_commands"] == 5
        if ddl == "create_index":
            db.create_index("accounts_by_id2", "accounts", "id")
        elif ddl == "drop_index":
            db.drop_index("accounts_by_balance")
        else:
            db.drop_relation("accounts")
        stats = db.stats()["logging"]
        assert stats["live_commands"] == 0
        assert stats["commands_settled"] == 5


# ---------------------------------------------------------------------------
# the checkpoint disk dies too: restart with the images lost
# ---------------------------------------------------------------------------


class TestMediaRestore:
    """The media restore is the restart sequence handed the log history
    (docs/LOGGING.md, "Media recovery limitation"): unsettled commands
    re-execute from it, and a settled relation — whose command effects
    lived only in the lost images — is refused, never regressed."""

    def test_unsettled_commands_survive_the_media_restore(self):
        rows = {}
        for how in ("restart", "media restore"):
            db = Database(small_config())
            make_bank(db)
            run_transfers(db, 12, logging="command")
            live = db.stats()["logging"]["live_commands"]
            assert live == 12
            db.crash()
            if how == "restart":
                db.restart(RecoveryMode.EAGER)
            else:
                db.checkpoint_disk.disk.destroy()
                restore_after_checkpoint_media_failure(db)
            assert db.last_command_replay["commands_replayed"] == live
            with db.transaction() as txn:
                rows[how] = [
                    (row["id"], row["balance"]) for row in db.table("accounts").scan(txn)
                ]
        assert rows["media restore"] == rows["restart"]
        assert {balance for _, balance in rows["restart"]} == {
            OPENING - 5,
            OPENING,
            OPENING + 5,
        }

    @pytest.mark.parametrize("live_after_sweep", [0, 4])
    def test_settled_relation_is_refused_not_regressed(self, live_after_sweep):
        db = Database(small_config())
        make_bank(db)
        run_transfers(db, 6, logging="command")
        assert db.checkpoints.settle_relation("accounts") == 6
        run_transfers(db, live_after_sweep, logging="command")
        watermark = db.catalog.relation("accounts").command_watermark
        assert watermark > 0
        db.crash()
        db.checkpoint_disk.disk.destroy()
        with pytest.raises(RecoveryError, match=f"watermark {watermark}"):
            restore_after_checkpoint_media_failure(db)
        # ... and by an ordinary restart that finds the images gone
        db.crash()
        with pytest.raises(RecoveryError, match=f"watermark {watermark}"):
            db.restart(RecoveryMode.EAGER)


# ---------------------------------------------------------------------------
# replay failure fences
# ---------------------------------------------------------------------------


class TestReplayFences:
    def _crashed_bank(self):
        db = Database(small_config())
        make_bank(db)
        run_transfers(db, 4, logging="command")
        db.crash()
        return db

    def test_unregistered_script_fails_restart(self):
        db = self._crashed_bank()
        db.scripts.unregister("transfer_accounts")
        with pytest.raises(RecoveryError, match="no such script"):
            db.restart(RecoveryMode.EAGER)

    def test_version_drift_fails_restart(self):
        db = self._crashed_bank()
        db.register_script(
            "transfer_accounts",
            lambda txn, *a: None,
            relations=["accounts"],
            version="2",
        )
        with pytest.raises(RecoveryError, match="version"):
            db.restart(RecoveryMode.EAGER)

    def test_declared_set_drift_fails_restart(self):
        db = Database(small_config())
        make_bank(db)
        db.create_relation("other", [("id", "int")], "id")
        run_transfers(db, 4, logging="command")
        db.crash()
        db.register_script(
            "transfer_accounts",
            lambda txn, *a: None,
            relations=["accounts", "other"],
        )
        with pytest.raises(RecoveryError, match="declare"):
            db.restart(RecoveryMode.EAGER)

    def test_command_logged_transaction_refuses_prepare(self):
        """How a transaction is logged is fixed at begin, and one logged
        by command cannot be drafted into 2PC afterwards."""
        db = Database(small_config())
        make_bank(db)
        txn = db.transactions.begin(
            command=("transfer_accounts", "1", b"[0, 1, 5]"),
            declared_relations=("accounts",),
        )
        record = TxnPrepare(txn.txn_id, "g1", 0, 0, (0, 1)).encode()
        with pytest.raises(TransactionStateError, match="command-logged"):
            txn.prepare(record)
        assert txn.state is TxnState.ACTIVE
        assert txn.txn_id not in db.slb.prepared_txn_ids
        txn.abort()

    def test_sharded_scripts_force_value_mode(self):
        db = Database(small_config(logging_mode="command"))
        db.shard_id = 0
        make_bank(db)
        run_transfers(db, 3)
        commits, _ = db.slb.mode_stats()
        assert "command" not in commits
        assert db.stats()["logging"]["live_commands"] == 0
