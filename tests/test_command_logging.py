"""Command logging and dependency-batched replay (docs/LOGGING.md).

The tentpole guarantees tested here: the commit point is unchanged in
every mode, command-mode recovery re-executes the live suffix to the
byte-identical state value logging reaches by REDO, group settlement
sweeps prune the command log, and every drift hazard (missing script, version bump,
declared-set change) fails restart loudly instead of replaying wrong.
"""

import random

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.checkpoint.protocol import RequestState
from repro.common.errors import (
    CheckpointError,
    ConfigurationError,
    RecoveryError,
    StableMemoryFullError,
    TransactionStateError,
)
from repro.db.integrity import verify_integrity
from repro.db.relation import UniqueViolation
import repro.recovery.restart as restart_module
from repro.recovery import restore_after_checkpoint_media_failure
from repro.recovery.oracle import logical_digest
from repro.recovery.redo import partition_record_stream, plan_rebuild
from repro.sim.chaos import (
    ChaosEngine,
    ChaosPlan,
    chaos,
    crash_restart_verify,
    registered_crash_points,
)
from repro.sim.faults import SimulatedCrash
from repro.txn.registry import ScriptError, ScriptRegistry
from repro.txn.transaction import TxnState
from repro.wal.records import CommandBarrier, SweepMarker, TxnPrepare
from tests import record_bytes, refuse_records


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


def run_interleaved(db, count, name="accounts"):
    """Transfers logged by command every third, by value otherwise: the
    command barriers fall between value records, across flushed pages."""
    for i in range(count):
        db.run_script(
            f"transfer_{name}",
            i % ACCOUNTS,
            (i + 3) % ACCOUNTS,
            5,
            logging="command" if i % 3 == 0 else "value",
        )


def request_checkpoint(db, accounts):
    """Queue a checkpoint request for account 0's partition; returns it."""
    with db.transaction() as txn:
        target = accounts.lookup(txn, 0).address.partition_address
    bin_ = db.slt.bin_for_partition(target)
    db.slt.mark_for_checkpoint(bin_.bin_index, "test")
    db.checkpoint_queue.submit(target, bin_.bin_index, "test")
    return target


def sweep(db, accounts):
    """Settle the relation's closure by a group sweep and acknowledge it;
    returns the partition whose checkpoint request started it."""
    target = request_checkpoint(db, accounts)
    assert db.checkpoints.process_pending() >= 1
    db.recovery_processor.acknowledge_finished()
    return target


def refuse_sweep_markers(db):
    """Make ``db``'s SLB refuse every sweep marker; returns the refused records."""
    append = db.slb.append
    refused = []

    def refuse_markers(txn_id, record):
        if record[0] == SweepMarker.TAG:
            refused.append(record)
            raise StableMemoryFullError("no room for a sweep marker")
        append(txn_id, record)

    db.slb.append = refuse_markers
    return refused


def flushed_tags(db):
    """The TAG of every record on a flushed page of every bin."""
    return [
        record[0]
        for bin_ in db.slt.bins()
        for page in partition_record_stream(bin_, db.log_disk)[0][:-1]
        for record in record_bytes(page.body)
    ]


def four_closures():
    """Three banks with four command-logged transfers each, plus a
    two-relation script over ``left`` and ``right`` run twice: four
    closures, 14 live commands.  Returns the database and a model of
    every row — relation -> key -> balance (banks) or v — as the scripts
    left it."""
    db = Database(small_config())
    model = {}
    for i in range(3):
        make_bank(db, name=f"bank{i}")
        run_transfers(db, 4, name=f"bank{i}", logging="command")
        model[f"bank{i}"] = transferred(4)
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
    db.run_script("cross", 2, logging="command")
    db.run_script("cross", 3, logging="command")
    model.update(left={1: 5}, right={1: -5})
    return db, model


def transferred(count, balances=None):
    """The balances ``run_transfers(db, count)`` leaves from ``balances``
    (opening balances by default), updated in place."""
    balances = balances or dict.fromkeys(range(ACCOUNTS), OPENING)
    for i in range(count):
        balances[i % ACCOUNTS] -= 5
        balances[(i + 3) % ACCOUNTS] += 5
    return balances


def stored_rows(db, names=None):
    """relation -> key -> balance or v, for ``names`` (every relation by
    default) read by one scan transaction that does not pump."""
    rows = {}
    with db.transaction(pump=False) as txn:
        for name in names or [descriptor.name for descriptor in db.catalog.relations()]:
            field = "balance" if name.startswith("bank") else "v"
            rows[name] = {row["id"]: row[field] for row in db.table(name).scan(txn)}
    return rows


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
    def test_invalid_mode_rejected(self):
        """The two places a mode is spelled refuse alike, naming the two
        that exist."""
        db = Database(small_config())
        make_bank(db)
        for mode in ("logical", "adaptive"):
            refusal = f"={mode!r}: expected one of value, command$"
            with pytest.raises(ConfigurationError, match="^logging" + refusal):
                db.run_script("transfer_accounts", 0, 1, 5, logging=mode)
            with pytest.raises(ConfigurationError, match="^logging_mode" + refusal):
                SystemConfig(logging_mode=mode)

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

    def test_logged_bytes_are_the_encoded_records(self):
        """A seeded mix of value- and command-logged transfers over a
        relation named in multi-byte UTF-8: the logged volume is what it
        was while the command log held encoded records (the figures
        below were measured then)."""
        rng = random.Random(47)
        db = Database(small_config())
        make_bank(db, name="kontö")
        for _ in range(40):
            src, dst = rng.sample(range(ACCOUNTS), 2)
            db.run_script(
                "transfer_kontö", src, dst, rng.randint(1, 999),
                logging=rng.choice(["command", "value"]),
            )
        stats = db.stats()
        assert stats["logging"]["mode_commits"] == {"value": 25, "command": 18}
        assert stats["logging"]["mode_bytes"] == {"value": 7177, "command": 2106}
        assert stats["slb_bytes_written"] == 9283
        assert [command.csn for command in db.slb.live_commands()] == list(range(1, 19))

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
# recovery: digest identity across modes
# ---------------------------------------------------------------------------


def _run_to_digest(mode):
    db = Database(small_config(logging_mode=mode))
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


class TestDigestIdentity:
    @pytest.mark.parametrize("mode", ["value", "command"])
    def test_recovery_is_exact_per_mode(self, mode):
        expected, recovered, replay, settled = _run_to_digest(mode)
        assert recovered == expected
        if mode == "value":
            assert replay is None  # no live command, no replay plan
        else:
            # a mid-workload sweep may have settled a prefix already
            assert replay["commands_replayed"] == 24 - settled
            assert replay["commands_replayed"] > 0

    def test_modes_converge(self):
        digests = set()
        for mode in ("value", "command"):
            expected, recovered, _, _ = _run_to_digest(mode)
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

    @pytest.mark.parametrize("mode", ["command", "value"])
    def test_script_survives_a_key_collision(self, mode):
        """A statement that patched a tuple and moved a heap string, then
        hit a primary-key collision, is rewound from UNDO alone when no
        REDO record was built beside it — live and at replay."""
        db = Database(small_config())
        notes = db.create_relation(
            "notes", [("id", "int"), ("v", "int"), ("note", "str")], primary_key="id"
        )
        with db.transaction() as txn:
            for key in range(4):
                notes.insert(txn, {"id": key, "v": 0, "note": f"n{key}"})
        rewound = []

        def stored(address):
            partition = db.memory.partition(address.partition_address)
            heap = partition.heap
            return partition.read(address.offset), {h: heap.get(h) for h in heap.handles()}

        def retag(txn, key, taken, note):
            row = notes.lookup(txn, key)
            before = stored(row.address)
            try:
                with txn.statement():
                    notes.update(txn, row.address, {"note": note, "v": row["v"] + 1})
                    notes.update(txn, row.address, {"id": taken})
            except UniqueViolation:
                rewound.append(stored(row.address) == before)
            notes.update(txn, row.address, {"v": row["v"] + 10})

        db.register_script("retag", retag, relations=["notes"])
        db.run_script("retag", 1, 2, "a much longer note", logging=mode)
        db.run_script("retag", 3, 0, "another", logging=mode)
        assert rewound == [True, True]
        with db.transaction() as txn:
            assert [(r["id"], r["v"], r["note"]) for r in notes.scan(txn)] == [
                (0, 0, "n0"), (1, 10, "n1"), (2, 0, "n2"), (3, 10, "n3")
            ]
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        if mode == "command":
            assert db.last_command_replay["commands_replayed"] == 2
            assert rewound == [True] * 4
        else:
            assert db.last_command_replay is None  # no live command, no plan
            assert rewound == [True] * 2

    def test_disjoint_closures_batch_independently(self):
        db, _ = four_closures()
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
        "point, interleaved",
        [
            pytest.param(point, interleaved, id=point + "-interleaved" * interleaved)
            for interleaved in (False, True)
            for point in ("replay.batch.before-command", "replay.batch.command-executed")
        ],
    )
    def test_crash_during_replay_is_recoverable(self, point, interleaved):
        db = Database(small_config())
        accounts = make_bank(db)
        if interleaved:
            run_interleaved(db, 30)
            # barriers mid-page on flushed pages, not only in the bin buffer
            flushed = flushed_tags(db)
            barrier = CommandBarrier.TAG
            assert any(
                tag == barrier and after != barrier for tag, after in zip(flushed, flushed[1:])
            )
        else:
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
        request_checkpoint(db, accounts)
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
        sweep(db, accounts)
        stats = db.stats()["logging"]
        assert stats["sweeps_taken"] == 1
        assert stats["commands_settled"] == 6
        assert stats["live_commands"] == 0
        assert db.catalog.relation("accounts").command_watermark == 6

    def test_a_sweep_whose_markers_the_slb_refuses_is_deferred(self):
        """A pump whose checkpoint escalates to a sweep, on an SLB that
        refuses its markers even after the drain: the checkpoint
        transaction aborts and is deferred like any refused checkpoint.
        Nothing raises, the request stays queued, and the rollback frees
        the claimed slots and restores the descriptors."""
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 6, logging="command")
        target = request_checkpoint(db, accounts)
        deferred = db.checkpoints.checkpoints_deferred
        slots, allocated = db.catalog.image_slots(), db.checkpoint_disk.allocated_slots()
        refused = refuse_sweep_markers(db)
        db.pump()
        assert len(refused) == 2 and refused[0] is refused[1]  # the retry after the drain
        assert db.checkpoints.checkpoints_deferred == deferred + 1
        assert db.checkpoints.sweeps_taken == 0
        assert [(r.partition, r.state) for r in db.checkpoint_queue.entries] == [
            (target, RequestState.REQUEST)
        ]
        assert db.catalog.image_slots() == slots
        assert db.checkpoint_disk.allocated_slots() == allocated
        assert db.stats()["logging"]["live_commands"] == 6
        assert verify_integrity(db) == []
        del db.slb.append
        db.pump()  # the next pass takes the sweep
        assert db.checkpoints.sweeps_taken == 1
        assert db.stats()["logging"]["live_commands"] == 0
        assert verify_integrity(db) == []

    def test_a_refused_whole_database_sweep_leaves_the_catalog_list_as_it_was(self):
        """The whole-database checkpoint publishes the catalog's own new
        slots before its markers: when one is refused, the rollback
        publishes the restored list again."""
        db = Database(small_config())
        make_bank(db)
        run_transfers(db, 6, logging="command")
        db.checkpoints.checkpoint_all()
        run_transfers(db, 3, logging="command")
        refuse_sweep_markers(db)
        with pytest.raises(
            CheckpointError, match=r"deferred: .*log write failed \(no room for a sweep marker\)"
        ):
            db.checkpoints.checkpoint_all()
        assert verify_integrity(db) == []

    def test_replay_over_settled_images(self):
        """Commands after a sweep replay on top of the swept images; the
        settled prefix is never re-executed."""
        db = Database(small_config())
        accounts = make_bank(db)
        run_transfers(db, 6, logging="command")
        sweep(db, accounts)
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
        target = sweep(db, accounts)
        descriptor = db.catalog.relation("accounts")
        assert descriptor.command_watermark > 0
        run_transfers(db, live_after_sweep, logging="command")
        slot = descriptor.partitions[target.partition]
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
# the update-count trigger sees command-logged work
# ---------------------------------------------------------------------------


def bin_counts(db):
    return {bin_.partition: bin_.update_count for bin_ in db.slt.bins()}


class TestUpdateCount:
    """A command counts toward its partitions' update counts what its
    value-logged twin deposits there (section 2.4's trigger), so the
    ordinary trigger's settlement sweeps bound the live command suffix."""

    @staticmethod
    def edited(mode):
        """One script that patches, moves a heap string, inserts, deletes
        and rewinds a colliding statement; the bin counts it added."""
        db = Database(small_config())
        notes = db.create_relation(
            "notes", [("id", "int"), ("v", "int"), ("note", "str")], primary_key="id"
        )
        with db.transaction() as txn:
            for key in range(6):
                notes.insert(txn, {"id": key, "v": 0, "note": f"n{key}"})

        def edit(txn):
            row = notes.lookup(txn, 1)
            notes.update(txn, row.address, {"v": 7, "note": "a much longer note"})
            try:
                with txn.statement():
                    notes.update(txn, row.address, {"note": "gone again"})
                    notes.update(txn, row.address, {"id": 2})
            except UniqueViolation:
                pass
            notes.insert(txn, {"id": 9, "v": 1, "note": "new"})
            notes.delete(txn, notes.lookup(txn, 4).address)

        db.register_script("edit", edit, relations=["notes"])
        db.recovery_processor.run_until_drained()
        before = bin_counts(db)
        db.run_script("edit", logging=mode)
        db.recovery_processor.run_until_drained()
        return db, {p: count - before.get(p, 0) for p, count in bin_counts(db).items()}

    def test_a_command_counts_what_its_value_twin_deposits(self):
        _, value = self.edited("value")
        db, command = self.edited("command")
        assert set(command) == set(value)
        closure = {
            address
            for member in (db.catalog.relation("notes"), *db.catalog.indexes_of("notes"))
            for address in member.partition_addresses()
        }
        for partition, deposited in value.items():
            if partition in closure:
                # a closure partition the command did not touch counts its barrier
                assert command[partition] == (deposited or 1), partition
            else:
                assert command[partition] == deposited == 0, partition
        assert max(value.values()) > 1

    def test_the_trigger_bounds_the_live_suffix(self):
        """At the Table-2 threshold a transfer's two changes count two, so
        the trigger sweeps the accounts closure every 500 commands at most
        (update_count_threshold / 2), and restart replays no more.  No
        grace pages: no age trigger sweeps instead."""
        db = Database(SystemConfig(log_window_grace_pages=0))
        accounts = make_bank(db)
        run_transfers(db, 900, logging="command")
        bound = db.config.update_count_threshold // 2
        assert db.checkpoints.sweeps_taken >= 1
        live = len(db.slb.live_commands())
        assert 0 < live < bound
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == live
        assert logical_digest(db) == expected
        assert total_balance(db, accounts) == ACCOUNTS * OPENING

    def test_a_crash_after_the_commit_point_keeps_the_counts(self):
        """Barriers still in the SLB at a crash are sorted in by restart
        with the changes they carry: the bins end as without the crash."""

        def counts(crash):
            db = Database(small_config())
            accounts = make_bank(db)
            run_transfers(db, 5, logging="command")
            if crash:
                injector = ChaosEngine(ChaosPlan.crash_at(0, "txn.commit.command-emitted"))
                with chaos(injector):
                    with pytest.raises(SimulatedCrash):
                        db.run_script("transfer_accounts", 0, 1, 50, logging="command")
                assert injector.fired
                db.crash()
                db.restart(RecoveryMode.EAGER)
            else:
                db.run_script("transfer_accounts", 0, 1, 50, logging="command")
            db.recovery_processor.run_until_drained()
            with db.transaction() as txn:
                target = accounts.lookup(txn, 0).address.partition_address
            return target, bin_counts(db)

        (target, crashed), (_, clean) = counts(True), counts(False)
        assert crashed == clean
        assert clean[target] == ACCOUNTS + 2 * 6  # the load, then two per transfer

    def test_a_checkpoint_leaves_a_command_counted_as_its_twin(self):
        """A command committed between a checkpoint and its acknowledgement
        ends counted as its value twin: the checkpoint archives it with the
        bin's other leftovers."""

        def run(mode):
            db = Database(small_config(log_page_size=512))
            accounts = make_bank(db)
            run_transfers(db, 60)
            db.recovery_processor.run_until_drained()
            with db.transaction() as txn:
                target = accounts.lookup(txn, 0).address.partition_address
            bin_ = db.slt.bin_for_partition(target)
            db.slt.mark_for_checkpoint(bin_.bin_index, "test")
            db.checkpoint_queue.submit(target, bin_.bin_index, "test")
            assert db.checkpoints.process_pending() == 1
            db.run_script("transfer_accounts", 0, 1, 5, logging=mode, pump=False)
            db.recovery_processor.run_until_drained()
            db.recovery_processor.acknowledge_finished()
            return bin_.update_count

        assert run("value") == run("command")


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
                totals = restore_after_checkpoint_media_failure(db)
                # the replay planner's history rebuilds are counted and
                # charged like everyone else's
                assert totals["partitions_rebuilt"] == len(db.catalog.partition_addresses())
                params = db.config.analysis
                assert db.recovery_cpu.instructions_in("media-replay") == (
                    params.i_record_lookup + params.i_page_update
                ) * totals["records_applied"]
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
    def test_settled_relation_is_refused_not_regressed(
        self, live_after_sweep
    ):
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
# command replay walks page bytes and is tallied like any rebuild
# ---------------------------------------------------------------------------


class TestReplayFromPageBytes:
    @staticmethod
    def crashed_db():
        """Two banks whose streams put both cursors on flushed pages:
        ``accounts`` holds live commands between value transactions,
        ``swept`` a settlement sweep whose marker went to disk ahead of
        value records, then two live commands of its own."""
        db = Database(small_config())
        make_bank(db)
        swept = make_bank(db, "swept")
        run_transfers(db, 6, name="swept", logging="command")
        sweep(db, swept)
        run_interleaved(db, 36)
        run_transfers(db, 20, name="swept", logging="value")
        run_transfers(db, 2, name="swept", logging="command")
        assert {CommandBarrier.TAG, SweepMarker.TAG} <= set(flushed_tags(db))
        digest = logical_digest(db)
        db.crash()
        return db, digest

    def test_eager_restart_with_the_decoder_disabled(self, monkeypatch):
        twin, digest = self.crashed_db()
        expected = twin.restart(RecoveryMode.EAGER)
        assert logical_digest(twin) == digest

        db, _ = self.crashed_db()
        refuse_records(monkeypatch)
        coordinator = db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 14
        assert logical_digest(db) == digest
        assert coordinator.records_replayed == expected.records_replayed > 0

    def test_planner_rebuilds_are_tallied(self):
        """Every catalogued partition is counted once, whether phase 1,
        the replay planner or phase 2 rebuilt it, and the planner counts
        the records it applied — not the barriers its cursor halted at."""
        db, _ = self.crashed_db()
        coordinator = db.restart(RecoveryMode.EAGER)
        restart = db.stats()["restart"]
        addresses = db.catalog.partition_addresses()
        assert restart["partitions_recovered"] == sum(restart["sources"].values())
        assert restart["partitions_recovered"] == len(addresses)
        records = pages_read = 0
        for address in addresses:
            _, pages, stats = plan_rebuild(**coordinator._sources(address))
            pages_read += stats["pages_read"] + stats["backward_reads"]
            records += sum(
                record[0] != CommandBarrier.TAG
                for page in pages
                for record in record_bytes(page.body)
            )
        assert restart["records_replayed"] == records
        assert restart["pages_read"] == pages_read > 0


# ---------------------------------------------------------------------------
# lazy replay: a closure replays whole when first touched
# ---------------------------------------------------------------------------

REPLAY_POINTS = ["replay.batch.before-command", "replay.batch.command-executed"]


def pending(db):
    """The relations whose command closure has not replayed yet."""
    closures = db.restart_coordinator.closures
    return {d.name for d in db.catalog.relations() if d.segment_id in closures}


def scan_one(db, model):
    assert stored_rows(db, ["bank1"]) == {"bank1": model["bank1"]}
    return {"bank1"}


def insert_one(db, model):
    with db.transaction(pump=False) as txn:
        db.table("bank1").insert(txn, {"id": ACCOUNTS, "balance": 7})
    model["bank1"][ACCOUNTS] = 7
    return {"bank1"}


def value_script(db, model):
    db.run_script("transfer_bank1", 0, 3, 5, logging="value", pump=False)
    transferred(1, balances=model["bank1"])
    return {"bank1"}


def merging_command(db, model):
    """A command script declaring two relations whose closures are both
    still pending."""
    bank0, bank2 = db.table("bank0"), db.table("bank2")

    def merge(txn, amount):
        a = bank0.lookup(txn, 0)
        bank0.update(txn, a.address, {"balance": a["balance"] - amount})
        b = bank2.lookup(txn, 0)
        bank2.update(txn, b.address, {"balance": b["balance"] + amount})

    db.register_script("merge", merge, relations=["bank0", "bank2"])
    db.run_script("merge", 5, logging="command", pump=False)
    model["bank0"][0] -= 5
    model["bank2"][0] += 5
    return {"bank0", "bank2"}


def drop_one(db, model):
    db.drop_relation("bank1")
    del model["bank1"]
    return {"bank1"}


def checkpoint_everything(db, model):
    db.checkpoints.checkpoint_all()
    return set(model)


WINDOW = {
    "scan": scan_one,
    "insert": insert_one,
    "value-script": value_script,
    "merging-command": merging_command,
    "drop-relation": drop_one,
    "checkpoint-all": checkpoint_everything,
}


class TestLazyReplay:
    """An on-demand restart plans the live commands into closures and
    replays none; each replays whole on its first touch, through the
    restore loop or the relation-lock and settlement fences."""

    @pytest.mark.parametrize("action", list(WINDOW))
    def test_the_window_recovers_exactly(self, action):
        db, model = four_closures()
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        assert pending(db) == set(model)
        replayed = WINDOW[action](db, model)
        assert not pending(db) & replayed
        assert pending(db) or action == "checkpoint-all"
        coordinator.recover_everything()
        assert stored_rows(db) == model
        expected = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        assert stored_rows(db) == model
        assert verify_integrity(db) == []

    def test_a_touch_replays_exactly_its_closure(self, monkeypatch):
        db, _ = four_closures()
        live = len(db.slb.live_commands())
        replay, calls = restart_module.replay_live_commands, []

        def counted(db, batch):
            calls.append(len(batch))
            return replay(db, batch)

        monkeypatch.setattr(restart_module, "replay_live_commands", counted)
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        assert calls == [] and db.last_command_replay["commands_replayed"] == 0
        stored_rows(db, ["bank1"])
        assert calls == [4]
        assert db.last_command_replay["commands_replayed"] == 4
        coordinator.recover_everything()
        assert sorted(calls) == [2, 4, 4, 4]
        assert db.last_command_replay["commands_replayed"] == live == 14

    @pytest.mark.parametrize("point", REPLAY_POINTS)
    def test_a_crash_inside_a_replay_a_touch_started(self, point):
        db, model = four_closures()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        injector = ChaosEngine(ChaosPlan.crash_at(0, point))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                stored_rows(db, ["bank1"])
            assert injector.fired[0].point == point
            db.crash()
            db.restart(RecoveryMode.EAGER)
        assert stored_rows(db) == model
        assert verify_integrity(db) == []

    @pytest.mark.parametrize("point", REPLAY_POINTS)
    def test_a_crash_inside_a_replay_the_background_started(self, point):
        """The on-demand restart replays nothing, so the point fires in
        the ``recover_everything`` that follows it."""
        db, model = four_closures()
        injector = ChaosEngine(ChaosPlan.crash_at(0, point))
        attempts = crash_restart_verify(
            [db],
            lambda: run_transfers(db, 3, name="bank2", logging="command"),
            injector,
            RecoveryMode.ON_DEMAND,
        )
        assert attempts == 2 and injector.fired[0].point == point
        transferred(3, balances=model["bank2"])
        assert stored_rows(db) == model

    def test_a_crash_after_a_command_on_a_replayed_closure(self):
        """One closure replayed and given a new command, the others still
        pending: the next restart replays old and new alike."""
        db, model = four_closures()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        run_transfers(db, 2, name="bank0", logging="command", pump=False)
        transferred(2, balances=model["bank0"])
        assert pending(db) == {"bank1", "bank2", "left", "right"}
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert db.last_command_replay["commands_replayed"] == 16
        assert stored_rows(db) == model
        assert verify_integrity(db) == []

    def test_a_failed_replay_leaves_its_closure_pending(self):
        """A replay that fails part-way restores nothing: its closure is
        pending again, the index objects it built are gone, and a lookup
        once the script is fixed replays it whole."""
        db, model = four_closures()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        script, calls = db.scripts.get("transfer_bank1"), []

        def fails_second(txn, *args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("second call refused")
            script.fn(txn, *args)

        db.register_script("transfer_bank1", fails_second, relations=script.relations)
        with pytest.raises(RecoveryError, match="second call refused"):
            stored_rows(db, ["bank1"])
        assert "bank1" in pending(db)
        assert db.memory.segment(db.catalog.relation("bank1").segment_id).missing_partitions()
        db.register_script("transfer_bank1", script.fn, relations=script.relations)
        with db.transaction(pump=False) as txn:
            assert db.table("bank1").lookup(txn, 3)["balance"] == model["bank1"][3]
        db.restart_coordinator.recover_everything()
        assert stored_rows(db) == model


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
        record = TxnPrepare(txn.txn_id, "g1", 0, 0, (0, 1))
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
