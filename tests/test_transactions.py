"""Tests for transaction semantics: commit, abort/UNDO, locks, scoping."""

import dataclasses

import pytest

from repro import Database, SystemConfig, UniqueViolation
from repro.common import TransactionAborted, TransactionStateError
from repro.common.errors import RecoveryError
from repro.concurrency.locks import LockMode
from repro.recovery.replay_plan import ReplayTransaction, reexecute
from repro.sim.faults import SimulatedCrash
from repro.txn.transaction import TxnState
from repro.wal.records import TxnPrepare


@pytest.fixture()
def db():
    database = Database()
    database.create_relation(
        "accounts",
        [("id", "int"), ("balance", "int"), ("owner", "str")],
        primary_key="id",
    )
    return database


def insert_account(db, txn, id_, balance=100, owner="alice"):
    return db.table("accounts").insert(
        txn, {"id": id_, "balance": balance, "owner": owner}
    )


class TestCommit:
    def test_commit_is_instant_no_log_disk_io(self, db):
        pages_before = db.log_disk.pages_written
        with db.transactions.scope() as txn:
            insert_account(db, txn, 1)
        # commit itself forced nothing to the log disk
        assert db.log_disk.pages_written == pages_before

    def test_commit_releases_locks(self, db):
        with db.transactions.scope() as txn:
            address = insert_account(db, txn, 1)
            assert db.locks.holds(txn.txn_id, address, LockMode.EXCLUSIVE)
        assert db.locks.locks_held(txn.txn_id) == set()

    def test_commit_moves_chain_to_committed_list(self, db):
        with db.transaction() as txn:  # the first insert also commits the segment's growth
            insert_account(db, txn, 0)
        before = db.slb.committed_chain_count
        with db.transactions.scope() as txn:
            insert_account(db, txn, 1)
        assert db.slb.committed_chain_count == before + 1

    def test_double_commit_rejected(self, db):
        txn = db.transactions.begin()
        insert_account(db, txn, 1)
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.commit()

    def test_write_after_commit_rejected(self, db):
        txn = db.transactions.begin()
        txn.commit()
        with pytest.raises(TransactionStateError):
            insert_account(db, txn, 1)


class TestAbort:
    def test_abort_undoes_insert(self, db):
        txn = db.transactions.begin()
        insert_account(db, txn, 1)
        txn.abort()
        with db.transaction() as txn2:
            assert db.table("accounts").lookup(txn2, 1) is None

    def test_abort_undoes_update(self, db):
        with db.transaction() as txn:
            address = insert_account(db, txn, 1, balance=100)
        txn2 = db.transactions.begin()
        db.table("accounts").update(txn2, address, {"balance": 999})
        txn2.abort()
        with db.transaction() as txn3:
            assert db.table("accounts").lookup(txn3, 1)["balance"] == 100

    def test_abort_undoes_delete(self, db):
        with db.transaction() as txn:
            address = insert_account(db, txn, 1, owner="bob")
        txn2 = db.transactions.begin()
        db.table("accounts").delete(txn2, address)
        txn2.abort()
        with db.transaction() as txn3:
            row = db.table("accounts").lookup(txn3, 1)
            assert row is not None and row["owner"] == "bob"

    def test_abort_undoes_string_heap_changes(self, db):
        with db.transaction() as txn:
            address = insert_account(db, txn, 1, owner="original")
        txn2 = db.transactions.begin()
        db.table("accounts").update(txn2, address, {"owner": "changed"})
        txn2.abort()
        with db.transaction() as txn3:
            assert db.table("accounts").lookup(txn3, 1)["owner"] == "original"

    def test_abort_restores_index_entries(self, db):
        with db.transaction() as txn:
            insert_account(db, txn, 1)
        txn2 = db.transactions.begin()
        insert_account(db, txn2, 2)
        insert_account(db, txn2, 3)
        txn2.abort()
        with db.transaction() as txn3:
            t = db.table("accounts")
            assert t.lookup(txn3, 1) is not None
            assert t.lookup(txn3, 2) is None
            assert t.lookup(txn3, 3) is None

    def test_abort_discards_redo_chain(self, db):
        txn = db.transactions.begin()
        insert_account(db, txn, 1)
        committed_before = db.slb.committed_chain_count
        txn.abort()
        assert db.slb.committed_chain_count == committed_before
        assert db.slb.aborts >= 1

    def test_scope_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                insert_account(db, txn, 1)
                raise RuntimeError("client bug")
        with db.transaction() as txn:
            assert db.table("accounts").lookup(txn, 1) is None
        assert db.stats()["transactions_aborted"] == 1


class TestLocking:
    def test_conflicting_writers_abort(self, db):
        with db.transaction() as setup:
            address = insert_account(db, setup, 1)
        txn_a = db.transactions.begin()
        db.table("accounts").update(txn_a, address, {"balance": 1})
        txn_b = db.transactions.begin()
        with pytest.raises(TransactionAborted):
            db.table("accounts").update(txn_b, address, {"balance": 2})
        assert txn_b.state is TxnState.ABORTED
        txn_a.commit()
        with db.transaction() as txn:
            assert db.table("accounts").lookup(txn, 1)["balance"] == 1

    def test_readers_share(self, db):
        with db.transaction() as setup:
            address = insert_account(db, setup, 1)
        txn_a = db.transactions.begin()
        txn_b = db.transactions.begin()
        assert db.table("accounts").read(txn_a, address)["id"] == 1
        assert db.table("accounts").read(txn_b, address)["id"] == 1
        txn_a.commit()
        txn_b.commit()

    def test_reader_blocks_writer(self, db):
        with db.transaction() as setup:
            address = insert_account(db, setup, 1)
        txn_a = db.transactions.begin()
        db.table("accounts").read(txn_a, address)
        txn_b = db.transactions.begin()
        with pytest.raises(TransactionAborted):
            db.table("accounts").update(txn_b, address, {"balance": 5})
        txn_a.commit()

    def test_aborted_txn_lock_error_carries_id(self, db):
        with db.transaction() as setup:
            address = insert_account(db, setup, 1)
        txn_a = db.transactions.begin()
        db.table("accounts").update(txn_a, address, {"balance": 1})
        txn_b = db.transactions.begin()
        with pytest.raises(TransactionAborted) as excinfo:
            db.table("accounts").update(txn_b, address, {"balance": 2})
        assert excinfo.value.txn_id == txn_b.txn_id
        txn_a.commit()


class TestUniqueness:
    def test_duplicate_primary_key_rejected(self, db):
        with db.transaction() as txn:
            insert_account(db, txn, 1)
        with pytest.raises(UniqueViolation):
            with db.transaction() as txn:
                insert_account(db, txn, 1)
        # the failed transaction rolled back cleanly
        with db.transaction() as txn:
            assert db.table("accounts").count(txn) == 1

    def test_update_to_existing_key_rejected(self, db):
        with db.transaction() as txn:
            insert_account(db, txn, 1)
            address = insert_account(db, txn, 2)
        with pytest.raises(UniqueViolation):
            with db.transaction() as txn:
                db.table("accounts").update(txn, address, {"id": 1})

    def test_update_key_to_same_value_allowed(self, db):
        with db.transaction() as txn:
            address = insert_account(db, txn, 1)
        with db.transaction() as txn:
            db.table("accounts").update(txn, address, {"id": 1})


class TestUndoSpaceAccounting:
    def test_undo_grows_and_clears(self, db):
        txn = db.transactions.begin()
        insert_account(db, txn, 1)
        assert txn.undo_record_count > 0
        txn.commit()
        assert txn.undo_record_count == 0

    def test_manager_counts(self, db):
        with db.transaction() as txn:
            insert_account(db, txn, 1)
        txn2 = db.transactions.begin()
        txn2.abort()
        # +2 for DDL transactions from the fixture
        stats = db.stats()
        assert stats["transactions_committed"] >= 2
        assert stats["transactions_aborted"] == 1
        assert stats["transactions_active"] == db.transactions.active_count == 0


class TestScopeEdgeCases:
    def test_abort_inside_scope_without_exception_rejected(self, db):
        with pytest.raises(TransactionStateError):
            with db.transactions.scope() as txn:
                txn.abort()  # silent abort inside a successful scope

    def test_commit_inside_scope_is_fine(self, db):
        with db.transactions.scope() as txn:
            insert_account(db, txn, 77)
            txn.commit()  # early explicit commit
        with db.transaction() as txn2:
            assert db.table("accounts").lookup(txn2, 77) is not None

    def test_user_data_flows_to_audit(self, db):
        txn = db.transactions.begin(user_data="batch import #9")
        txn.commit()
        entries = db.audit.entries_for(txn.txn_id)
        assert entries[0].user_data == "batch import #9"


# ---------------------------------------------------------------------------
# the lifecycle table: every way a transaction can end (docs/INTERNALS.md,
# "How a transaction ends")
# ---------------------------------------------------------------------------


def _lifecycle_db():
    database = Database(SystemConfig())
    accounts = database.create_relation(
        "accounts",
        [("id", "int"), ("balance", "int"), ("owner", "str")],
        primary_key="id",
    )
    with database.transaction() as txn:
        for i in range(4):
            insert_account(database, txn, i)
    captured = []

    def bump(txn, key, fail=False):
        captured.append(txn)
        row = accounts.lookup(txn, key)
        accounts.update(txn, row.address, {"balance": row["balance"] + 1})
        if fail:
            raise ValueError("script refuses")

    database.register_script("bump", bump, relations=["accounts"])
    return database, accounts, captured


def _end_value_commit(db, accounts, captured):
    with db.transaction(pump=False) as txn:
        insert_account(db, txn, 10)
    return txn


def _end_command_commit(db, accounts, captured):
    db.run_script("bump", 1, logging="command", pump=False)
    return captured[-1]


def _prepared(db):
    txn = db.transactions.begin()
    insert_account(db, txn, 11)
    txn.prepare(TxnPrepare(txn.txn_id, "g1", 0, 0, (0, 1)))
    assert txn.state is TxnState.PREPARED
    assert db.slb.prepared_txn_ids == [txn.txn_id]
    return txn


def _end_prepare_commit(db, accounts, captured):
    txn = _prepared(db)
    txn.commit_prepared()
    return txn


def _end_prepare_abort(db, accounts, captured):
    txn = _prepared(db)
    txn.abort_prepared()
    return txn


def _end_explicit_abort(db, accounts, captured):
    txn = db.transactions.begin()
    insert_account(db, txn, 12)
    txn.abort()
    return txn


def _end_lock_refusal(db, accounts, captured):
    holder = db.transactions.begin()
    row = accounts.lookup(holder, 0)  # SHARED on the tuple, never released
    holder_locks = db.locks.locks_held(holder.txn_id)
    txn = db.transactions.begin()
    insert_account(db, txn, 13)  # something to roll back
    with pytest.raises(TransactionAborted):
        accounts.update(txn, row.address, {"balance": 1})
    assert db.locks.locks_held(holder.txn_id) == holder_locks
    return txn


def _end_statement_rollback_then_commit(db, accounts, captured):
    with db.transaction(pump=False) as txn:
        insert_account(db, txn, 14)
        with pytest.raises(UniqueViolation):
            insert_account(db, txn, 0)  # statement scope rewinds this insert
    return txn


def _logged_command(db, mark, fail):
    """Log one command with a live run, then re-mark so the row sees the
    replay alone; ``fail`` makes the re-execution raise (the arguments
    are edited, the stable log is not)."""
    db.run_script("bump", 2, logging="command", pump=False)
    command = db.commands.live()[-1]
    if fail:
        command = dataclasses.replace(command, args=b"[2, true]")
    mark()
    return command


def _end_replay_commit(db, accounts, captured, mark):
    reexecute(db, _logged_command(db, mark, fail=False))
    return captured[-1]


def _end_replay_abort(db, accounts, captured, mark):
    command = _logged_command(db, mark, fail=True)
    with pytest.raises(RecoveryError, match="script refuses"):
        reexecute(db, command)
    return captured[-1]


def _end_crash_mid_body(db, accounts, captured):
    with pytest.raises(SimulatedCrash):
        with db.transaction(pump=False) as txn:
            insert_account(db, txn, 15)
            raise SimulatedCrash("power loss mid-body")
    return txn


class _Counters:
    """Every counter an ending may move, as deltas since the last mark."""

    def __init__(self, db):
        self.db = db
        self.mark()

    def _read(self):
        db = self.db
        stats = db.stats()
        return {
            "committed": stats["transactions_committed"],
            "aborted": stats["transactions_aborted"],
            "committed_chains": db.slb.committed_chain_count,
            "slb_commits": db.slb.commits,
            "slb_aborts": db.slb.aborts,
            "mode": stats["logging"]["mode_commits"],
        }

    def mark(self):
        self._base = self._read()

    def deltas(self):
        now, base = self._read(), self._base
        moved = {key: now[key] - base[key] for key in now if key != "mode"}
        moved["mode"] = {
            mode: count - base["mode"].get(mode, 0)
            for mode, count in now["mode"].items()
            if count != base["mode"].get(mode, 0)
        }
        return moved


#: ending -> (driver, final state, chain ends up, audit events of the txn,
#:            mode_commits label or None, volatile state released)
LIFECYCLE = {
    "value-commit": (
        _end_value_commit, TxnState.COMMITTED, "committed", ["begin", "commit"], "value", True),
    "command-commit": (
        _end_command_commit, TxnState.COMMITTED, "committed", ["begin", "commit"], "command", True),
    "prepare-commit": (
        _end_prepare_commit, TxnState.COMMITTED, "committed",
        ["begin", "prepare", "commit"], "value", True),
    "prepare-abort": (
        _end_prepare_abort, TxnState.ABORTED, "freed", ["begin", "prepare", "abort"], None, True),
    "explicit-abort": (
        _end_explicit_abort, TxnState.ABORTED, "freed", ["begin", "abort"], None, True),
    "lock-refusal": (
        _end_lock_refusal, TxnState.ABORTED, "freed", ["begin", "abort"], None, True),
    "statement-rollback-then-commit": (
        _end_statement_rollback_then_commit, TxnState.COMMITTED, "committed",
        ["begin", "commit"], "value", True),
    "replay-commit": (
        _end_replay_commit, TxnState.COMMITTED, "none", [], None, True),
    "replay-abort": (
        _end_replay_abort, TxnState.ABORTED, "none", [], None, True),
    "crash-mid-body": (
        _end_crash_mid_body, TxnState.ACTIVE, "uncommitted", ["begin"], None, False),
}


class TestLifecycleTable:
    """One row per ending: what each leaves behind, pinned in one place."""

    @pytest.mark.parametrize("ending", sorted(LIFECYCLE))
    def test_ending(self, ending):
        drive, state, chain, audit, mode, released = LIFECYCLE[ending]
        db, accounts, captured = _lifecycle_db()
        counters = _Counters(db)
        # replay rows log their command with a live run first and re-mark
        replays = chain == "none"
        txn = drive(db, accounts, captured, *([counters.mark] if replays else []))
        durable = state is TxnState.COMMITTED and chain == "committed"
        counted = chain in ("committed", "freed")  # replay/crash: invisible
        delta = counters.deltas()

        assert txn.state is state
        assert isinstance(txn, ReplayTransaction) == (chain == "none")
        assert (txn.undo_record_count == 0) == released
        assert (db.locks.locks_held(txn.txn_id) == set()) == released
        assert (txn.txn_id in db.slb.uncommitted_txn_ids) == (chain == "uncommitted")
        assert txn.txn_id not in db.slb.prepared_txn_ids
        assert delta["committed_chains"] == delta["slb_commits"] == int(durable)
        assert delta["slb_aborts"] == int(chain == "freed")
        assert [e.event for e in db.audit.entries_for(txn.txn_id)] == audit
        assert delta["committed"] == int(durable and counted)
        assert delta["aborted"] == int(state is TxnState.ABORTED and counted)
        assert delta["mode"] == ({mode: 1} if mode else {})
        assert (txn in db.transactions.active_transactions()) == (chain == "uncommitted")
