"""Hypothesis stateful test: random DML interleaved with crashes.

A rule-based state machine drives the real database with inserts,
updates, deletes, aborts, aborted DDL, checkpoint attempts whose image
write fails, crash/restart cycles (in both recovery modes), crashes that
take the checkpoint disk along (media restore), pumps and background
recovery steps, checking after every step that the database matches a
plain-dict model of the committed state.
"""

import pytest

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import Database, RecoveryMode, SystemConfig
from repro.common import CatalogError
from repro.common.errors import MediaFailure
from repro.db.integrity import verify_integrity
from repro.recovery import restore_after_checkpoint_media_failure
from repro.sim.chaos import FAULT, ChaosEngine, ChaosPlan, ChaosRule, chaos


class MmdbMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = None
        self.model = {}
        self.addresses = {}
        self.next_key = 0

    @initialize()
    def setup(self):
        config = SystemConfig(
            log_page_size=1024,
            update_count_threshold=30,
            log_window_pages=512,
            log_window_grace_pages=32,
            io_retry_budget=0,  # failed_checkpoint: one fault escalates
        )
        self.db = Database(config)
        self.relation = self.db.create_relation(
            "kv", [("k", "int"), ("v", "int"), ("s", "str")], primary_key="k"
        )

    def _table(self):
        return self.db.table("kv")

    @rule(value=st.integers(-1000, 1000))
    def insert(self, value):
        key = self.next_key
        self.next_key += 1
        with self.db.transaction(pump=False) as txn:
            self.addresses[key] = self._table().insert(
                txn, {"k": key, "v": value, "s": f"s{key}"}
            )
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data(), value=st.integers(-1000, 1000))
    def update(self, data, value):
        key = data.draw(st.sampled_from(sorted(self.model)))
        with self.db.transaction(pump=False) as txn:
            self._table().update(txn, self.addresses[key], {"v": value})
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        with self.db.transaction(pump=False) as txn:
            self._table().delete(txn, self.addresses[key])
        del self.model[key]
        del self.addresses[key]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), value=st.integers(-1000, 1000))
    def aborted_update(self, data, value):
        key = data.draw(st.sampled_from(sorted(self.model)))
        txn = self.db.transactions.begin()
        self._table().update(txn, self.addresses[key], {"v": value})
        txn.abort()
        # model unchanged

    @rule(what=st.sampled_from(["relation", "index"]))
    def aborted_ddl(self, what):
        """Either DDL creates its segment and descriptor, then fails."""
        with pytest.raises(CatalogError):
            if what == "relation":
                self.db.create_relation(
                    "ghost", [("k", "int")], primary_key="k", primary_index="bogus"
                )
            else:
                self.db.create_index("kv__pk", "kv", "v")  # name is taken

    @rule(data=st.data())
    def failed_checkpoint(self, data):
        """Request a checkpoint of any partition (catalog, relation or
        index) and fail its image write once; a later pump retries."""
        bin_ = data.draw(st.sampled_from(self.db.slt.bins()))
        self.db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "test")
        rule = ChaosRule("checkpoint.image.write", FAULT)
        with chaos(ChaosEngine(ChaosPlan(0, (rule,)))):
            try:
                self.db.pump()
            except MediaFailure:
                pass

    @rule()
    def pump(self):
        self.db.pump()

    @rule(mode=st.sampled_from([RecoveryMode.ON_DEMAND, RecoveryMode.EAGER]))
    def crash_and_restart(self, mode):
        self.db.crash()
        self.db.restart(mode)

    @rule()
    def crash_and_lose_the_checkpoint_disk(self):
        self.db.crash()
        self.db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(self.db)

    @precondition(lambda self: self.db is not None and self.db.restart_coordinator)
    @rule()
    def background_recovery_step(self):
        self.db.restart_coordinator.background_step()

    @invariant()
    def database_matches_model(self):
        if self.db is None:
            return
        with self.db.transaction(pump=False) as txn:
            rows = {row["k"]: row["v"] for row in self._table().scan(txn)}
        assert rows == self.model

    @invariant()
    def full_integrity_audit(self):
        if self.db is None:
            return
        assert verify_integrity(self.db) == []

    @invariant()
    def primary_index_consistent(self):
        if self.db is None or not self.model:
            return
        some_key = sorted(self.model)[0]
        with self.db.transaction(pump=False) as txn:
            row = self._table().lookup(txn, some_key)
        assert row is not None and row["v"] == self.model[some_key]
        assert row["s"] == f"s{some_key}"


MmdbMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestMmdbMachine = MmdbMachine.TestCase
