"""Crash/restart correctness: the paper's recovery guarantees.

Invariants tested (DESIGN.md section 6): committed data survives any
crash, uncommitted data never does, checkpoints capture only committed
state, partition recovery is independent and demand-driven, and indexes
come back structurally sound.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig


def small_config(**kwargs):
    defaults = dict(
        log_page_size=1024,
        update_count_threshold=40,
        log_window_pages=256,
        log_window_grace_pages=16,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


@pytest.fixture()
def db():
    return Database(small_config())


def make_accounts(db):
    return db.create_relation(
        "accounts",
        [("id", "int"), ("balance", "int"), ("owner", "str")],
        primary_key="id",
    )


class TestDurability:
    def test_committed_inserts_survive(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            for i in range(50):
                accounts.insert(txn, {"id": i, "balance": i, "owner": f"u{i}"})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("accounts")
            for i in range(50):
                row = t.lookup(txn, i)
                assert row is not None and row["balance"] == i

    def test_committed_updates_survive(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            addr = accounts.insert(txn, {"id": 1, "balance": 0, "owner": "a"})
        for value in (10, 20, 30):
            with db.transaction() as txn:
                accounts.update(txn, addr, {"balance": value})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            assert db.table("accounts").lookup(txn, 1)["balance"] == 30

    def test_committed_deletes_survive(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            addr = accounts.insert(txn, {"id": 1, "balance": 0, "owner": "a"})
            accounts.insert(txn, {"id": 2, "balance": 0, "owner": "b"})
        with db.transaction() as txn:
            accounts.delete(txn, addr)
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("accounts")
            assert t.lookup(txn, 1) is None
            assert t.lookup(txn, 2) is not None

    def test_string_values_survive(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            accounts.insert(txn, {"id": 1, "balance": 0, "owner": "x" * 300})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            assert db.table("accounts").lookup(txn, 1)["owner"] == "x" * 300

    def test_uncommitted_work_is_lost(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            accounts.insert(txn, {"id": 1, "balance": 100, "owner": "a"})
        txn = db.transactions.begin()
        accounts.insert(txn, {"id": 2, "balance": 999, "owner": "loser"})
        # crash with txn still active: no commit record ever reached the SLB
        db.crash()
        db.restart()
        with db.transaction() as txn2:
            t = db.table("accounts")
            assert t.lookup(txn2, 1) is not None
            assert t.lookup(txn2, 2) is None

    def test_commit_order_replay(self, db):
        """Updates from different transactions replay in commit order."""
        accounts = make_accounts(db)
        with db.transaction() as txn:
            addr = accounts.insert(txn, {"id": 1, "balance": 0, "owner": "a"})
        for value in range(1, 30):
            with db.transaction(pump=False) as txn:
                accounts.update(txn, addr, {"balance": value})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            assert db.table("accounts").lookup(txn, 1)["balance"] == 29


class TestCheckpointInteraction:
    def _run_updates(self, db, accounts, addrs, rounds):
        for round_ in range(rounds):
            with db.transaction() as txn:
                for i, addr in addrs.items():
                    accounts.update(txn, addr, {"balance": round_ * 100 + i})

    def test_recovery_after_checkpoints(self, db):
        accounts = make_accounts(db)
        addrs = {}
        with db.transaction() as txn:
            for i in range(20):
                addrs[i] = accounts.insert(txn, {"id": i, "balance": 0, "owner": f"u{i}"})
        self._run_updates(db, accounts, addrs, 15)
        assert db.checkpoints.checkpoints_taken > 0
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("accounts")
            for i in range(20):
                assert t.lookup(txn, i)["balance"] == 14 * 100 + i

    def test_checkpoint_never_captures_uncommitted(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            addr = accounts.insert(txn, {"id": 1, "balance": 5, "owner": "a"})
        # dirty the partition inside an open transaction, then force the
        # checkpoint machinery to run: the read lock must defer the copy
        txn = db.transactions.begin()
        accounts.update(txn, addr, {"balance": 666})
        db.recovery_processor.run_until_drained()
        for bin_ in db.slt.bins():
            if bin_.partition.segment == db.catalog.relation("accounts").segment_id:
                db.slt.mark_for_checkpoint(bin_.bin_index, "test")
                db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "test")
        done = db.checkpoints.process_pending()
        # the relation is IX-locked by the writer, so checkpoints defer
        assert done == 0
        assert db.checkpoints.checkpoints_deferred > 0
        txn.abort()
        # after the writer is gone the checkpoint can proceed
        assert db.checkpoints.process_pending() > 0
        db.recovery_processor.acknowledge_finished()
        db.crash()
        db.restart()
        with db.transaction() as txn2:
            assert db.table("accounts").lookup(txn2, 1)["balance"] == 5

    def test_crash_between_finish_and_ack(self, db):
        """A checkpoint that committed but was never acknowledged must not
        replay stale records onto its fresh image."""
        accounts = make_accounts(db)
        addrs = {}
        with db.transaction() as txn:
            for i in range(10):
                addrs[i] = accounts.insert(txn, {"id": i, "balance": 0, "owner": "z"})
        with db.transaction(pump=False) as txn:
            for i in range(10):
                accounts.update(txn, addrs[i], {"balance": 7})
        db.recovery_processor.run_until_drained()
        # force-checkpoint every accounts partition, but crash before the
        # recovery CPU acknowledges (bins not yet reset)
        seg = db.catalog.relation("accounts").segment_id
        for bin_ in db.slt.bins():
            if bin_.partition.segment == seg and bin_.active:
                db.slt.mark_for_checkpoint(bin_.bin_index, "test")
                db.checkpoint_queue.submit(bin_.partition, bin_.bin_index, "test")
        assert db.checkpoints.process_pending() > 0
        assert len(db.checkpoint_queue.finished()) > 0
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("accounts")
            for i in range(10):
                assert t.lookup(txn, i)["balance"] == 7


class TestTwoPhaseRestart:
    def _loaded_db(self):
        db = Database(small_config())
        for name in ("alpha", "beta"):
            rel = db.create_relation(
                name, [("id", "int"), ("v", "int")], primary_key="id"
            )
            with db.transaction() as txn:
                for i in range(60):
                    rel.insert(txn, {"id": i, "v": i * 2})
        return db

    def test_on_demand_recovers_only_touched_relation(self):
        db = self._loaded_db()
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        resident_before = db.memory.resident_partition_count()
        with db.transaction(pump=False) as txn:
            row = db.table("alpha").lookup(txn, 5)
            assert row["v"] == 10
        alpha_seg = db.catalog.relation("alpha").segment_id
        beta_seg = db.catalog.relation("beta").segment_id
        assert db.memory.segment(alpha_seg).missing_partitions() == []
        assert db.memory.segment(beta_seg).missing_partitions() != []
        assert db.memory.resident_partition_count() > resident_before

    def test_background_recovery_completes(self):
        db = self._loaded_db()
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        steps = 0
        while not coordinator.fully_recovered:
            assert coordinator.background_step() is not None
            steps += 1
            assert steps < 1000
        with db.transaction() as txn:
            assert db.table("beta").count(txn) == 60

    def test_predeclared_relation_recovery(self):
        db = self._loaded_db()
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        recovered = coordinator.recover_relation("beta")
        assert recovered > 0
        beta_seg = db.catalog.relation("beta").segment_id
        assert db.memory.segment(beta_seg).fully_resident

    def test_eager_mode_restores_everything(self):
        db = self._loaded_db()
        db.crash()
        coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.fully_recovered
        assert coordinator.pending_partitions() == 0

    def test_catalogs_restore_before_transactions(self):
        db = self._loaded_db()
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        assert coordinator.catalog_restore_seconds is not None
        # catalog knows both relations without touching their data
        assert db.catalog.has_relation("alpha")
        assert db.catalog.has_relation("beta")

    def test_recovery_stats_reported(self):
        db = self._loaded_db()
        db.crash()
        coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.partitions_recovered > 0
        assert coordinator.records_replayed > 0


class TestRepeatedCrashes:
    def test_double_crash(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            accounts.insert(txn, {"id": 1, "balance": 11, "owner": "a"})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            accounts2 = db.table("accounts")
            accounts2.insert(txn, {"id": 2, "balance": 22, "owner": "b"})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("accounts")
            assert t.lookup(txn, 1)["balance"] == 11
            assert t.lookup(txn, 2)["balance"] == 22

    def test_second_restart_reads_what_the_first_read(self, db):
        """The decoded-page LRU is main memory: a restart must not find
        the previous restart's decodes waiting for it."""
        accounts = make_accounts(db)
        for start in range(0, 200, 20):
            with db.transaction() as txn:
                for i in range(start, start + 20):
                    accounts.insert(txn, {"id": i, "balance": i, "owner": f"u{i}"})
        reads = []
        for _ in range(2):
            db.crash()
            before = db.log_disk.pages_read, db.log_disk.cache_hits
            coordinator = db.restart(RecoveryMode.EAGER)
            reads.append(
                (
                    db.log_disk.pages_read - before[0],
                    db.log_disk.cache_hits - before[1],
                    coordinator.records_replayed,
                )
            )
        assert reads[0] == reads[1]
        assert reads[0][0] > 0

    def test_crash_during_partial_recovery(self):
        db = Database(small_config())
        for name in ("alpha", "beta"):
            rel = db.create_relation(name, [("id", "int"), ("v", "int")], primary_key="id")
            with db.transaction() as txn:
                for i in range(40):
                    rel.insert(txn, {"id": i, "v": i})
        db.crash()
        db.restart(RecoveryMode.ON_DEMAND)
        with db.transaction(pump=False) as txn:
            db.table("alpha").lookup(txn, 1)  # recover alpha only
        db.crash()  # crash again before beta recovered
        db.restart(RecoveryMode.ON_DEMAND)
        with db.transaction() as txn:
            assert db.table("beta").lookup(txn, 7)["v"] == 7
            assert db.table("alpha").lookup(txn, 3)["v"] == 3

    def test_restart_without_crash_rejected(self, db):
        from repro.common import RecoveryError

        with pytest.raises(RecoveryError):
            db.restart()


class TestIndexRecovery:
    def test_secondary_index_survives(self, db):
        accounts = make_accounts(db)
        db.create_index("by_balance", "accounts", "balance", kind="ttree")
        with db.transaction() as txn:
            for i in range(80):
                accounts.insert(txn, {"id": i, "balance": i % 10, "owner": "o"})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            rows = db.table("accounts").lookup_by(txn, "by_balance", 3)
            assert sorted(r["id"] for r in rows) == [i for i in range(80) if i % 10 == 3]

    def test_recovered_indexes_pass_invariants(self, db):
        accounts = make_accounts(db)
        db.create_index("by_balance", "accounts", "balance", kind="ttree")
        with db.transaction() as txn:
            for i in range(120):
                accounts.insert(txn, {"id": i, "balance": (i * 37) % 50, "owner": "o"})
        db.crash()
        db.restart(RecoveryMode.EAGER)
        for descriptor in db.catalog.indexes():
            index = db.index_object(descriptor, None)
            index.verify_invariants()

    def test_hash_primary_index_survives_growth(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            for i in range(300):
                accounts.insert(txn, {"id": i, "balance": i, "owner": "o"})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("accounts")
            for i in (0, 123, 299):
                assert t.lookup(txn, i)["balance"] == i


class TestTornPages:
    def test_torn_log_page_served_from_mirror(self, db):
        accounts = make_accounts(db)
        with db.transaction() as txn:
            addr = accounts.insert(txn, {"id": 1, "balance": 0, "owner": "a"})
        db.log_disk.disks.primary.inject_torn_write()
        with db.transaction() as txn:
            for i in range(60):  # enough updates to flush a page
                accounts.update(txn, addr, {"balance": i})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            assert db.table("accounts").lookup(txn, 1)["balance"] == 59


class TestPartialDrainCrash:
    def test_crash_mid_drain_loses_nothing(self, db):
        """Crash while the recovery CPU has sorted only part of the
        committed backlog: the rest drains at restart."""
        accounts = make_accounts(db)
        addrs = {}
        with db.transaction() as txn:
            for i in range(20):
                addrs[i] = accounts.insert(txn, {"id": i, "balance": 0, "owner": "o"})
        with db.transaction(pump=False) as txn:
            for i in range(20):
                accounts.update(txn, addrs[i], {"balance": i + 100})
        # sort only a few records, then crash
        db.recovery_processor.step(max_records=7)
        assert db.slb.committed_record_count() > 0
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("accounts")
            for i in range(20):
                assert t.lookup(txn, i)["balance"] == i + 100

    def test_crash_during_recovery_is_restartable(self, db):
        """A second crash landing *inside* restart must leave the system
        restartable, and the eventual recovery must produce exactly the
        same committed state (same oracle digest) as an undisturbed one."""
        from repro.recovery.oracle import RecoveryVerifier
        from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
        from repro.sim.faults import SimulatedCrash

        accounts = make_accounts(db)
        verifier = RecoveryVerifier(db)
        with db.transaction() as txn:
            addrs = {
                i: accounts.insert(txn, {"id": i, "balance": 0, "owner": "o"})
                for i in range(30)
            }
        for i in range(30):
            with db.transaction() as txn:
                accounts.update(txn, addrs[i], {"balance": i + 1})
        expected = verifier.expected_digest()
        db.crash()

        injector = ChaosEngine(ChaosPlan.crash_at(0, "restart.phase2.partition-recovered"))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                db.restart(RecoveryMode.EAGER)
            assert injector.fired[0].point == "restart.phase2.partition-recovered"
            # the nested crash leaves a restartable system ...
            db.crash()
            # ... and the latched rule lets the retry pass the same point
            db.restart(RecoveryMode.EAGER)
        verifier.detach()
        verifier.verify()
        assert verifier.expected_digest() == expected
        with db.transaction() as txn:
            t = db.table("accounts")
            for i in range(30):
                assert t.lookup(txn, i)["balance"] == i + 1

    def test_crash_during_phase1_log_drain_is_restartable(self, db):
        """Same property for a crash in restart phase 1 (log drain), which
        runs before any partition comes back."""
        from repro.recovery.oracle import RecoveryVerifier
        from repro.sim.chaos import ChaosEngine, ChaosPlan, chaos
        from repro.sim.faults import SimulatedCrash

        accounts = make_accounts(db)
        verifier = RecoveryVerifier(db)
        with db.transaction() as txn:
            for i in range(25):
                accounts.insert(txn, {"id": i, "balance": i, "owner": "p"})
        # leave a committed backlog in the SLB so phase 1 has work to do
        with db.transaction(pump=False) as txn:
            accounts.insert(txn, {"id": 99, "balance": 999, "owner": "q"})
        db.crash()

        injector = ChaosEngine(ChaosPlan.crash_at(0, "restart.phase1.log-drained"))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                db.restart()
            db.crash()
            db.restart()
            # on-demand mode: fault the rest in so the digest can be taken
            db.restart_coordinator.recover_everything()
        verifier.detach()
        verifier.verify()
        with db.transaction() as txn:
            assert db.table("accounts").lookup(txn, 99)["balance"] == 999

    def test_hash_index_with_string_keys_survives_splits_and_crash(self, db):
        rel = db.create_relation(
            "users", [("name", "str"), ("age", "int")], primary_key="name"
        )
        with db.transaction() as txn:
            for i in range(150):  # enough to split the hash table
                rel.insert(txn, {"name": f"user-{i:04d}", "age": i % 90})
        db.crash()
        db.restart()
        with db.transaction() as txn:
            t = db.table("users")
            for i in (0, 77, 149):
                row = t.lookup(txn, f"user-{i:04d}")
                assert row is not None and row["age"] == i % 90
        for descriptor in db.catalog.indexes():
            db.index_object(descriptor, None).verify_invariants()
