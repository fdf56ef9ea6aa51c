"""Background condensing (docs/CONDENSING.md): write-behind checkpoints.

The condenser folds settled log pages into per-partition shadow images on
the recovery CPU's idle time, so restart replays only the uncondensed
suffix and age/update-count checkpoints can *flip* the shadow into the
catalog instead of copying the partition.  These tests pin the
correctness contract:

* digests are byte-identical condenser-on vs condenser-off, across both
  engines and every logging mode;
* restart prefers a valid shadow (and therefore survives a torn regular
  image without even reading it), while a torn shadow silently falls
  back to the regular image plus the full log stream;
* flips actually happen and reclaim log-window pages;
* the duty is off by default and observable when on.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.db.integrity import verify_integrity
from repro.db.monitor import status_page
from repro.engine.threaded import ThreadedEngine
from repro.recovery import restore_after_checkpoint_media_failure
from repro.recovery.oracle import logical_digest
from repro.workloads.debit_credit import DebitCreditWorkload

TRANSACTIONS = 60


def make_db(
    condense: bool, engine: str = "sim", mode: str = "value", grace_pages: int = 64
) -> Database:
    config = SystemConfig(
        logging_mode=mode,
        log_page_size=512,
        update_count_threshold=10_000,  # no automatic checkpoints
        log_window_pages=4096,
        log_window_grace_pages=grace_pages,
        condense_enabled=condense,
    )
    eng = ThreadedEngine(workers=2) if engine == "threaded" else None
    return Database(config, engine=eng)


def run_workload(db: Database, transactions: int = TRANSACTIONS) -> None:
    workload = DebitCreditWorkload(
        db,
        branches=2,
        tellers_per_branch=2,
        accounts_per_branch=10,
        seed=11,
    )
    workload.load()
    workload.run(transactions)
    db.pump()


def drain_condenser(db: Database) -> int:
    pages = 0
    while True:
        step = db.condenser.step()
        if not step:
            return pages
        pages += step


def recovered_digest(db: Database) -> str:
    db.crash()
    db.restart(RecoveryMode.EAGER)
    db.restart_coordinator.recover_everything()
    return logical_digest(db)


class TestDigestIdentity:
    @pytest.mark.parametrize("engine", ["sim", "threaded"])
    @pytest.mark.parametrize("mode", ["value", "command"])
    def test_condenser_on_off_identical(self, engine, mode):
        """The same seeded workload recovers to the same bytes whether or
        not the condenser ran — on both engines, in every logging mode."""
        off = make_db(False, engine, mode)
        try:
            run_workload(off)
            digest_off = recovered_digest(off)
        finally:
            off.close()
        on = make_db(True, engine, mode)
        try:
            run_workload(on)
            drain_condenser(on)
            # pumps run the duty inline, so measure the cumulative count
            condensed = on.condenser.pages_condensed
            digest_on = recovered_digest(on)
            restores = on.stats()["restart"]["sources"]["shadow"]
        finally:
            on.close()
        assert digest_on == digest_off
        if mode == "value":
            # Value mode has no live-command closures to respect, so the
            # duty must have made real progress and restart must have
            # loaded at least one shadow image.
            assert condensed > 0
            assert restores > 0


class TestShadowRestart:
    def _hot_scenario(self, condense=True, grace_pages=64):
        """One hot partition, checkpointed once, with updates (and under
        ``condense`` a fully caught-up shadow chain) accumulated past it."""
        db = make_db(condense, grace_pages=grace_pages)
        rel = db.create_relation(
            "hot", [("id", "int"), ("v", "int")], primary_key="id"
        )
        with db.transaction() as txn:
            addr = rel.insert(txn, {"id": 1, "v": 0})
        db.recovery_processor.run_until_drained()
        target = addr.partition_address
        bin_ = db.slt.bin_for_partition(target)
        db.slt.mark_for_checkpoint(bin_.bin_index, "manual")
        db.checkpoint_queue.submit(target, bin_.bin_index, "manual")
        assert db.checkpoints.process_pending() == 1
        db.recovery_processor.acknowledge_finished()
        for _ in range(20):
            with db.transaction(pump=False) as txn:
                row = rel.lookup(txn, 1)
                rel.update(txn, row.address, {"v": row["v"] + 1})
            db.recovery_processor.run_until_drained()
        if condense:
            assert drain_condenser(db) > 0
        return db, rel, target, bin_

    def _catalog_slot(self, db, target):
        descriptor = db.catalog.descriptor_for_segment(target.segment)
        return descriptor.partitions[target.partition].checkpoint_slot

    def test_restart_prefers_shadow_over_torn_regular_image(self):
        """A fully condensed partition restarts from its shadow; the torn
        regular image is never even read, so no fallback is recorded."""
        db, rel, target, bin_ = self._hot_scenario()
        try:
            shadow = bin_.condensed_slot
            regular = self._catalog_slot(db, target)
            assert shadow is not None and shadow != regular
            db.checkpoint_disk.disk.corrupt_block(regular, "torn")
            db.crash()
            db.restart(RecoveryMode.ON_DEMAND)
            stats = db.restart_coordinator.recover_partition(target)
            assert stats["source"] == "shadow"
            sources = db.stats()["restart"]["sources"]
            assert sources["shadow"] == 1
            assert sources["history"] == 0
            with db.transaction() as txn:
                assert rel.lookup(txn, 1)["v"] == 20
        finally:
            db.close()

    def test_torn_shadow_falls_back_to_regular_image(self):
        """Corruption of the shadow is absorbed silently: restart falls
        back to the regular image plus the full log stream."""
        db, rel, target, bin_ = self._hot_scenario()
        try:
            shadow = bin_.condensed_slot
            assert shadow is not None
            db.checkpoint_disk.disk.corrupt_block(shadow, "torn")
            db.crash()
            db.restart(RecoveryMode.ON_DEMAND)
            db.restart_coordinator.recover_partition(target)
            assert db.stats()["restart"]["sources"]["shadow"] == 0
            with db.transaction() as txn:
                assert rel.lookup(txn, 1)["v"] == 20
        finally:
            db.close()

    def test_command_replay_starts_from_the_shadow_too(self):
        """The replay planner loads its closure through the same pipeline
        as everyone else: a chain grown before the commands went live is
        still valid, the suffix past it carries every barrier, and the
        torn regular image is never read."""
        # no grace period, no age trigger: nothing sweeps the live
        # commands (and with them the chain) away before the crash
        db, rel, target, bin_ = self._hot_scenario(grace_pages=0)
        try:

            def bump(txn):
                row = rel.lookup(txn, 1)
                rel.update(txn, row.address, {"v": row["v"] + 1})

            db.register_script("bump", bump, relations=["hot"])
            for _ in range(3):
                db.run_script("bump", logging="command")
            shadow = bin_.condensed_slot
            regular = self._catalog_slot(db, target)
            assert shadow is not None and shadow != regular
            db.checkpoint_disk.disk.corrupt_block(regular, "torn")
            db.crash()
            slots_read = []
            read_image = db.checkpoint_disk.read_image
            db.checkpoint_disk.read_image = lambda slot: (
                slots_read.append(slot),
                read_image(slot),
            )[1]
            db.restart(RecoveryMode.EAGER)
            assert db.last_command_replay["commands_replayed"] == 3
            assert shadow in slots_read and regular not in slots_read
            with db.transaction() as txn:
                assert rel.lookup(txn, 1)["v"] == 23
        finally:
            db.close()

    def test_condensed_restart_reads_only_the_suffix(self):
        """The headline property: with the chain caught up, restart reads
        zero log pages for the partition (vs the full stream without)."""
        db, rel, target, bin_ = self._hot_scenario()
        try:
            db.crash()
            db.restart(RecoveryMode.ON_DEMAND)
            stats = db.restart_coordinator.recover_partition(target)
            assert stats["pages_read"] + stats["backward_reads"] == 0
        finally:
            db.close()
        baseline, rel, target, _ = self._hot_scenario(condense=False)
        try:
            baseline.crash()
            baseline.restart(RecoveryMode.ON_DEMAND)
            stats = baseline.restart_coordinator.recover_partition(target)
            assert stats["pages_read"] + stats["backward_reads"] > 0
        finally:
            baseline.close()


class TestFlipCheckpoints:
    def test_flips_happen_and_reclaim_log_pages(self):
        """With checkpoints triggering normally, a caught-up chain turns
        copies into pointer flips and condensing frees log-window blocks."""
        config = SystemConfig(
            log_page_size=512,
            update_count_threshold=16,
            log_window_pages=64,
            log_window_grace_pages=8,
            condense_enabled=True,
        )
        db = Database(config)
        try:
            run_workload(db, 120)
            drain_condenser(db)
            db.pump()
            stats = db.condenser.stats_snapshot()
            assert stats["publishes"] > 0
            assert stats["flips_taken"] > 0
            assert stats["log_pages_reclaimed"] > 0
            digest = recovered_digest(db)
            # recovery is a fixed point from the flipped images too
            assert recovered_digest(db) == digest
        finally:
            db.close()


class TestChainsDieWithTheDisk:
    def test_media_restore_forgets_every_chain(self):
        """Shadow images live on the checkpoint disk; once it is lost no
        bin may still name one — else the fresh checkpoints that close
        the media restore are flips onto lost shadows."""
        config = SystemConfig(
            log_page_size=512,
            update_count_threshold=16,
            log_window_pages=64,
            log_window_grace_pages=8,
            condense_enabled=True,
        )
        db = Database(config)
        try:
            workload = DebitCreditWorkload(
                db, branches=2, tellers_per_branch=2, accounts_per_branch=10, seed=11
            )
            workload.load()
            workload.run(120)
            db.pump()
            # ... plus a chain grown on a partition never checkpointed: the
            # flip its queued request would take needs no catalog slot
            hot = db.create_relation("hot", [("id", "int"), ("v", "int")], primary_key="id")
            with db.transaction(pump=False) as txn:
                hot.insert(txn, {"id": 1, "v": 0})
            for _ in range(40):
                with db.transaction(pump=False) as txn:
                    row = hot.lookup(txn, 1)
                    hot.update(txn, row.address, {"v": row["v"] + 1})
                db.recovery_processor.run_until_drained()
            drain_condenser(db)
            stats = db.condenser.stats_snapshot()
            assert stats["publishes"] > 0 and stats["flips_taken"] > 0
            chains = [b for b in db.slt.bins() if b.condensed_slot is not None]
            assert any(b.condensed_base_slot is None for b in chains)
            assert any(b.condensed_base_slot is not None for b in chains)
            db.crash()
            db.checkpoint_disk.disk.destroy()
            restore_after_checkpoint_media_failure(db)
            assert all(b.condensed_slot is None for b in db.slt.bins())
            assert verify_integrity(db) == []
            assert db.checkpoint_disk.occupied_count == len(
                db.checkpoints.occupied_slots()
            )
            workload.run(40)
            db.pump()
            digest = logical_digest(db)
            assert recovered_digest(db) == digest
        finally:
            db.close()


class TestDutyPlumbing:
    def test_disabled_by_default(self, monkeypatch):
        # the *library* default: whatever the CI matrix exported is not it
        monkeypatch.delenv("REPRO_CONDENSE", raising=False)
        db = Database(
            SystemConfig(log_page_size=512, update_count_threshold=10_000)
        )
        try:
            assert not db.config.condense_enabled
            run_workload(db, 10)
            assert db.condenser.step() == 0
            stats = db.condenser.stats_snapshot()
            assert stats["publishes"] == 0 and not stats["enabled"]
            assert all(b.condensed_slot is None for b in db.slt.bins())
        finally:
            db.close()

    def test_env_var_flips_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONDENSE", "1")
        assert SystemConfig().condense_enabled
        assert not SystemConfig(condense_enabled=False).condense_enabled
        monkeypatch.setenv("REPRO_CONDENSE", "0")
        assert not SystemConfig().condense_enabled

    def test_stats_and_monitor_surface_the_duty(self):
        db = make_db(True)
        try:
            run_workload(db)
            drain_condenser(db)
            snapshot = db.stats()["condenser"]
            for key in (
                "slices",
                "pages_condensed",
                "records_condensed",
                "publishes",
                "flips_taken",
                "log_pages_reclaimed",
                "max_lag_pages",
            ):
                assert key in snapshot
            assert snapshot["enabled"]
            assert snapshot["pages_condensed"] >= snapshot["publishes"] > 0
            assert "condenser" in status_page(db.stats())
        finally:
            db.close()
