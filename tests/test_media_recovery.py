"""Tests for archive (media-failure) recovery — section 2.6.

The checkpoint disk is destroyed; partitions must be rebuilt from the
complete log history (active window + archive) and fresh checkpoint
images cut so normal crash recovery works again.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common import RecoveryError
from repro.common.errors import MediaFailure
from repro.db.integrity import verify_integrity
from repro.engine import SimEngine, ThreadedEngine
from repro.recovery import (
    demultiplex_log_history,
    logical_digest,
    rebuild_partition_resilient,
    restore_after_checkpoint_media_failure,
)
from repro.sim.chaos import FAULT, ChaosEngine, ChaosPlan, ChaosRule, chaos
from repro.sim.faults import SimulatedCrash
from repro.wal.log_disk import ARCHIVE_SEGMENT


def small_config(**kwargs):
    defaults = dict(
        log_page_size=1024,
        update_count_threshold=40,
        log_window_pages=512,
        log_window_grace_pages=32,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def loaded_db(engine=None, **config_kwargs):
    db = Database(small_config(**config_kwargs), engine=engine)
    rel = db.create_relation(
        "items", [("id", "int"), ("v", "int"), ("s", "str")], primary_key="id"
    )
    addrs = {}
    with db.transaction() as txn:
        for i in range(40):
            addrs[i] = rel.insert(txn, {"id": i, "v": 0, "s": f"row-{i}"})
    for round_ in range(6):
        with db.transaction() as txn:
            for i in range(40):
                rel.update(txn, addrs[i], {"v": round_ * 10 + i})
    return db, rel, addrs


class TestFullHistoryReplay:
    def test_partition_rebuilt_from_history_matches_live(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        descriptor = db.catalog.relation("items")
        number = sorted(descriptor.partitions)[0]
        from repro.common import PartitionAddress

        address = PartitionAddress(descriptor.segment_id, number)
        live = db.memory.partition(address)
        history, _ = demultiplex_log_history(db.log_disk, wanted={address})
        rebuilt, stats = rebuild_partition_resilient(
            address, None, db.checkpoint_disk, db.log_disk, db.slt,
            db.config.partition_size, history=history,
            pending_archive=db.recovery_processor.pending_archive_records,
        )
        assert list(rebuilt.entities()) == list(live.entities())
        assert stats["records_applied"] > 0

    def test_history_includes_checkpoint_leftovers(self):
        """Records flushed to mixed archive pages at checkpoint time must
        reappear in the replayed history."""
        db, rel, addrs = loaded_db()
        assert db.checkpoints.checkpoints_taken > 0  # leftovers were cut
        db.recovery_processor.run_until_drained()
        descriptor = db.catalog.relation("items")
        from repro.common import PartitionAddress

        for number in sorted(descriptor.partitions):
            address = PartitionAddress(descriptor.segment_id, number)
            live = db.memory.partition(address)
            history, _ = demultiplex_log_history(db.log_disk, wanted={address})
            rebuilt, _ = rebuild_partition_resilient(
                address, None, db.checkpoint_disk, db.log_disk, db.slt,
                db.config.partition_size, history=history,
                pending_archive=db.recovery_processor.pending_archive_records,
            )
            assert list(rebuilt.entities()) == list(live.entities())

    def test_every_source_rebuilds_the_same_bytes(self):
        """Shadow, catalog image and full history are three starting
        points of one pipeline: each must yield the same partition, and
        the stats must name the one taken."""
        # a short grace period keeps the age trigger from checkpointing
        # the chain away as soon as its first page is flushed
        db, rel, addrs = loaded_db(condense_enabled=True, log_window_grace_pages=4)
        with db.transaction() as txn:
            for i in range(25):
                rel.update(txn, addrs[i], {"v": -i})
        db.recovery_processor.run_until_drained()
        from repro.common import PartitionAddress

        taken = set()
        for descriptor in list(db.catalog.relations()) + list(db.catalog.indexes()):
            for number, info in sorted(descriptor.partitions.items()):
                address = PartitionAddress(descriptor.segment_id, number)

                def rebuild(**source):
                    partition, stats = rebuild_partition_resilient(
                        address, info.checkpoint_slot, db.checkpoint_disk,
                        db.log_disk, db.slt, db.config.partition_size,
                        pending_archive=db.recovery_processor.pending_archive_records,
                        **source,
                    )
                    taken.add(stats["source"])
                    return partition.to_bytes(), stats["source"]

                history, _ = demultiplex_log_history(db.log_disk, wanted={address})
                expected, source = rebuild(history=history)
                assert source == "history"
                best, source = rebuild()
                assert best == expected, f"{source} diverged for {address}"
                if source == "shadow":
                    # an unusable shadow is the only way past it
                    shadow = db.slt.bin_for_partition(address).condensed_slot
                    db.checkpoint_disk.disk.corrupt_block(shadow, "torn")
                    image, source = rebuild()
                    assert source == "image"
                    assert image == expected
        assert taken == {"shadow", "image", "history"}


class TestCheckpointDiskFailure:
    def test_full_restore_after_media_failure(self):
        db, rel, addrs = loaded_db()
        db.crash()
        lost = db.checkpoint_disk.disk.destroy()
        assert lost > 0  # images existed and are gone
        totals = restore_after_checkpoint_media_failure(db)
        assert totals["partitions_rebuilt"] > 0
        with db.transaction() as txn:
            table = db.table("items")
            assert table.count(txn) == 40
            for i in (0, 17, 39):
                row = table.lookup(txn, i)
                assert row["v"] == 50 + i
                assert row["s"] == f"row-{i}"

    def test_normal_crash_recovery_works_after_media_restore(self):
        db, rel, addrs = loaded_db()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        # more work, another ordinary crash
        with db.transaction() as txn:
            db.table("items").update(txn, addrs[5], {"v": -5})
        db.crash()
        db.restart(RecoveryMode.EAGER)
        with db.transaction() as txn:
            assert db.table("items").lookup(txn, 5)["v"] == -5
            assert db.table("items").count(txn) == 40

    def test_ordinary_restart_on_a_dead_disk_falls_back_per_partition(self):
        """A lost slot is a media failure like a torn one, not a KeyError:
        every partition takes the history fallback on its own (many scans
        of the log — which is why the one-pass media restore exists)."""
        db, rel, addrs = loaded_db()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        page_count = len(list(db.log_disk.all_lsns()))
        coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.sources["history"] > 1
        assert coordinator.pages_read > page_count
        with db.transaction() as txn:
            assert [row["v"] for row in db.table("items").scan(txn)] == [
                50 + i for i in range(40)
            ]

    def test_media_restore_requires_downtime(self):
        db, rel, addrs = loaded_db()
        with pytest.raises(RecoveryError):
            restore_after_checkpoint_media_failure(db)

    def test_media_restore_on_fresh_database(self):
        db = Database(small_config())
        db.crash()
        db.checkpoint_disk.disk.destroy()
        totals = restore_after_checkpoint_media_failure(db)
        assert totals["partitions_rebuilt"] == totals["pages_scanned"] == 0
        assert not db.crashed and not list(db.catalog.relations())
        rel = db.create_relation("t", [("id", "int")], primary_key="id")
        with db.transaction() as txn:
            rel.insert(txn, {"id": 1})

    def test_indexes_work_after_media_restore(self):
        db, rel, addrs = loaded_db()
        db.create_index("by_v", "items", "v", kind="ttree")
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        with db.transaction() as txn:
            rows = db.table("items").lookup_by(txn, "by_v", 50 + 7)
            assert [r["id"] for r in rows] == [7]
        for descriptor in db.catalog.indexes():
            db.index_object(descriptor, None).verify_invariants()


class TestFreshCheckpointFailsDuringRestore:
    """The restore clears every lost slot, then cuts fresh checkpoints.
    One of those failing rolls back and re-derives its descriptor from
    the catalog bytes — which must not still name the lost slots of the
    siblings not yet re-checkpointed (a later checkpoint would free a
    slot some new image now owns)."""

    @pytest.mark.parametrize("after_visits", [1, 2, 5])
    def test_no_lost_slot_comes_back(self, after_visits):
        db = Database(small_config(partition_size=4096, io_retry_budget=0))
        rel = db.create_relation(
            "items", [("id", "int"), ("v", "int"), ("s", "str")], primary_key="id"
        )
        for base in range(0, 300, 20):
            with db.transaction() as txn:
                for i in range(base, base + 20):
                    rel.insert(txn, {"id": i, "v": i, "s": f"row-{i}"})
        descriptors = (*db.catalog.relations(), *db.catalog.indexes())
        assert all(len(d.partitions) > 2 for d in descriptors)
        db.crash()
        db.checkpoint_disk.disk.destroy()
        rule = ChaosRule("checkpoint.image.write", FAULT, after_visits=after_visits)
        with chaos(ChaosEngine(ChaosPlan(1, (rule,)))):
            with pytest.raises(MediaFailure, match="checkpoint-image write"):
                restore_after_checkpoint_media_failure(db)
        slots = [
            info.checkpoint_slot
            for descriptor in (*db.catalog.relations(), *db.catalog.indexes())
            for info in descriptor.partitions.values()
        ]
        assert sum(slot is not None for slot in slots) == after_visits - 1  # catalog first
        assert verify_integrity(db) == []
        db.pump()  # the queued fresh checkpoints complete
        assert not db.checkpoint_queue.pending()
        assert verify_integrity(db) == []
        digest = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == digest
        with db.transaction() as txn:
            assert [row["v"] for row in db.table("items").scan(txn)] == list(range(300))


class TestTornCheckpointImage:
    def test_torn_image_falls_back_to_history_replay(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        # force a checkpoint whose image write is torn
        descriptor = db.catalog.relation("items")
        from repro.common import PartitionAddress

        number = sorted(descriptor.partitions)[0]
        target = PartitionAddress(descriptor.segment_id, number)
        bin_ = db.slt.bin_for_partition(target)
        db.slt.mark_for_checkpoint(bin_.bin_index, "test")
        db.checkpoint_queue.submit(target, bin_.bin_index, "test")
        db.checkpoint_disk.disk.inject_torn_write()
        assert db.checkpoints.process_pending() >= 1
        db.recovery_processor.acknowledge_finished()
        db.crash()
        coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.sources["history"] >= 1
        with db.transaction() as txn:
            table = db.table("items")
            assert table.count(txn) == 40
            for i in (0, 20, 39):
                assert table.lookup(txn, i)["v"] == 50 + i

    def test_intact_images_do_not_use_fallback(self):
        db, rel, addrs = loaded_db()
        db.crash()
        coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.sources["history"] == 0


class TestRestartSources:
    """``stats()["restart"]["sources"]`` tallies every rebuild by where it
    started — three partitions here: the catalog's, ``items``' and its
    primary index's."""

    def _restart(self, kind):
        db, rel, addrs = loaded_db(condense_enabled=kind == "condensed")
        try:
            if kind == "condensed":
                # past the last checkpoint, folded into a shadow image
                for _ in range(3):
                    with db.transaction() as txn:
                        for i in range(0, 40, 4):
                            rel.update(txn, addrs[i], {"v": -i})
                db.recovery_processor.run_until_drained()
                while db.condenser.step():
                    pass
            [slot] = [
                info.checkpoint_slot
                for info in db.catalog.relation("items").partitions.values()
            ]
            db.crash()
            if kind == "torn image":
                db.checkpoint_disk.disk.corrupt_block(slot, "torn")
            if kind == "media restore":
                db.checkpoint_disk.disk.destroy()
                totals = restore_after_checkpoint_media_failure(db)
                assert db.stats()["restart"]["partitions_recovered"] == totals[
                    "partitions_rebuilt"
                ]
            else:
                db.restart(RecoveryMode.EAGER)
            return db.stats()["restart"]
        finally:
            db.close()

    @pytest.mark.parametrize(
        "kind, sources",
        [
            ("plain", {"shadow": 0, "image": 3, "empty": 0, "history": 0}),
            ("torn image", {"shadow": 0, "image": 2, "empty": 0, "history": 1}),
            ("condensed", {"shadow": 1, "image": 2, "empty": 0, "history": 0}),
            # no image was torn: every partition came from the log history
            ("media restore", {"shadow": 0, "image": 0, "empty": 0, "history": 3}),
        ],
    )
    def test_sources_pinned(self, kind, sources):
        restart = self._restart(kind)
        assert restart["sources"] == sources
        assert restart["partitions_recovered"] == 3
        assert restart["pending_partitions"] == 0
        assert (restart["history_scan"] is not None) == (kind == "media restore")


class TestSinglePassScan:
    def test_whole_restore_reads_each_page_exactly_once(self):
        """The demultiplexed restore fetches every retained log page once,
        regardless of how many partitions exist — not partitions × pages
        as the old per-partition rescan did."""
        db, rel, addrs = loaded_db()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        page_count = len(list(db.log_disk.all_lsns()))
        reads_before = db.log_disk.pages_read
        totals = restore_after_checkpoint_media_failure(db)
        assert totals["pages_scanned"] == page_count
        assert totals["pages_skipped"] == 0
        assert totals["partitions_rebuilt"] > 1  # a rescan would multiply
        assert db.log_disk.pages_read - reads_before == page_count

    def test_single_partition_rebuild_fetches_each_page_once(self):
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        descriptor = db.catalog.relation("items")
        from repro.common import PartitionAddress

        address = PartitionAddress(descriptor.segment_id, sorted(descriptor.partitions)[0])
        page_count = len(list(db.log_disk.all_lsns()))
        reads_before = db.log_disk.pages_read
        history, stats = demultiplex_log_history(db.log_disk, wanted={address})
        rebuild_partition_resilient(
            address, None, db.checkpoint_disk, db.log_disk, db.slt,
            db.config.partition_size, history=history,
        )
        assert db.log_disk.pages_read - reads_before == page_count
        assert stats["pages_scanned"] == page_count

    def test_demultiplex_matches_per_page_reference(self):
        """Streams must reproduce, per partition, exactly the record
        sequence a literal walk of the log yields: dedicated pages whole,
        mixed archive pages split record-by-record, global LSN order."""
        db, rel, addrs = loaded_db()
        db.recovery_processor.run_until_drained()
        reference = {}
        archive_pages = 0
        for lsn in db.log_disk.all_lsns():
            owner = db.log_disk.page_owner(lsn)
            if owner.segment == ARCHIVE_SEGMENT:
                archive_pages += 1
                for record in db.log_disk.read_page(lsn).records:
                    reference.setdefault(record.partition_address, []).append(record)
            elif owner.segment >= 0:
                page = db.log_disk.read_page(lsn, expected=owner)
                reference.setdefault(owner, []).extend(page.records)
        assert archive_pages > 0  # the scenario must cross page kinds
        streams, stats = demultiplex_log_history(db.log_disk)
        assert set(streams) == set(reference)
        for address, records in reference.items():
            assert all(page.partition == address for page in streams[address])
            got = [r.encode() for page in streams[address] for r in page.records]
            want = [r.encode() for r in records]
            assert got == want, f"stream order diverged for {address}"
        assert stats["archive_pages"] == archive_pages

    def test_unreadable_page_is_counted_not_silent(self):
        """A page whose both mirror copies are gone is skipped AND
        surfaced in the restore totals."""
        db, rel, addrs = loaded_db()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        victim = sorted(db.log_disk.disks.block_ids())[0]
        db.log_disk.disks.primary.corrupt_block(victim)
        db.log_disk.disks.mirror.corrupt_block(victim)
        page_count = len(list(db.log_disk.all_lsns()))
        totals = restore_after_checkpoint_media_failure(db)
        assert totals["pages_skipped"] == 1
        assert totals["pages_scanned"] == page_count - 1
        assert not db.crashed


class TestParallelMediaRestore:
    def test_threaded_restore_matches_sequential_digest(self):
        """ThreadedEngine(4) and SimEngine rebuild byte-identical logical
        state from the same history."""
        digests = {}
        for label, engine in (("sim", SimEngine()), ("threaded", ThreadedEngine(workers=4))):
            db, rel, addrs = loaded_db(engine=engine)
            try:
                db.crash()
                db.checkpoint_disk.disk.destroy()
                totals = restore_after_checkpoint_media_failure(db)
                digests[label] = logical_digest(db)
                if label == "sim":
                    assert totals["workers"] == 1
                else:
                    assert totals["workers"] == 4
            finally:
                db.close()
        assert digests["sim"] == digests["threaded"]

    def test_restore_totals_equal_across_engines(self):
        totals_by_engine = {}
        for label, engine in (("sim", SimEngine()), ("threaded", ThreadedEngine(workers=4))):
            db, rel, addrs = loaded_db(engine=engine)
            try:
                db.crash()
                db.checkpoint_disk.disk.destroy()
                totals_by_engine[label] = restore_after_checkpoint_media_failure(db)
            finally:
                db.close()
        sim, threaded = totals_by_engine["sim"], totals_by_engine["threaded"]
        for key in ("partitions_rebuilt", "records_applied", "pages_scanned",
                    "pages_skipped", "streams"):
            assert sim[key] == threaded[key], key

    def test_restore_stats_surfaced(self):
        db, rel, addrs = loaded_db()
        assert db.stats()["restart"] is None
        db.crash()
        db.checkpoint_disk.disk.destroy()
        totals = restore_after_checkpoint_media_failure(db)
        restart = db.stats()["restart"]
        assert restart["history_scan"]["pages_scanned"] == totals["pages_scanned"] > 0
        assert restart["history_scan"]["pages_skipped"] == totals["pages_skipped"]
        assert restart["records_replayed"] == totals["records_applied"]
        assert totals["wall_seconds"] >= 0.0
        assert totals["streams"] > 0
        from repro.db.monitor import status_page

        snap = db.stats()
        assert snap["restart"]["partitions_recovered"] == totals["partitions_rebuilt"]
        assert snap["restart"]["sources"]["history"] == totals["partitions_rebuilt"]
        assert snap["log_page_cache_hits"] == db.log_disk.cache_hits
        assert f"({totals['partitions_rebuilt']} history)" in status_page(snap)


class TestMediaChaos:
    """The media restore is the restart sequence, so it passes the
    restart's crash points (plus the scan's and the closing checkpoints');
    dying at any of them, it must be re-runnable from the top."""

    POINTS = [
        ("restart.phase1.queue-reverted", 0),
        ("restart.phase1.log-drained", 0),
        ("restart.phase1.catalog-recovered", 0),
        ("media.scan.page-routed", 5),  # mid-scan
        ("engine.restore.before-partition", 1),
        ("restart.phase2.partition-recovered", 1),  # mid-apply
        ("checkpoint.begin", 1),
        ("checkpoint.slot-installed", 1),
        ("checkpoint.image-written", 1),
        ("checkpoint.committed", 1),
        ("checkpoint.acknowledged", 1),
    ]

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("point,skip", POINTS, ids=[name for name, _ in POINTS])
    def test_rerun_converges(self, point, skip, workers):
        db, rel, addrs = loaded_db(engine=ThreadedEngine(workers=workers))
        try:
            rows = self.rows(db)
            db.crash()
            db.checkpoint_disk.disk.destroy()
            injector = ChaosEngine(ChaosPlan.crash_at(0, point, after_visits=skip))
            with chaos(injector):
                with pytest.raises(SimulatedCrash):
                    restore_after_checkpoint_media_failure(db)
            assert injector.fired
            # Volatile memory is lost with the crash; stable state survives.
            db.crash()
            totals = restore_after_checkpoint_media_failure(db)
            assert totals["partitions_rebuilt"] > 0
            assert self.rows(db) == rows
            assert verify_integrity(db) == []
            # ... and the fresh images carry it through an ordinary crash
            digest = logical_digest(db)  # full residency + consistency
            db.crash()
            db.restart(RecoveryMode.EAGER)
            assert logical_digest(db) == digest
        finally:
            db.close()

    @staticmethod
    def rows(db):
        with db.transaction() as txn:
            return [(row["id"], row["v"], row["s"]) for row in db.table("items").scan(txn)]
