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
from repro.recovery.oracle import committed_digests
from repro.recovery import (
    demultiplex_log_history,
    logical_digest,
    rebuild_partition_resilient,
    restore_after_checkpoint_media_failure,
)
from repro.sim.chaos import FAULT, ChaosEngine, ChaosPlan, ChaosRule, chaos
from repro.sim.faults import SimulatedCrash
from repro.common.types import PartitionAddress
from repro.wal import records
from repro.wal.log_disk import ARCHIVE_SEGMENT
from tests import record_bytes


def small_config(**kwargs):
    defaults = dict(
        log_page_size=1024,
        update_count_threshold=40,
        log_window_pages=512,
        log_window_grace_pages=32,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def loaded_db(**config_kwargs):
    db = Database(small_config(**config_kwargs))
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
        """Catalog image and full history are two starting points of one
        pipeline: each must yield the same partition, a torn image falls
        back to the history, and the stats must name the one taken."""
        db, rel, addrs = loaded_db()
        with db.transaction() as txn:
            for i in range(25):
                rel.update(txn, addrs[i], {"v": -i})
        db.recovery_processor.run_until_drained()
        from repro.common import PartitionAddress

        taken = set()
        for descriptor in list(db.catalog.relations()) + list(db.catalog.indexes()):
            for number, slot in sorted(descriptor.partitions.items()):
                address = PartitionAddress(descriptor.segment_id, number)

                def rebuild(**source):
                    partition, stats = rebuild_partition_resilient(
                        address, slot, db.checkpoint_disk,
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
                if source == "image":
                    db.checkpoint_disk.disk.corrupt_block(slot, "torn")
                    assert rebuild() == (expected, "history")
        assert taken == {"image", "history"}


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


class TestCrashAcknowledgingTheFreshImages:
    def test_an_ordinary_restart_keeps_the_fresh_images(self):
        """A crash inside the acknowledgement of the restore's checkpoint
        leaves its slot installs in the log, after the catalog image it
        took.  The ordinary restart acknowledges the checkpoint before it
        drains them, so they replay over that image: every partition
        comes back from its fresh image, none from the history."""
        db, rel, addrs = loaded_db(partition_size=4096)
        (expected,) = committed_digests([db], slots=False)
        db.crash()
        db.checkpoint_disk.disk.destroy()
        injector = ChaosEngine(ChaosPlan.crash_at(0, "recovery.archive.page-written"))
        with chaos(injector):
            with pytest.raises(SimulatedCrash):
                restore_after_checkpoint_media_failure(db)
        db.crash()
        coordinator = db.restart(RecoveryMode.EAGER)
        assert coordinator.sources["history"] == 0
        assert coordinator.sources["image"] == len(db.catalog.image_slots())
        assert logical_digest(db, slots=False) == expected
        assert verify_integrity(db) == []


class TestFreshCheckpointFailsDuringRestore:
    """The restore's fresh images are one checkpoint transaction.  One of
    its image writes failing rolls the whole transaction back: every
    descriptor names its lost slot again — what the durable catalog says —
    and those slot numbers stay reserved, so no new image can take one
    while a descriptor still names it."""

    @staticmethod
    def failed_restore(after_visits):
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
        lost = set(db.catalog.image_slots().values()) - {None}
        db.crash()
        db.checkpoint_disk.disk.destroy()
        rule = ChaosRule("checkpoint.image.write", FAULT, after_visits=after_visits)
        with chaos(ChaosEngine(ChaosPlan(1, (rule,)))):
            with pytest.raises(MediaFailure, match="checkpoint-image write"):
                restore_after_checkpoint_media_failure(db)
        return db, lost

    @pytest.mark.parametrize("after_visits", [1, 2, 5])
    def test_no_lost_slot_comes_back(self, after_visits):
        db, lost = self.failed_restore(after_visits)
        # all or nothing: every slot the catalog names is a lost one, and
        # each is still reserved in the replacement disk's map
        assert db.checkpoints.occupied_slots() == lost
        assert db.checkpoint_disk.allocated_slots() == lost
        assert verify_integrity(db) == []
        db.pump()
        assert not db.checkpoint_queue.pending()
        assert verify_integrity(db) == []
        digest = logical_digest(db)
        db.crash()
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == digest
        with db.transaction() as txn:
            assert [row["v"] for row in db.table("items").scan(txn)] == list(range(300))

    @pytest.mark.parametrize("after_visits", [0, 1, 2, 5])
    def test_crash_after_failed_restore_loses_nothing(self, after_visits):
        """A crash after the failed restore sends an ordinary restart to
        the log history for every partition, not to an empty one."""
        db, _ = self.failed_restore(after_visits)
        assert verify_integrity(db) == []
        db.crash()
        coordinator = db.restart()
        coordinator.recover_everything()
        assert coordinator.sources["empty"] == 0
        assert coordinator.sources["history"] == coordinator.partitions_recovered
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
    started, and no rebuild starts anywhere but an image, an empty
    partition or the log history.  Three partitions here: the catalog's,
    ``items``' and its primary index's; a fresh relation adds two."""

    def _restart(self, kind):
        db, rel, addrs = loaded_db()
        if kind == "fresh relation":
            # a new relation: one of its two partitions has no image yet
            fresh = db.create_relation("fresh", [("id", "int")], primary_key="id")
            with db.transaction() as txn:
                fresh.insert(txn, {"id": 1})
        [slot] = db.catalog.relation("items").partitions.values()
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

    @pytest.mark.parametrize(
        "kind, sources",
        [
            ("plain", {"image": 3, "empty": 0, "history": 0}),
            ("torn image", {"image": 2, "empty": 0, "history": 1}),
            ("fresh relation", {"image": 4, "empty": 1, "history": 0}),
            # no image was torn: every partition came from the log history
            ("media restore", {"image": 0, "empty": 0, "history": 3}),
        ],
    )
    def test_sources_pinned(self, kind, sources):
        restart = self._restart(kind)
        assert restart["sources"] == sources
        assert restart["partitions_recovered"] == sum(sources.values())
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
            page = db.log_disk.read_page(lsn)
            owner = page.partition
            if owner.segment == ARCHIVE_SEGMENT:
                archive_pages += 1
                for start, end in records._spans(page.body, full=True):
                    target = PartitionAddress(
                        *records._PAIR.unpack_from(page.body, start + records._HEADER_SIZE)
                    )
                    record = records.compact_form(page.body[start:end])
                    reference.setdefault(target, []).append(record)
            elif owner.segment >= 0:
                reference.setdefault(owner, []).extend(record_bytes(page.body))
        assert archive_pages > 0  # the scenario must cross page kinds
        streams, stats = demultiplex_log_history(db.log_disk)
        assert set(streams) == set(reference)
        for address, want in reference.items():
            assert all(page.partition == address for page in streams[address])
            got = [r for page in streams[address] for r in record_bytes(page.body)]
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


class TestRestoreStats:
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
        assert f"({totals['partitions_rebuilt']} history)" in status_page(snap)

    def test_restart_record_names_each_partition(self):
        """One entry per rebuilt partition, in rebuild order: with the
        images lost every source is the full history, and the entries add
        up to the restart's totals."""
        db, rel, addrs = loaded_db()
        db.crash()
        db.checkpoint_disk.disk.destroy()
        restore_after_checkpoint_media_failure(db)
        restart = db.stats()["restart"]
        entries = restart["partitions"]
        assert entries and {entry["source"] for entry in entries} == {"history"}
        assert len(entries) == restart["partitions_recovered"]
        assert sum(e["records_applied"] for e in entries) == restart["records_replayed"]
        assert sum(e["pages_read"] for e in entries) == restart["pages_read"]
        assert all(entry["seconds"] >= 0.0 for entry in entries)
        addresses = [entry["address"] for entry in entries]
        assert len(set(addresses)) == len(addresses)
        assert str(rel.descriptor.partition_addresses()[0]) in addresses


class TestMediaChaos:
    """The media restore is the restart sequence, so it passes the
    restart's crash points (plus the scan's and the closing checkpoints');
    dying at any of them, once or several times running, it must be
    re-runnable from the top."""

    POINTS = [
        ("restart.phase1.queue-reverted", 0),
        ("restart.phase1.log-drained", 0),
        ("restart.phase1.catalog-recovered", 0),
        ("media.scan.page-routed", 5),  # mid-scan
        ("engine.restore.before-partition", 1),
        ("restart.phase2.partition-recovered", 1),  # mid-apply
        # the closing checkpoint is one transaction: its first passage
        ("checkpoint.begin", 0),
        ("checkpoint.slot-installed", 0),
        ("checkpoint.image-written", 0),
        ("checkpoint.committed", 0),
        ("checkpoint.acknowledged", 1),
    ]

    @pytest.mark.parametrize("crashes", [1, 4])
    @pytest.mark.parametrize("point,skip", POINTS, ids=[name for name, _ in POINTS])
    def test_rerun_converges(self, point, skip, crashes):
        db, rel, addrs = loaded_db()
        rows = self.rows(db)
        db.crash()
        db.checkpoint_disk.disk.destroy()
        for _ in range(crashes):
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

    @staticmethod
    def rows(db):
        with db.transaction() as txn:
            return [(row["id"], row["v"], row["s"]) for row in db.table("items").scan(txn)]
