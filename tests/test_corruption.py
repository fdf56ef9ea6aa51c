"""The integrity layer: checksums, corruption injection, failover, and
media-failure escalation.

Every stable block written through the duplexed pair or the checkpoint
disk queue is CRC32-framed; :meth:`SimulatedDisk.corrupt_block` damages
blocks in four ways (torn, bit-flip, zero-fill, stale-version) and the
tests assert each one is either served from the surviving mirror, survived
by full-history log replay, or escalated as a distinct
:class:`~repro.common.errors.MediaFailure` and rescued by the media
recovery paths — with the recovery oracle confirming the rescued state is
byte-identical to what was committed.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common.checksum import open_frame, seal_frame
from repro.common.config import DiskParameters
from repro.common.errors import ChecksumError, MediaFailure, RecoveryError
from repro.common.types import PartitionAddress
from repro.db.integrity import verify_integrity
from repro.recovery.media import (
    restore_after_checkpoint_media_failure,
    restore_after_log_media_failure,
    scrub_log_disk,
)
from repro.recovery.oracle import committed_digests, logical_digest
from repro.recovery.redo import enumerate_log_pages
from repro.sim.chaos import (
    ChaosEngine,
    ChaosPlan,
    chaos,
    crash_restart_verify,
    restart_until_recovered,
)
from repro.sim.clock import VirtualClock
from repro.sim.disk import CORRUPTION_KINDS, DuplexedDisk, SimulatedDisk
from repro.sim.faults import SimulatedCrash
from repro.workloads.debit_credit import DebitCreditWorkload

ALL_KINDS = list(CORRUPTION_KINDS)


def _disk(name="d"):
    return SimulatedDisk(name, DiskParameters(), VirtualClock())


def _pair():
    clock = VirtualClock()
    return DuplexedDisk(
        SimulatedDisk("p", DiskParameters(), clock),
        SimulatedDisk("m", DiskParameters(), clock),
    )


class TestChecksumFrame:
    def test_round_trip(self):
        payload = b"the quick brown fox" * 10
        assert open_frame(seal_frame(payload)) == payload

    def test_bit_flip_detected(self):
        framed = bytearray(seal_frame(b"payload bytes here"))
        framed[len(framed) // 2] ^= 0x01
        with pytest.raises(ChecksumError):
            open_frame(bytes(framed))

    def test_truncation_detected(self):
        framed = seal_frame(b"payload bytes here")
        with pytest.raises(ChecksumError):
            open_frame(framed[:-3])
        with pytest.raises(ChecksumError):
            open_frame(framed[:2])


class TestCorruptBlock:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_kind_is_caught_by_verified_read(self, kind):
        pair = _pair()
        pair.write_page(1, b"v1" * 100)
        pair.primary.corrupt_block(1, kind)
        assert pair.read_page(1) == b"v1" * 100  # served from the mirror
        assert pair.failovers == 1

    def test_stale_version_of_overwritten_block_is_undetectable(self):
        """A lost write that leaves an older *valid* frame in place cannot
        be caught by any checksum — which is why the system never
        overwrites a stable block id in place (log LSNs are monotone,
        checkpoint slots are deleted on free before reuse); see
        TestNoInPlaceOverwrites."""
        pair = _pair()
        pair.write_page(1, b"v1" * 100)
        pair.write_page(1, b"v2" * 100)
        pair.primary.corrupt_block(1, "stale-version")
        assert pair.read_page(1) == b"v1" * 100  # valid frame, old bytes
        assert pair.failovers == 0

    def test_unknown_kind_rejected(self):
        disk = _disk()
        disk.write_page(1, b"x" * 16)
        with pytest.raises(ValueError):
            disk.corrupt_block(1, "gamma-ray")

    def test_missing_block_rejected(self):
        with pytest.raises(KeyError):
            _disk().corrupt_block(99)

    def test_stale_version_resurrects_previous_write(self):
        disk = _disk()
        disk.write_page(1, b"old" * 10)
        disk.write_page(1, b"new" * 10)
        disk.corrupt_block(1, "stale-version")
        assert disk.read_page(1) == b"old" * 10

    def test_stale_version_without_history_zero_fills(self):
        disk = _disk()
        disk.write_page(1, b"only" * 8)
        disk.corrupt_block(1, "stale-version")
        assert disk.read_page(1) == b"\x00" * 32


class TestDuplexFailover:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_both_copies_bad_is_media_failure(self, kind):
        pair = _pair()
        pair.write_page(3, b"data" * 64)
        pair.primary.corrupt_block(3, kind)
        pair.mirror.corrupt_block(3, "bit-flip")
        with pytest.raises(MediaFailure):
            pair.read_page(3)

    def test_missing_everywhere_stays_key_error(self):
        with pytest.raises(KeyError):
            _pair().read_page(42)

    def test_primary_missing_mirror_serves(self):
        pair = _pair()
        pair.write_page(5, b"abc" * 30)
        pair.primary.free(5)
        assert pair.read_page(5) == b"abc" * 30
        assert pair.failovers == 1


def corruption_config(**kwargs):
    defaults = dict(
        log_page_size=512,
        update_count_threshold=16,
        log_window_pages=64,
        log_window_grace_pages=8,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def loaded_bank(transactions=60, **config_kwargs):
    db = Database(corruption_config(**config_kwargs))
    workload = DebitCreditWorkload(
        db, branches=2, tellers_per_branch=2, accounts_per_branch=25, seed=3
    )
    workload.load()
    workload.run(transactions)
    return db


def crash(db):
    """Power-fail ``db``; returns the digest it must recover to."""
    (expected,) = committed_digests([db])
    db.crash()
    return expected


def rows(db):
    """Every relation's rows, the state a checkpoint does not move."""
    with db.transaction() as txn:
        return {
            descriptor.name: sorted(
                sorted(row.values.items()) for row in db.table(descriptor.name).scan(txn)
            )
            for descriptor in db.catalog.relations()
        }


class TestNoInPlaceOverwrites:
    def test_stable_blocks_are_never_overwritten_in_place(self):
        """The invariant that makes stale-version corruption detectable
        everywhere it can occur: no log block or checkpoint slot is ever
        rewritten while holding data (freed blocks are deleted, so a
        reused id starts with no previous image and stale-version
        degenerates to a CRC-caught zero-fill)."""
        db = loaded_bank()
        spindles = [db.log_disk.disks.primary, db.log_disk.disks.mirror]
        for disk in spindles + [db.checkpoint_disk.disk]:
            for block_id in disk.block_ids():
                assert disk._blocks[block_id].previous is None, (
                    f"{disk.name} block {block_id} was overwritten in place"
                )


class TestLogBlockCorruption:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_spindle_corruption_survived(self, kind):
        """Every log block's primary copy damaged: recovery reads fail
        over to the mirror and the digest still matches exactly."""
        # a huge update-count threshold keeps checkpoints away, so every
        # partition must be rebuilt from the log alone
        db = loaded_bank(update_count_threshold=10_000)
        expected = crash(db)
        blocks = db.log_disk.disks.primary.block_ids()
        assert blocks, "scenario must have flushed log pages"
        for lsn in blocks:
            db.log_disk.disks.primary.corrupt_block(lsn, kind)
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        assert db.log_disk.disks.failovers > 0

    def test_both_spindles_corrupt_escalates_and_is_rescued(self):
        """Both copies of log blocks unreadable: the duplex read raises a
        distinct MediaFailure; the live-system rescue cuts fresh
        checkpoints and the digest survives the next crash exactly."""
        db = loaded_bank(update_count_threshold=10_000)
        victims = db.log_disk.disks.block_ids()[:3]
        assert victims
        for lsn in victims:
            db.log_disk.disks.primary.corrupt_block(lsn, "bit-flip")
            db.log_disk.disks.mirror.corrupt_block(lsn, "zero-fill")
        with pytest.raises(MediaFailure):
            db.log_disk.disks.read_page(victims[0], sibling=True)
        assert scrub_log_disk(db) == victims
        report = restore_after_log_media_failure(db)
        assert report["unreadable_pages"] == victims
        assert report["partitions_checkpointed"] == db.memory.resident_partition_count()
        assert scrub_log_disk(db) == []
        expected = crash(db)
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected


    def test_rescue_refuses_before_touching_anything_mid_restart(self):
        """The rescue needs every partition resident; mid-restart it must
        refuse before it drops a page or checkpoints anything."""
        db = loaded_bank(update_count_threshold=10_000)
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        assert coordinator.pending_partitions() > 0
        victims = db.log_disk.disks.block_ids()[:3]
        for lsn in victims:
            db.log_disk.disks.primary.corrupt_block(lsn, "bit-flip")
            db.log_disk.disks.mirror.corrupt_block(lsn, "zero-fill")
        queued = [(e.partition, e.state) for e in db.checkpoint_queue.pending()]
        with pytest.raises(RecoveryError, match="resident"):
            restore_after_log_media_failure(db)
        assert scrub_log_disk(db) == victims
        assert [(e.partition, e.state) for e in db.checkpoint_queue.pending()] == queued
        assert len(db.checkpoint_queue) == len(queued)


class TestLostLogPageIsFatal:
    """Only an unusable *image* falls back to history replay.  The log is
    the last copy: a page of it lost on both mirrors must leave restart
    as a MediaFailure, never be relabelled a survived torn image."""

    #: no page leaves the spindles — for the archive, or folded into a
    #: shadow image — so any page can be damaged and is certain to be read
    WIDE_WINDOW = dict(
        log_window_pages=4096, log_window_grace_pages=64
    )

    def _lose_page(self, db, lsn):
        for spindle in (db.log_disk.disks.primary, db.log_disk.disks.mirror):
            spindle.corrupt_block(lsn, "bit-flip")

    def test_lost_chain_page_escalates_from_restart(self):
        db = loaded_bank(update_count_threshold=10_000, **self.WIDE_WINDOW)
        db.recovery_processor.run_until_drained()
        catalog_segment = db.catalog.segment.segment_id
        chain = next(
            lsns
            for bin_ in db.slt.bins()
            if bin_.partition.segment != catalog_segment
            and len(lsns := enumerate_log_pages(bin_, db.log_disk)[0]) >= 3
        )
        db.crash()
        self._lose_page(db, chain[-1])
        with pytest.raises(MediaFailure, match=f"block {chain[-1]} "):
            db.restart(RecoveryMode.EAGER)

    def test_torn_image_fallback_raises_on_a_lost_history_page(self):
        """The history scan behind a torn image meets a lost page that no
        live chain references any more (a checkpoint superseded it): it
        must raise, not skip the page and rebuild a diverged partition."""
        db = loaded_bank(**self.WIDE_WINDOW)
        db.recovery_processor.run_until_drained()
        chained = {
            lsn
            for bin_ in db.slt.bins()
            for lsn in enumerate_log_pages(bin_, db.log_disk)[0]
        }
        slots = {
            PartitionAddress(descriptor.segment_id, number): slot
            for descriptor in db.catalog.relations()
            for number, slot in descriptor.partitions.items()
            if slot is not None
        }
        lsn, slot = next(
            (lsn, slots[owner])
            for lsn in db.log_disk.disks.block_ids()
            if lsn not in chained
            and (owner := db.log_disk.read_page(lsn).partition) in slots
        )
        db.crash()
        db.checkpoint_disk.disk.corrupt_block(slot, "torn")
        self._lose_page(db, lsn)
        with pytest.raises(MediaFailure, match=f"block {lsn} "):
            db.restart(RecoveryMode.EAGER)


class TestCheckpointImageCorruption:
    def _occupied_slots(self, db):
        return sorted(
            slot
            for descriptor in list(db.catalog.relations()) + list(db.catalog.indexes())
            for slot in descriptor.partitions.values()
            if slot is not None
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_corrupt_image_survived_by_history_replay(self, kind):
        """Every data checkpoint image damaged: recovery detects each one
        (torn flag, CRC, or wrong-partition image) and falls back to
        full-history log replay, digest-exact."""
        db = loaded_bank()
        assert db.checkpoints.checkpoints_taken > 0
        expected = crash(db)
        slots = self._occupied_slots(db)
        assert slots, "scenario must have cut checkpoints"
        for slot in slots:
            db.checkpoint_disk.disk.corrupt_block(slot, kind)
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        assert db.restart_coordinator.sources["history"] > 0

    def test_torn_catalog_images_keep_archive_buffer_leftovers(self):
        """Catalog records a checkpoint moved to the stable archive buffer
        are on no log page yet; the phase-1 fallback must replay them or
        the newest relation comes back with no partitions."""
        db = Database(
            SystemConfig(
                log_page_size=1024,
                update_count_threshold=10,
                log_window_pages=512,
                log_window_grace_pages=32,
            )
        )
        for r in range(6):
            rel = db.create_relation(
                f"r{r}", [("id", "int"), ("v", "int")], primary_key="id"
            )
            with db.transaction() as txn:
                for i in range(3):
                    rel.insert(txn, {"id": i, "v": i})
        db.recovery_processor.run_until_drained()
        assert db.recovery_processor.archive_backlog_records > 0

        def catalog_entities():
            segment = db.catalog.segment
            return {
                number: list(segment.get(number).entities())
                for number in db.catalog.own_partition_slots
            }

        before = catalog_entities()
        db.crash()
        for slot in db.catalog.own_partition_slots.values():
            db.checkpoint_disk.disk.corrupt_block(slot, "bit-flip")
        db.restart(RecoveryMode.EAGER)
        assert db.restart_coordinator.sources["history"] == len(before)
        assert catalog_entities() == before
        with db.transaction() as txn:
            assert [db.table(f"r{r}").count(txn) for r in range(6)] == [3] * 6

    def test_checkpoint_disk_destroyed_media_restore_is_exact(self):
        """The whole checkpoint disk gone: section 2.6 archive recovery
        rebuilds everything from log history, digest-exact."""
        db = loaded_bank()
        before = rows(db)
        db.crash()
        assert db.checkpoint_disk.disk.destroy() > 0
        report = restore_after_checkpoint_media_failure(db)
        assert report["partitions_rebuilt"] > 0
        # the restore's closing checkpoints move the catalog's slots, not a row
        assert rows(db) == before
        # and the freshly cut checkpoints make ordinary crash recovery work
        expected = crash(db)
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == expected


class TestOracle:
    def test_digest_tracks_commits_and_detects_divergence(self):
        db = Database(corruption_config())
        rel = db.create_relation(
            "t", [("id", "int"), ("v", "int")], primary_key="id"
        )
        with db.transaction() as txn:
            addr = rel.insert(txn, {"id": 1, "v": 10})
        first = logical_digest(db)
        with db.transaction() as txn:
            rel.update(txn, addr, {"v": 20})
        second = logical_digest(db)
        assert second != first
        # an update in flight at the crash is not what recovery must produce
        txn = db.transactions.begin()
        rel.update(txn, addr, {"v": 30})
        assert logical_digest(db) != second
        assert crash(db) == second
        db.restart(RecoveryMode.EAGER)
        assert logical_digest(db) == second
        # tamper with recovered state behind the oracle's back
        partition = db.memory.partition(addr.partition_address)
        partition.update(addr.offset, b"\x00" * len(partition.read(addr.offset)))
        assert logical_digest(db) != second

    @staticmethod
    def one_row():
        db = Database(corruption_config())
        rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
        with db.transaction() as txn:
            addr = rel.insert(txn, {"id": 1, "v": 10})
        return db, rel, addr

    def test_an_unlogged_write_fails_the_check(self):
        """A write with no transaction, so no REDO: the oracle's digest has
        it, the recovered one does not."""
        db, _, addr = self.one_row()

        def tamper():
            partition = db.memory.partition(addr.partition_address)
            partition.update(addr.offset, b"\x00" * len(partition.read(addr.offset)))

        with pytest.raises(RecoveryError, match="not the committed state's"):
            crash_restart_verify([db], tamper, ChaosEngine(ChaosPlan(0)), RecoveryMode.EAGER)

    def test_an_integrity_problem_fails_the_check(self, monkeypatch):
        db, rel, addr = self.one_row()

        def update():
            with db.transaction() as txn:
                rel.update(txn, addr, {"v": 20})

        monkeypatch.setattr(
            "repro.db.integrity.verify_integrity", lambda db: ["planted problem"]
        )
        with pytest.raises(RecoveryError, match="planted problem"):
            crash_restart_verify([db], update, ChaosEngine(ChaosPlan(0)), RecoveryMode.EAGER)

    @staticmethod
    def crash_inside(db, run, point, stable_state):
        """Crash ``run`` at ``point``: the oracle's rollback must leave
        ``stable_state()`` as the crash left it, for restart to find."""
        with chaos(ChaosEngine(ChaosPlan.crash_at(0, point))):
            with pytest.raises(SimulatedCrash):
                run()
            left = stable_state()
            (expected,) = committed_digests([db])
            assert stable_state() == left
            db.crash()
            assert stable_state() == left
            restart_until_recovered([db], RecoveryMode.EAGER)
        assert logical_digest(db) == expected
        assert verify_integrity(db) == []
        return left

    def test_an_uncommitted_growth_keeps_its_bin(self):
        db = Database(corruption_config())
        rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
        bins = len(db.slt.bins())

        def first_insert():  # a relation's first insert grows its segment
            with db.transaction() as txn:
                rel.insert(txn, {"id": 1, "v": 10})

        left = self.crash_inside(
            db, first_insert, "growth.catalogued", lambda: len(db.slt.bins())
        )
        assert left == bins + 1
        assert len(db.slt.bins()) == bins  # restart dropped the orphan bin

    def test_an_uncommitted_checkpoint_keeps_its_image(self):
        db, _, _ = self.one_row()
        blocks = db.checkpoint_disk.disk.block_ids
        before = blocks()

        left = self.crash_inside(
            db, db.checkpoints.checkpoint_all, "checkpoint.image.after-write", blocks
        )
        assert set(left) > set(before)  # the image written before the crash
