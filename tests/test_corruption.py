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
from repro.common.errors import ChecksumError, MediaFailure
from repro.common.types import PartitionAddress
from repro.recovery.media import (
    restore_after_checkpoint_media_failure,
    restore_after_log_media_failure,
    scrub_log_disk,
)
from repro.recovery.oracle import RecoveryVerifier, logical_digest
from repro.recovery.redo import enumerate_log_pages
from repro.sim.clock import VirtualClock
from repro.sim.disk import CORRUPTION_KINDS, DuplexedDisk, SimulatedDisk
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
    verifier = RecoveryVerifier(db)
    workload.run(transactions)
    return db, verifier


class TestNoInPlaceOverwrites:
    def test_stable_blocks_are_never_overwritten_in_place(self):
        """The invariant that makes stale-version corruption detectable
        everywhere it can occur: no log block or checkpoint slot is ever
        rewritten while holding data (freed blocks are deleted, so a
        reused id starts with no previous image and stale-version
        degenerates to a CRC-caught zero-fill)."""
        db, _ = loaded_bank()
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
        db, verifier = loaded_bank(update_count_threshold=10_000)
        db.crash()
        blocks = db.log_disk.disks.primary.block_ids()
        assert blocks, "scenario must have flushed log pages"
        for lsn in blocks:
            db.log_disk.disks.primary.corrupt_block(lsn, kind)
        db.restart(RecoveryMode.EAGER)
        verifier.detach()
        verifier.verify()
        assert db.log_disk.disks.failovers > 0

    def test_both_spindles_corrupt_escalates_and_is_rescued(self):
        """Both copies of log blocks unreadable: the duplex read raises a
        distinct MediaFailure; the live-system rescue cuts fresh
        checkpoints and the digest survives the next crash exactly."""
        db, verifier = loaded_bank(update_count_threshold=10_000)
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
        assert report["checkpoints_cut"] > 0
        assert scrub_log_disk(db) == []
        db.crash()
        db.restart(RecoveryMode.EAGER)
        verifier.detach()
        verifier.verify()


class TestLostLogPageIsFatal:
    """Only an unusable *image* falls back to history replay.  The log is
    the last copy: a page of it lost on both mirrors must leave restart
    as a MediaFailure, never be relabelled a survived torn image."""

    #: no page leaves the spindles — for the archive, or folded into a
    #: shadow image — so any page can be damaged and is certain to be read
    WIDE_WINDOW = dict(
        log_window_pages=4096, log_window_grace_pages=64, condense_enabled=False
    )

    def _lose_page(self, db, lsn):
        # the decoded-page LRU outlives crash() by design and would mask
        # the damage
        db.log_disk._page_cache.clear()
        for spindle in (db.log_disk.disks.primary, db.log_disk.disks.mirror):
            spindle.corrupt_block(lsn, "bit-flip")

    def test_lost_chain_page_escalates_from_restart(self):
        db, _ = loaded_bank(update_count_threshold=10_000, **self.WIDE_WINDOW)
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
        db, _ = loaded_bank(**self.WIDE_WINDOW)
        db.recovery_processor.run_until_drained()
        chained = {
            lsn
            for bin_ in db.slt.bins()
            for lsn in enumerate_log_pages(bin_, db.log_disk)[0]
        }
        slots = {
            PartitionAddress(descriptor.segment_id, number): info.checkpoint_slot
            for descriptor in db.catalog.relations()
            for number, info in descriptor.partitions.items()
            if info.checkpoint_slot is not None
        }
        lsn, slot = next(
            (lsn, slots[owner])
            for lsn in db.log_disk.disks.block_ids()
            if lsn not in chained
            and (owner := db.log_disk.page_owner(lsn)) in slots
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
            for info in descriptor.partitions.values()
            if (slot := info.checkpoint_slot) is not None
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_corrupt_image_survived_by_history_replay(self, kind):
        """Every data checkpoint image damaged: recovery detects each one
        (torn flag, CRC, or wrong-partition image) and falls back to
        full-history log replay, digest-exact."""
        db, verifier = loaded_bank()
        assert db.checkpoints.checkpoints_taken > 0
        db.crash()
        slots = self._occupied_slots(db)
        assert slots, "scenario must have cut checkpoints"
        for slot in slots:
            db.checkpoint_disk.disk.corrupt_block(slot, kind)
        db.restart(RecoveryMode.EAGER)
        verifier.detach()
        verifier.verify()
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
        db, verifier = loaded_bank()
        db.crash()
        assert db.checkpoint_disk.disk.destroy() > 0
        report = restore_after_checkpoint_media_failure(db)
        assert report["partitions_rebuilt"] > 0
        verifier.verify()
        # and the freshly cut checkpoints make ordinary crash recovery work
        db.crash()
        db.restart(RecoveryMode.EAGER)
        verifier.detach()
        verifier.verify()


class TestOracle:
    def test_digest_tracks_commits_and_detects_divergence(self):
        db = Database(corruption_config())
        rel = db.create_relation(
            "t", [("id", "int"), ("v", "int")], primary_key="id"
        )
        verifier = RecoveryVerifier(db)
        with db.transaction() as txn:
            addr = rel.insert(txn, {"id": 1, "v": 10})
        first = logical_digest(db)
        assert verifier.expected_digest() == first
        with db.transaction() as txn:
            rel.update(txn, addr, {"v": 20})
        second = logical_digest(db)
        assert second != first
        assert verifier.expected_digest() == second
        verifier.verify()
        # tamper with recovered state behind the oracle's back
        partition = db.memory.partition(addr.partition_address)
        partition.update(addr.offset, b"\x00" * len(partition.read(addr.offset)))
        from repro.common.errors import RecoveryError

        with pytest.raises(RecoveryError):
            verifier.verify()
        verifier.detach()
        assert db.commit_observer is None
