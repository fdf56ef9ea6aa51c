"""Tests for the Stable Log Tail and the log disk (window, directories)."""

import struct

import pytest

from repro.common import EntityAddress, LogError, PartitionAddress, SystemConfig
from repro.common.config import DiskParameters
from repro.common.types import NULL_LSN
from repro.sim import DuplexedDisk, SimulatedDisk, StableMemory, VirtualClock
from repro.wal import (
    FieldPatch,
    HeapPut,
    LogDisk,
    LogPage,
    StableLogBuffer,
    StableLogTail,
    TupleInsert,
)
from repro.wal import records
from repro.wal.audit import AUDIT_OWNER
from repro.wal.log_disk import ARCHIVE_SEGMENT
from repro.wal.records import (
    CommandBarrier,
    SweepMarker,
    compact_form,
    full_forms,
    split_by_owner,
)
from repro.wal.slb import WELL_KNOWN_RESERVE
from repro.wal.slt import CheckpointReason
from tests import page_of, record_bytes, refuse_records

PADDR = PartitionAddress(1, 1)


def make_config(**kwargs):
    defaults = dict(
        log_page_size=256,
        log_directory_size=3,
        update_count_threshold=10,
        log_window_pages=16,
        log_window_grace_pages=4,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def make_slt(config=None):
    config = config or make_config()
    return StableLogTail(StableMemory("slt", 1024 * 1024), config)


def make_log_disk(window=16, grace=4):
    clock = VirtualClock()
    params = DiskParameters()
    pair = DuplexedDisk(
        SimulatedDisk("log-a", params, clock), SimulatedDisk("log-b", params, clock)
    )
    return LogDisk(pair, window_pages=window, grace_pages=grace)


def record(bin_index, offset=1, size=40, paddr=PADDR):
    return TupleInsert(
        1, bin_index, EntityAddress(paddr.segment, paddr.partition, offset), b"x" * size
    )


class TestBinRegistration:
    def test_register_assigns_dense_indexes(self):
        slt = make_slt()
        assert slt.register_partition(PartitionAddress(1, 1)) == 0
        assert slt.register_partition(PartitionAddress(1, 2)) == 1

    def test_duplicate_registration_rejected(self):
        slt = make_slt()
        slt.register_partition(PADDR)
        with pytest.raises(LogError):
            slt.register_partition(PADDR)

    def test_lookup_by_partition(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        assert slt.bin_index_of(PADDR) == idx
        assert slt.bin_for_partition(PADDR).partition == PADDR

    def test_info_block_charged_to_stable_memory(self):
        slt = make_slt()
        before = slt.stable.used_bytes
        slt.register_partition(PADDR)
        assert slt.stable.used_bytes == before + 50

    def test_drop_partition_releases_stable_memory(self):
        slt = make_slt()
        slt.register_partition(PADDR)
        before = slt.stable.used_bytes
        slt.deposit(record(0).encode())  # activate (allocates page buffer)
        slt.drop_partition(PADDR)
        assert slt.stable.used_bytes < before
        with pytest.raises(LogError):
            slt.bin_index_of(PADDR)


class TestDeposit:
    def test_deposit_counts_updates(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        slt.deposit(record(idx).encode())
        slt.deposit(record(idx).encode())
        assert slt.bin(idx).update_count == 2

    def test_activation_allocates_page_buffer(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        before = slt.stable.used_bytes
        slt.deposit(record(idx).encode())
        assert slt.stable.used_bytes == before + slt.config.log_page_size

    def test_deposit_signals_full_page(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        full_seen = False
        for i in range(10):
            if slt.deposit(record(idx, offset=i + 1, size=60).encode()):
                full_seen = True
                break
        assert full_seen

    def test_a_barrier_counts_its_commands_changes(self):
        """One per record; a command barrier adds the changes its command
        made in the partition, at least one."""
        slt = make_slt(make_config(update_count_threshold=1000))
        idx = slt.register_partition(PADDR)
        counts = []
        for changes in (0, 1, 5):
            slt.deposit(CommandBarrier(1, idx, PADDR, 7, changes).encode())
            counts.append(slt.bin(idx).update_count)
        slt.deposit(SweepMarker(1, idx, PADDR, 7).encode())
        slt.deposit(record(idx).encode())
        assert counts == [1, 2, 7]
        assert slt.bin(idx).update_count == 9

    def test_drained_bytes_are_the_encodings_binned_compact(self):
        """The SLB drains each record's own encoding, and the sorting step
        grows the bin by exactly its compact form."""
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        slb = StableLogBuffer(StableMemory("slb", WELL_KNOWN_RESERVE + 4096), 256)
        logged = [
            FieldPatch(3, idx, EntityAddress(1, 1, 4), 2, b"\x01\x02"),
            HeapPut(3, idx, PADDR, 9, b"text"),
            CommandBarrier(3, idx, PADDR, 1, 2),
        ]
        slb.open_chain(3)
        for logged_record in logged:
            slb.append(3, logged_record.encode())
        slb.commit(3)
        drained = slb.drain_committed()
        assert drained == [r.encode() for r in logged]
        bin_ = slt.bin(idx)
        for logged_record, full in zip(logged, drained, strict=True):
            before = bytes(bin_.buffer)
            slt.deposit(full)
            assert bin_.buffer == before + compact_form(full)
            assert compact_form(full) == logged_record.encode(compact=True)

    @staticmethod
    def _loaded(threshold=3):
        """A tail with two bins, one record short of its update-count
        threshold in the first (so a further deposit would make it due)."""
        slt = make_slt(make_config(update_count_threshold=threshold))
        idx = slt.register_partition(PADDR)
        other = slt.register_partition(PartitionAddress(1, 2))
        for offset in range(1, threshold):
            slt.deposit(record(idx, offset=offset).encode())
        return slt, idx, other

    @staticmethod
    def _state(slt):
        """Everything a deposit may change."""
        return (
            [(bytes(b.buffer), b.buffer_bytes, b.update_count) for b in slt.bins()],
            slt.records_binned,
            set(slt._due),
            sorted(key for key in slt.stable.keys() if key.startswith("slt-page-")),
        )

    def test_wrong_bin_index_rejected(self):
        slt, idx, other = self._loaded()
        before = self._state(slt)
        bad = TupleInsert(1, other, EntityAddress(1, 1, 1), b"x")
        with pytest.raises(LogError, match="record for S1.P1 carries bin index 1 of S1.P2"):
            slt.deposit(bad.encode())
        assert self._state(slt) == before
        bad = TupleInsert(1, idx, EntityAddress(1, 2, 1), b"x")
        with pytest.raises(LogError):
            slt.deposit(bad.encode())
        assert self._state(slt) == before

    def test_unknown_bin_rejected(self):
        slt, idx, other = self._loaded()
        before = self._state(slt)
        with pytest.raises(LogError, match="no partition bin 99"):
            slt.deposit(record(99).encode())
        assert self._state(slt) == before

    def test_unknown_tag_rejected_before_the_bin_changes(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        with pytest.raises(LogError, match="unknown log record tag 255"):
            slt.deposit(bytes([255]) + record(idx).encode()[1:])
        bin_ = slt.bin(idx)
        assert (bin_.buffer, bin_.update_count, slt.records_binned) == (bytearray(), 0, 0)
        assert f"slt-page-{idx}" not in slt.stable

    def test_every_record_class_deposits_its_compact_form(self):
        """Each registered class's golden sample grows its bin by exactly
        ``compact_form`` of its bytes (the golden compact encoding) and its
        update count by ``count_updates``' rule."""
        from tests.test_wal_records import GOLDEN_REDO
        from tests.test_wal_records import PADDR as SAMPLE_PADDR

        slt = make_slt(make_config(log_page_size=4096, update_count_threshold=1000))
        for number in range(4):  # the samples carry bin index 4
            slt.register_partition(PartitionAddress(9, number))
        idx = slt.register_partition(SAMPLE_PADDR)
        bin_ = slt.bin(idx)
        for cls in records._REGISTRY.values():
            sample, full, compact = GOLDEN_REDO[cls.__name__]
            assert sample.bin_index == idx
            full = bytes.fromhex(full)
            before, count = bytes(bin_.buffer), bin_.update_count
            slt.deposit(full)
            assert bytes(bin_.buffer) == before + compact_form(full) == before + bytes.fromhex(
                compact
            )
            assert bin_.update_count == count + records.count_updates(compact_form(full))
        assert slt.records_binned == len(records._REGISTRY)


class TestSealAndDirectory:
    def _fill_and_seal(self, slt, idx, log_disk, pages):
        for _ in range(pages):
            while not slt.deposit(record(idx, size=60).encode()):
                pass
            page = slt.seal_page(idx)
            lsn = log_disk.append_page(page)
            slt.note_page_written(idx, lsn)

    def test_seal_empty_bin_rejected(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        with pytest.raises(LogError):
            slt.seal_page(idx)

    def test_first_page_lsn_recorded_once(self):
        slt = make_slt()
        log_disk = make_log_disk()
        idx = slt.register_partition(PADDR)
        self._fill_and_seal(slt, idx, log_disk, 2)
        assert slt.bin(idx).first_page_lsn == 0
        assert slt.bin(idx).flushed_pages == 2

    def test_directory_groups_and_embedding(self):
        # directory size 3: pages 0,1,2 in group 1; page 3 embeds [0,1,2]
        slt = make_slt()
        log_disk = make_log_disk()
        idx = slt.register_partition(PADDR)
        self._fill_and_seal(slt, idx, log_disk, 4)
        assert slt.bin(idx).directory == [3]
        page3 = log_disk.read_page(3)
        assert page3.embedded_directory == [0, 1, 2]
        page0 = log_disk.read_page(0)
        assert page0.embedded_directory == []

    def test_directory_within_first_group(self):
        slt = make_slt()
        log_disk = make_log_disk()
        idx = slt.register_partition(PADDR)
        self._fill_and_seal(slt, idx, log_disk, 2)
        assert slt.bin(idx).directory == [0, 1]

    def test_page_carries_partition_address(self):
        slt = make_slt()
        log_disk = make_log_disk()
        idx = slt.register_partition(PADDR)
        self._fill_and_seal(slt, idx, log_disk, 1)
        page = log_disk.read_page(0, expected=PADDR)
        assert page.partition == PADDR
        with pytest.raises(LogError):
            log_disk.read_page(0, expected=PartitionAddress(9, 9))


class TestCheckpointTriggers:
    def test_update_count_candidates(self):
        slt = make_slt(make_config(update_count_threshold=3))
        idx = slt.register_partition(PADDR)
        for i in range(3):
            slt.deposit(record(idx, offset=i + 1).encode())
        candidates = slt.update_count_candidates()
        assert [c.bin_index for c in candidates] == [idx]

    def test_marked_bins_not_recandidated(self):
        slt = make_slt(make_config(update_count_threshold=2))
        idx = slt.register_partition(PADDR)
        slt.deposit(record(idx).encode())
        slt.deposit(record(idx).encode())
        slt.mark_for_checkpoint(idx, CheckpointReason.UPDATE_COUNT)
        assert slt.update_count_candidates() == []

    def test_age_candidates_from_heap_head(self):
        slt = make_slt()
        log_disk = make_log_disk()
        idx_old = slt.register_partition(PADDR)
        idx_new = slt.register_partition(PartitionAddress(1, 2))
        for idx, paddr in ((idx_old, PADDR), (idx_new, PartitionAddress(1, 2))):
            while not slt.deposit(record(idx, size=60, paddr=paddr).encode()):
                pass
            page = slt.seal_page(idx)
            lsn = log_disk.append_page(page)
            slt.note_page_written(idx, lsn)
        # only the older partition falls below the trigger
        aged = slt.age_candidates(age_trigger_lsn=1)
        assert [b.bin_index for b in aged] == [idx_old]
        # idempotent: the popped entry does not reappear
        assert slt.age_candidates(age_trigger_lsn=1) == []

    def test_reset_after_checkpoint_clears_monitors(self):
        slt = make_slt()
        log_disk = make_log_disk()
        idx = slt.register_partition(PADDR)
        while not slt.deposit(record(idx, size=60).encode()):
            pass
        page = slt.seal_page(idx)
        slt.note_page_written(idx, log_disk.append_page(page))
        slt.deposit(record(idx, offset=7).encode())  # leftover buffered record
        leftovers = slt.reset_after_checkpoint(idx)
        bin_ = slt.bin(idx)
        assert leftovers == record(idx, offset=7).encode(compact=True)
        assert bin_.update_count == 0
        assert bin_.first_page_lsn == NULL_LSN
        assert bin_.directory == []
        assert not bin_.active

    def test_reset_releases_page_buffer(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        slt.deposit(record(idx).encode())
        used_active = slt.stable.used_bytes
        slt.reset_after_checkpoint(idx)
        assert slt.stable.used_bytes < used_active


class TestLogDiskWindow:
    def test_lsns_are_sequential(self):
        log_disk = make_log_disk()
        for expected in range(3):
            lsn = log_disk.append_page(page_of(PADDR, [record(0)]))
            assert lsn == expected

    def test_window_slides(self):
        log_disk = make_log_disk(window=4, grace=1)
        for _ in range(6):
            log_disk.append_page(page_of(PADDR, [record(0)]))
        assert log_disk.window_start == 2

    def test_expired_pages_go_to_archive(self):
        log_disk = make_log_disk(window=4, grace=1)
        for _ in range(6):
            log_disk.append_page(page_of(PADDR, [record(0)]))
        assert 0 in log_disk.archive
        # still readable through the unified read path
        page = log_disk.read_page(0)
        assert page.lsn == 0

    def test_every_expired_block_leaves_the_spindles(self):
        """Whatever wrote or removed the pages — REDO and audit page
        appends, a rescue's drop — after each append the spindles hold
        exactly the rest of the window, and the archive every page that
        left it.  An audit page is framed as it always was: the page
        header, owner segment -2, no directory, then its body."""
        log_disk = make_log_disk(window=4, grace=1)
        dropped = set()
        for step in range(20):
            if step % 3:
                log_disk.append_page(page_of(PADDR, [record(0)]))
            else:
                lsn = log_disk.append_page(LogPage(AUDIT_OWNER, b"audit"))
                expected = struct.pack("<iiqHI", -2, 0, lsn, 0, 5) + b"audit"
                assert log_disk.fetch_blob(lsn) == expected
                assert log_disk.read_page(lsn, expected=AUDIT_OWNER).body == b"audit"
            if step == 11:
                dropped.add(log_disk.next_lsn - 1)
                log_disk.drop_page(log_disk.next_lsn - 1)
            start = log_disk.window_start
            window = set(range(start, log_disk.next_lsn))
            assert set(log_disk.disks.block_ids()) == window - dropped
            assert set(log_disk.archive.lsns()) == set(range(start)) - dropped

    def test_drop_page_frees_the_spindles(self):
        log_disk = make_log_disk()
        lsn = log_disk.append_page(page_of(PADDR, [record(0)]))
        log_disk.read_page(lsn)
        log_disk.drop_page(lsn)
        with pytest.raises(LogError):
            log_disk.read_page(lsn)

    def test_read_page_decodes_no_record(self, monkeypatch):
        """Reading a page parses its header only: the body stays bytes."""
        log_disk = make_log_disk()
        written = page_of(PADDR, [record(0)])
        lsn = log_disk.append_page(written)
        refuse_records(monkeypatch)
        page = log_disk.read_page(lsn)
        assert page.partition == PADDR
        assert page == written

    def test_missing_page_raises(self):
        log_disk = make_log_disk()
        with pytest.raises(LogError):
            log_disk.read_page(42)

    def test_page_roundtrip_with_directory(self):
        log_disk = make_log_disk()
        page = page_of(PADDR, [record(0), record(0, offset=2)], [10, 11, 12])
        lsn = log_disk.append_page(page)
        read = log_disk.read_page(lsn)
        assert read.embedded_directory == [10, 11, 12]
        assert record_bytes(read.body) == [
            record(0).encode(compact=True),
            record(0, offset=2).encode(compact=True),
        ]

    def test_archive_page_marker(self):
        page = page_of(PartitionAddress(ARCHIVE_SEGMENT, 0), [record(0)])
        assert page.is_archive_page

    def test_overrun_assertion(self):
        log_disk = make_log_disk(window=4, grace=1)
        for _ in range(6):
            log_disk.append_page(page_of(PADDR, [record(0)]))
        from repro.common.errors import LogWindowOverrunError

        with pytest.raises(LogWindowOverrunError):
            log_disk.assert_recoverable(0, PADDR)
        log_disk.assert_recoverable(5, PADDR)  # inside the window: fine
        log_disk.assert_recoverable(NULL_LSN, PADDR)  # no pages: fine

    def test_duplexed_survives_torn_primary(self):
        log_disk = make_log_disk()
        log_disk.disks.primary.inject_torn_write()
        lsn = log_disk.append_page(page_of(PADDR, [record(0)]))
        page = log_disk.read_page(lsn)  # served from the mirror
        assert page.lsn == lsn


class TestLogCondensing:
    """Section 2.3.3 point 3: redundant address information is stripped
    from records on dedicated pages."""

    def test_compact_roundtrip_preserves_records(self):
        records = [
            record(0, offset=i + 1, size=8 + i) for i in range(10)
        ]
        body = b"".join(r.encode(compact=True) for r in records)
        assert full_forms(body, PADDR) == [r.encode() for r in records]

    def test_dedicated_page_smaller_than_full_format(self):
        page = page_of(PADDR, [record(0, offset=i + 1) for i in range(20)])
        compact_size = len(page.encode())
        full_size = sum(len(record(0, offset=i + 1).encode()) for i in range(20)) + 22
        assert compact_size < full_size
        # exactly 8 bytes per record saved
        assert full_size - compact_size == 8 * 20

    def test_disk_roundtrip_with_condensing(self):
        log_disk = make_log_disk()
        records = [record(0, offset=i + 1, size=30) for i in range(5)]
        lsn = log_disk.append_page(page_of(PADDR, records))
        read = log_disk.read_page(lsn, expected=PADDR)
        assert read.body == b"".join(r.encode(compact=True) for r in records)

    def test_archive_pages_keep_full_format(self):
        from repro.common import EntityAddress
        from repro.wal.log_disk import ARCHIVE_SEGMENT

        mixed = [
            TupleInsert(1, 0, EntityAddress(1, 1, 1), b"a"),
            TupleInsert(1, 1, EntityAddress(1, 2, 1), b"b"),  # other partition
        ]
        log_disk = make_log_disk()
        page = page_of(PartitionAddress(ARCHIVE_SEGMENT, 0), mixed)
        lsn = log_disk.append_page(page)
        read = log_disk.read_page(lsn)
        assert read.body == b"".join(r.encode() for r in mixed)
        assert split_by_owner(read.body) == {
            PartitionAddress(1, 1): mixed[0].encode(compact=True),
            PartitionAddress(1, 2): mixed[1].encode(compact=True),
        }
