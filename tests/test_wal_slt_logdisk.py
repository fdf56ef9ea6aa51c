"""Tests for the Stable Log Tail and the log disk (window, directories)."""

import pytest

from repro.common import EntityAddress, LogError, PartitionAddress, SystemConfig
from repro.common.config import DiskParameters
from repro.common.types import NULL_LSN
from repro.sim import DuplexedDisk, SimulatedDisk, StableMemory, VirtualClock
from repro.wal import LogDisk, LogPage, StableLogTail, TupleInsert
from repro.wal.log_disk import ARCHIVE_SEGMENT
from repro.wal.slt import CheckpointReason

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


def make_log_disk(window=16, grace=4, cache=128):
    clock = VirtualClock()
    params = DiskParameters()
    pair = DuplexedDisk(
        SimulatedDisk("log-a", params, clock), SimulatedDisk("log-b", params, clock)
    )
    return LogDisk(pair, window_pages=window, grace_pages=grace, cache_pages=cache)


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
        slt.deposit(record(0))  # activate (allocates page buffer)
        slt.drop_partition(PADDR)
        assert slt.stable.used_bytes < before
        with pytest.raises(LogError):
            slt.bin_index_of(PADDR)


class TestDeposit:
    def test_deposit_counts_updates(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        slt.deposit(record(idx))
        slt.deposit(record(idx))
        assert slt.bin(idx).update_count == 2

    def test_activation_allocates_page_buffer(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        before = slt.stable.used_bytes
        slt.deposit(record(idx))
        assert slt.stable.used_bytes == before + slt.config.log_page_size

    def test_deposit_signals_full_page(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        full_seen = False
        for i in range(10):
            if slt.deposit(record(idx, offset=i + 1, size=60)):
                full_seen = True
                break
        assert full_seen

    def test_wrong_bin_index_rejected(self):
        slt = make_slt()
        slt.register_partition(PADDR)
        other = slt.register_partition(PartitionAddress(1, 2))
        bad = TupleInsert(1, other, EntityAddress(1, 1, 1), b"x")
        with pytest.raises(LogError):
            slt.deposit(bad)

    def test_unknown_bin_rejected(self):
        slt = make_slt()
        with pytest.raises(LogError):
            slt.deposit(record(99))


class TestSealAndDirectory:
    def _fill_and_seal(self, slt, idx, log_disk, pages):
        for _ in range(pages):
            while not slt.deposit(record(idx, size=60)):
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
            slt.deposit(record(idx, offset=i + 1))
        candidates = slt.update_count_candidates()
        assert [c.bin_index for c in candidates] == [idx]

    def test_marked_bins_not_recandidated(self):
        slt = make_slt(make_config(update_count_threshold=2))
        idx = slt.register_partition(PADDR)
        slt.deposit(record(idx))
        slt.deposit(record(idx))
        slt.mark_for_checkpoint(idx, CheckpointReason.UPDATE_COUNT)
        assert slt.update_count_candidates() == []

    def test_age_candidates_from_heap_head(self):
        slt = make_slt()
        log_disk = make_log_disk()
        idx_old = slt.register_partition(PADDR)
        idx_new = slt.register_partition(PartitionAddress(1, 2))
        for idx, paddr in ((idx_old, PADDR), (idx_new, PartitionAddress(1, 2))):
            while not slt.deposit(record(idx, size=60, paddr=paddr)):
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
        while not slt.deposit(record(idx, size=60)):
            pass
        page = slt.seal_page(idx)
        slt.note_page_written(idx, log_disk.append_page(page))
        slt.deposit(record(idx))  # leftover buffered record
        leftovers = slt.reset_after_checkpoint(idx)
        bin_ = slt.bin(idx)
        assert len(leftovers) == 1
        assert bin_.update_count == 0
        assert bin_.first_page_lsn == NULL_LSN
        assert bin_.directory == []
        assert not bin_.active

    def test_reset_releases_page_buffer(self):
        slt = make_slt()
        idx = slt.register_partition(PADDR)
        slt.deposit(record(idx))
        used_active = slt.stable.used_bytes
        slt.reset_after_checkpoint(idx)
        assert slt.stable.used_bytes < used_active


class TestLogDiskWindow:
    def test_lsns_are_sequential(self):
        log_disk = make_log_disk()
        for expected in range(3):
            lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
            assert lsn == expected

    def test_window_slides(self):
        log_disk = make_log_disk(window=4, grace=1)
        for _ in range(6):
            log_disk.append_page(LogPage(PADDR, [record(0)]))
        assert log_disk.window_start == 2
        assert not log_disk.in_window(1)
        assert log_disk.in_window(5)

    def test_expired_pages_go_to_archive(self):
        log_disk = make_log_disk(window=4, grace=1)
        for _ in range(6):
            log_disk.append_page(LogPage(PADDR, [record(0)]))
        assert 0 in log_disk.archive
        # still readable through the unified read path
        page = log_disk.read_page(0)
        assert page.lsn == 0

    def test_missing_page_raises(self):
        log_disk = make_log_disk()
        with pytest.raises(LogError):
            log_disk.read_page(42)

    def test_page_roundtrip_with_directory(self):
        log_disk = make_log_disk()
        page = LogPage(PADDR, [record(0), record(0, offset=2)], [10, 11, 12])
        lsn = log_disk.append_page(page)
        read = log_disk.read_page(lsn)
        assert read.embedded_directory == [10, 11, 12]
        assert len(read.records) == 2
        assert read.records[1].address.offset == 2

    def test_archive_page_marker(self):
        page = LogPage(PartitionAddress(ARCHIVE_SEGMENT, 0), [record(0)])
        assert page.is_archive_page

    def test_overrun_assertion(self):
        log_disk = make_log_disk(window=4, grace=1)
        for _ in range(6):
            log_disk.append_page(LogPage(PADDR, [record(0)]))
        from repro.common.errors import LogWindowOverrunError

        with pytest.raises(LogWindowOverrunError):
            log_disk.assert_recoverable(0, PADDR)
        log_disk.assert_recoverable(5, PADDR)  # inside the window: fine
        log_disk.assert_recoverable(NULL_LSN, PADDR)  # no pages: fine

    def test_duplexed_survives_torn_primary(self):
        log_disk = make_log_disk()
        log_disk.disks.primary.inject_torn_write()
        lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
        page = log_disk.read_page(lsn)  # served from the mirror
        assert page.lsn == lsn


class TestLogCondensing:
    """Section 2.3.3 point 3: redundant address information is stripped
    from records on dedicated pages."""

    def test_compact_roundtrip_preserves_records(self):
        from repro.wal import decode_records

        records = [
            record(0, offset=i + 1, size=8 + i) for i in range(10)
        ]
        body = b"".join(r.encode(compact=True) for r in records)
        assert decode_records(body, PADDR) == records

    def test_dedicated_page_smaller_than_full_format(self):
        page = LogPage(PADDR, [record(0, offset=i + 1) for i in range(20)])
        compact_size = len(page.encode())
        full_size = sum(len(r.encode()) for r in page.records) + 22
        assert compact_size < full_size
        # exactly 8 bytes per record saved
        assert full_size - compact_size == 8 * 20

    def test_disk_roundtrip_with_condensing(self):
        log_disk = make_log_disk()
        records = [record(0, offset=i + 1, size=30) for i in range(5)]
        lsn = log_disk.append_page(LogPage(PADDR, records))
        read = log_disk.read_page(lsn, expected=PADDR)
        assert read.records == records

    def test_archive_pages_keep_full_format(self):
        from repro.common import EntityAddress
        from repro.wal.log_disk import ARCHIVE_SEGMENT

        mixed = [
            TupleInsert(1, 0, EntityAddress(1, 1, 1), b"a"),
            TupleInsert(1, 1, EntityAddress(1, 2, 1), b"b"),  # other partition
        ]
        log_disk = make_log_disk()
        page = LogPage(PartitionAddress(ARCHIVE_SEGMENT, 0), mixed)
        lsn = log_disk.append_page(page)
        read = log_disk.read_page(lsn)
        assert read.records == mixed
        assert {r.partition_address for r in read.records} == {
            PartitionAddress(1, 1),
            PartitionAddress(1, 2),
        }


class TestDecodedPageCache:
    """The bounded LRU of pages read (header parsed, records still bytes)
    shared by media scans, ``page_owner`` and restart reads."""

    def test_repeat_read_served_from_cache(self):
        log_disk = make_log_disk()
        lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
        first = log_disk.read_page(lsn)
        reads = log_disk.pages_read
        again = log_disk.read_page(lsn)
        assert again is first  # the decoded object itself
        assert log_disk.pages_read == reads  # no second disk read
        assert log_disk.cache_hits >= 1

    def test_page_owner_hits_cache_after_read(self):
        log_disk = make_log_disk()
        lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
        log_disk.read_page(lsn)
        reads = log_disk.pages_read
        assert log_disk.page_owner(lsn) == PADDR
        assert log_disk.pages_read == reads

    def test_page_owner_peek_does_not_decode(self, monkeypatch):
        """Reading a page parses its header only; records are built on
        the first ``page.records``, once."""
        import repro.wal.records as records_module

        log_disk = make_log_disk()
        lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
        decode = records_module.decode_record
        calls = []
        monkeypatch.setattr(
            records_module, "decode_record", lambda *a: calls.append(a) or decode(*a)
        )
        assert log_disk.page_owner(lsn) == PADDR
        page = log_disk.read_page(lsn)
        assert calls == []
        assert page.records == [record(0)]
        assert page.records is page.records and len(calls) == 1

    def test_cache_disabled(self):
        log_disk = make_log_disk(cache=0)
        lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
        log_disk.read_page(lsn)
        reads = log_disk.pages_read
        log_disk.read_page(lsn)
        assert log_disk.pages_read == reads + 1
        assert log_disk.cache_hits == 0

    def test_lru_eviction_is_bounded(self):
        log_disk = make_log_disk(cache=2)
        lsns = [log_disk.append_page(LogPage(PADDR, [record(0)])) for _ in range(3)]
        for lsn in lsns:
            log_disk.read_page(lsn)
        reads = log_disk.pages_read
        log_disk.read_page(lsns[0])  # evicted by the third insert
        assert log_disk.pages_read == reads + 1
        log_disk.read_page(lsns[2])  # still cached
        assert log_disk.pages_read == reads + 1

    def test_drop_page_evicts_cache_and_spindles(self):
        log_disk = make_log_disk()
        lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
        log_disk.read_page(lsn)
        log_disk.drop_page(lsn)
        with pytest.raises(LogError):
            log_disk.read_page(lsn)

    def test_crash_empties_the_cache(self):
        log_disk = make_log_disk()
        lsn = log_disk.append_page(LogPage(PADDR, [record(0)]))
        stale = log_disk.read_page(lsn)
        log_disk.crash()
        hits, reads = log_disk.cache_hits, log_disk.pages_read
        fresh = log_disk.read_page(lsn)
        assert fresh == stale and fresh is not stale  # decoded again
        assert log_disk.cache_hits == hits
        assert log_disk.pages_read == reads + 1

    def test_negative_cache_size_rejected(self):
        with pytest.raises(Exception):
            make_log_disk(cache=-1)
