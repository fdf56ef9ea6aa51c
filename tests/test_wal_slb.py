"""Tests for the Stable Log Buffer: chains, commit lists, drain, crash."""

import pytest

from repro.common import (
    EntityAddress,
    PartitionAddress,
    StableMemoryFullError,
    TransactionStateError,
)
from repro.sim import StableMemory
from repro.wal import StableLogBuffer, TupleInsert
from repro.wal.records import CommandBarrier
from repro.wal.slb import WELL_KNOWN_RESERVE


def record(txn_id, n=0, size=8):
    return TupleInsert(txn_id, 0, EntityAddress(1, 1, n + 1), b"x" * size)


@pytest.fixture()
def slb():
    stable = StableMemory("slb", WELL_KNOWN_RESERVE + 64 * 1024)
    return StableLogBuffer(stable, block_size=256)


class TestChains:
    def test_append_requires_open_chain(self, slb):
        with pytest.raises(TransactionStateError):
            slb.append(1, record(1))

    def test_open_append_commit(self, slb):
        slb.open_chain(1)
        slb.append(1, record(1, 0))
        slb.append(1, record(1, 1))
        slb.commit(1)
        assert slb.committed_record_count() == 2

    def test_double_open_rejected(self, slb):
        slb.open_chain(1)
        with pytest.raises(TransactionStateError):
            slb.open_chain(1)

    def test_chain_spans_blocks(self, slb):
        slb.open_chain(1)
        for i in range(20):  # 20 * ~45 bytes > 2 blocks of 256
            slb.append(1, record(1, i))
        chain = slb._uncommitted[1]
        assert len(chain.blocks) >= 2
        assert list(chain.records())[0].address.offset == 1

    def test_block_allocation_uses_latch(self, slb):
        slb.open_chain(1)
        slb.append(1, record(1))
        assert slb.block_latch.acquisitions >= 1
        assert not slb.block_latch.held

    def test_capacity_backpressure(self):
        stable = StableMemory("slb", WELL_KNOWN_RESERVE + 512)
        slb = StableLogBuffer(stable, block_size=256)
        slb.open_chain(1)
        with pytest.raises(StableMemoryFullError):
            for i in range(100):
                slb.append(1, record(1, i, size=100))


class TestCommitAbort:
    def test_commit_moves_to_committed_list(self, slb):
        slb.open_chain(1)
        slb.append(1, record(1))
        slb.commit(1)
        assert slb.uncommitted_txn_ids == []
        assert slb.committed_chain_count == 1

    def test_commit_order_preserved(self, slb):
        for txn in (1, 2, 3):
            slb.open_chain(txn)
            slb.append(txn, record(txn, txn))
        for txn in (2, 3, 1):  # commit in a different order
            slb.commit(txn)
        drained = slb.drain_committed()
        assert [r.txn_id for r in drained] == [2, 3, 1]

    def test_abort_discards_and_frees(self, slb):
        slb.open_chain(1)
        slb.append(1, record(1))
        used_before = slb.stable.used_bytes
        slb.abort(1)
        assert slb.stable.used_bytes < used_before
        assert slb.uncommitted_txn_ids == []
        assert slb.aborts == 1

    def test_abort_without_chain_is_noop(self, slb):
        slb.abort(42)
        assert slb.aborts == 0

    def test_commit_without_chain_rejected(self, slb):
        with pytest.raises(TransactionStateError):
            slb.commit(42)


class TestDrain:
    def test_drain_frees_blocks(self, slb):
        slb.open_chain(1)
        for i in range(10):
            slb.append(1, record(1, i))
        slb.commit(1)
        used_before = slb.stable.used_bytes
        drained = slb.drain_committed()
        assert len(drained) == 10
        assert slb.stable.used_bytes < used_before
        assert slb.committed_chain_count == 0

    def test_partial_drain_respects_limit_and_order(self, slb):
        slb.open_chain(1)
        for i in range(10):
            slb.append(1, record(1, i))
        slb.commit(1)
        first = slb.drain_committed(max_records=4)
        rest = slb.drain_committed()
        assert len(first) == 4
        assert len(rest) == 6
        offsets = [r.address.offset for r in first + rest]
        assert offsets == sorted(offsets)

    def test_drain_empty_returns_nothing(self, slb):
        assert slb.drain_committed() == []

    def test_partial_drain_across_transactions(self, slb):
        for txn in (1, 2):
            slb.open_chain(txn)
            for i in range(5):
                slb.append(txn, record(txn, i))
            slb.commit(txn)
        first = slb.drain_committed(max_records=7)
        rest = slb.drain_committed()
        assert [r.txn_id for r in first] == [1] * 5 + [2] * 2
        assert [r.txn_id for r in rest] == [2] * 3


class TestCrashSemantics:
    def test_uncommitted_discarded_at_restart(self, slb):
        slb.open_chain(1)
        slb.append(1, record(1))
        slb.open_chain(2)
        slb.append(2, record(2))
        slb.commit(2)
        # crash: stable object survives; restart policy discards losers
        discarded = slb.discard_uncommitted()
        assert discarded == 1
        drained = slb.drain_committed()
        assert [r.txn_id for r in drained] == [2]

    def test_well_known_area_survives(self, slb):
        slb.put_well_known("catalog-partitions", [(1, 1), (1, 2)])
        # nothing volatile about it: same object after "crash"
        assert slb.get_well_known("catalog-partitions") == [(1, 1), (1, 2)]
        assert slb.get_well_known("missing", "fallback") == "fallback"

    def test_statistics_track_throughput(self, slb):
        slb.open_chain(1)
        slb.append(1, record(1))
        slb.commit(1)
        assert slb.records_written == 1
        assert slb.bytes_written > 0
        assert slb.commits == 1


class TestRepack:
    """Every path that rebuilds a chain from a record list keeps the
    chain, its blocks and the written counters in step."""

    def test_truncate_takes_records_and_bytes_back_out(self, slb):
        slb.open_chain(1)
        slb.append(1, record(1, 0))
        records, nbytes = slb.records_written, slb.bytes_written
        for n in range(1, 12):  # spills into further blocks
            slb.append(1, record(1, n, size=40))
        assert slb.truncate_chain(1, 1) == 11
        assert (slb.records_written, slb.bytes_written) == (records, nbytes)
        assert slb.used_blocks() == 1
        slb.commit(1)
        assert [r.address.offset for r in slb.drain_committed()] == [1]

    def test_commit_command_unwinds_then_retries_after_drain(self):
        """Barriers needing a block the SLB cannot allocate: the chain and
        both counters are exactly as before the attempt, and the caller's
        drain-and-retry then commits."""
        stable = StableMemory("slb", WELL_KNOWN_RESERVE + 3 * 256)
        slb = StableLogBuffer(stable, block_size=256)
        slb.open_chain(1)
        slb.append(1, record(1))
        slb.commit(1)  # one drainable block
        slb.open_chain(3)
        slb.append(3, record(3))  # one block held by a bystander
        slb.open_chain(2)
        for n in range(5):  # 5 x 41 bytes: room for two barriers, not three
            slb.append(2, record(2, n))
        chain_before = list(slb._uncommitted[2].records())
        counters_before = (slb.records_written, slb.bytes_written, slb.commits)
        partition = PartitionAddress(1, 1)

        def build(csn):
            return b"command", [CommandBarrier(2, n, partition, csn) for n in range(3)]

        with pytest.raises(StableMemoryFullError):
            slb.commit_command(2, build)
        assert list(slb._uncommitted[2].records()) == chain_before
        assert (slb.records_written, slb.bytes_written, slb.commits) == counters_before
        assert slb.command_seq == 0 and slb.live_commands() == []
        assert slb.used_blocks() == 3
        assert len(slb.drain_committed()) == 1  # the caller's back-pressure drain
        assert slb.commit_command(2, build) == 1
        assert slb.live_commands() == [(1, b"command")]
        assert slb.uncommitted_txn_ids == [3]
        drained = slb.drain_committed()
        assert drained[:5] == chain_before
        assert [type(r) for r in drained[5:]] == [CommandBarrier] * 3
        assert slb.records_written == counters_before[0] + 3
        assert slb.bytes_written == counters_before[1] + 3 * 25 + len(b"command")
