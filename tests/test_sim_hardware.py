"""Tests for the simulated hardware: clock, CPU meter, disks, stable RAM."""

import pytest

from repro.common import StableMemoryFullError
from repro.common.config import AnalysisParameters, DiskParameters
from repro.sim import (
    CpuMeter,
    DuplexedDisk,
    SimulatedDisk,
    StableMemory,
    TornWriteError,
    VirtualClock,
)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock(start=5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0

    def test_advance_to_future(self):
        clock = VirtualClock()
        clock.advance_to(7.25)
        assert clock.now == 7.25

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)


class TestCpuMeter:
    def test_charge_advances_clock_by_mips(self):
        clock = VirtualClock()
        cpu = CpuMeter("recovery", mips=1.0, clock=clock)
        cpu.charge(1_000_000)
        assert clock.now == pytest.approx(1.0)

    def test_faster_cpu_takes_less_time(self):
        clock = VirtualClock()
        cpu = CpuMeter("main", mips=6.0, clock=clock)
        cpu.charge(6_000_000)
        assert clock.now == pytest.approx(1.0)

    def test_category_breakdown(self):
        cpu = CpuMeter("r", mips=1.0, clock=VirtualClock())
        cpu.charge(10, "sort")
        cpu.charge(5, "sort")
        cpu.charge(7, "flush")
        assert cpu.instructions_in("sort") == 15
        assert cpu.instructions_in("flush") == 7
        assert cpu.total_instructions == 22
        assert cpu.category_breakdown() == {"sort": 15, "flush": 7}

    def test_stable_byte_copy_charges_slowdown(self):
        params = AnalysisParameters()
        cpu = CpuMeter("r", mips=1.0, clock=VirtualClock(), params=params)
        cpu.charge_stable_bytes(24)
        expected = params.i_copy_fixed + params.i_copy_add * 4.0 * 24
        assert cpu.total_instructions == pytest.approx(expected)

    def test_negative_charge_rejected(self):
        cpu = CpuMeter("r", mips=1.0, clock=VirtualClock())
        with pytest.raises(ValueError):
            cpu.charge(-1)

    def test_reset_keeps_clock(self):
        clock = VirtualClock()
        cpu = CpuMeter("r", mips=1.0, clock=clock)
        cpu.charge(100)
        before = clock.now
        cpu.reset()
        assert cpu.total_instructions == 0
        assert clock.now == before

    def test_busy_seconds(self):
        cpu = CpuMeter("r", mips=2.0, clock=VirtualClock())
        cpu.charge(2_000_000)
        assert cpu.busy_seconds() == pytest.approx(1.0)

    def test_zero_mips_rejected(self):
        with pytest.raises(ValueError):
            CpuMeter("r", mips=0.0, clock=VirtualClock())


@pytest.fixture()
def disk():
    return SimulatedDisk("log0", DiskParameters(), VirtualClock())


class TestSimulatedDisk:
    def test_write_then_read_roundtrip(self, disk):
        disk.write_page(7, b"hello log page")
        assert disk.read_page(7) == b"hello log page"

    def test_read_missing_block_raises(self, disk):
        with pytest.raises(KeyError):
            disk.read_page(99)

    def test_timing_charged_to_clock(self):
        clock = VirtualClock()
        params = DiskParameters()
        disk = SimulatedDisk("d", params, clock)
        disk.write_page(1, b"x" * 8192)
        assert clock.now == pytest.approx(params.page_write_time(8192))

    def test_track_write_faster_per_byte(self):
        clock = VirtualClock()
        params = DiskParameters()
        disk = SimulatedDisk("d", params, clock)
        blob = b"y" * (48 * 1024)
        disk.write_track(1, blob)
        track_time = clock.now
        disk.write_page(2, blob)
        page_time = clock.now - track_time
        assert track_time < page_time

    def test_stats_counters(self, disk):
        disk.write_page(1, b"abc")
        disk.write_track(2, b"defg")
        disk.read_page(1)
        stats = disk.stats.snapshot()
        assert stats["page_writes"] == 1
        assert stats["track_writes"] == 1
        assert stats["page_reads"] == 1
        assert stats["bytes_written"] == 7
        assert stats["bytes_read"] == 3

    def test_overwrite_replaces_content(self, disk):
        disk.write_page(1, b"old")
        disk.write_page(1, b"new")
        assert disk.read_page(1) == b"new"

    def test_free_releases_block(self, disk):
        disk.write_page(1, b"x")
        disk.free(1)
        assert not disk.contains(1)
        assert len(disk) == 0

    def test_torn_write_makes_block_unreadable(self, disk):
        disk.inject_torn_write()
        disk.write_page(1, b"half")
        with pytest.raises(TornWriteError):
            disk.read_page(1)

    def test_torn_write_applies_once(self, disk):
        disk.inject_torn_write()
        disk.write_page(1, b"half")
        disk.write_page(2, b"whole")
        assert disk.read_page(2) == b"whole"


class TestDuplexedDisk:
    def _pair(self):
        clock = VirtualClock()
        params = DiskParameters()
        return DuplexedDisk(
            SimulatedDisk("p", params, clock), SimulatedDisk("m", params, clock)
        )

    def test_write_reaches_both(self):
        pair = self._pair()
        pair.write_page(1, b"data")
        assert pair.primary.contains(1)
        assert pair.mirror.contains(1)
        # both spindles hold the identical CRC-framed bytes
        assert pair.primary.read_page(1) == pair.mirror.read_page(1)
        assert pair.read_page(1) == b"data"

    def test_torn_primary_served_from_mirror(self):
        pair = self._pair()
        pair.write_page(1, b"good")
        pair.primary.inject_torn_write()
        pair.primary.write_page(1, b"bad")  # tear only the primary copy
        assert pair.read_page(1) == b"good"

    def test_same_disk_twice_rejected(self):
        disk = SimulatedDisk("d", DiskParameters(), VirtualClock())
        with pytest.raises(ValueError):
            DuplexedDisk(disk, disk)


class TestStableMemory:
    def test_allocate_store_load(self):
        mem = StableMemory("slb", 1024)
        mem.allocate("block-1", 100, value=[1, 2, 3])
        assert mem.load("block-1") == [1, 2, 3]
        mem.store("block-1", "replaced")
        assert mem.load("block-1") == "replaced"

    def test_capacity_enforced(self):
        mem = StableMemory("slb", 100)
        mem.allocate("a", 80)
        with pytest.raises(StableMemoryFullError):
            mem.allocate("b", 30)

    def test_release_returns_capacity(self):
        mem = StableMemory("slb", 100)
        mem.allocate("a", 80)
        mem.release("a")
        mem.allocate("b", 90)
        assert mem.used_bytes == 90

    def test_resize(self):
        mem = StableMemory("slt", 100)
        mem.allocate("bin", 10, value="x")
        mem.resize("bin", 60)
        assert mem.used_bytes == 60
        assert mem.load("bin") == "x"
        with pytest.raises(StableMemoryFullError):
            mem.resize("bin", 200)

    def test_duplicate_key_rejected(self):
        mem = StableMemory("slb", 100)
        mem.allocate("a", 1)
        with pytest.raises(KeyError):
            mem.allocate("a", 1)

    def test_missing_key_errors(self):
        mem = StableMemory("slb", 100)
        with pytest.raises(KeyError):
            mem.load("ghost")
        with pytest.raises(KeyError):
            mem.release("ghost")
