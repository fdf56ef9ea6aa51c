"""Tests for repro.common: types, units, config validation."""

import pytest

from repro.common import (
    NULL_LSN,
    ConfigurationError,
    Counters,
    DiskParameters,
    EntityAddress,
    PartitionAddress,
    SystemConfig,
)
from repro.common.units import format_bytes, format_seconds


class TestPartitionAddress:
    def test_equality_and_hash(self):
        a = PartitionAddress(1, 2)
        b = PartitionAddress(1, 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != PartitionAddress(1, 3)

    def test_ordering_is_lexicographic(self):
        assert PartitionAddress(1, 9) < PartitionAddress(2, 0)
        assert PartitionAddress(1, 1) < PartitionAddress(1, 2)

    def test_str(self):
        assert str(PartitionAddress(3, 7)) == "S3.P7"


class TestEntityAddress:
    def test_partition_address_projection(self):
        entity = EntityAddress(4, 5, 192)
        assert entity.partition_address == PartitionAddress(4, 5)

    def test_str(self):
        assert str(EntityAddress(1, 2, 3)) == "S1.P2+3"

    def test_frozen(self):
        entity = EntityAddress(1, 2, 3)
        with pytest.raises(AttributeError):
            entity.offset = 9  # type: ignore[misc]


class TestUnits:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(48 * 1024) == "48.0 KB"
        assert format_bytes(3 * 1024 * 1024) == "3.0 MB"

    def test_format_seconds(self):
        assert format_seconds(2.0) == "2.000 s"
        assert format_seconds(0.0032).endswith("ms")
        assert format_seconds(0.0000008).endswith("us")


class TestSystemConfig:
    def test_defaults_follow_table2(self):
        config = SystemConfig()
        assert config.partition_size == 48 * 1024
        assert config.log_page_size == 8 * 1024
        assert config.log_record_size == 24
        assert config.update_count_threshold == 1000
        assert config.analysis.p_recovery_mips == 1.0

    def test_records_per_page(self):
        config = SystemConfig()
        assert config.records_per_page == (8 * 1024) // 24

    def test_pages_per_checkpoint(self):
        config = SystemConfig()
        expected = 1000 * 24 / (8 * 1024)
        assert config.pages_per_checkpoint == pytest.approx(expected)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"partition_size": 0},
            {"log_page_size": -1},
            {"log_record_size": 0},
            {"update_count_threshold": 0},
            {"log_directory_size": 0},
            {"log_block_size": 0},
            {"log_window_pages": 10, "log_window_grace_pages": 10},
            {"checkpoint_slots": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SystemConfig(**kwargs)


class TestDiskParameters:
    def test_page_read_uses_average_seek(self):
        disk = DiskParameters()
        t = disk.page_read_time(8192)
        assert t == pytest.approx(
            disk.avg_seek_s + disk.rotational_latency_s + 8192 / disk.page_transfer_rate
        )

    def test_sibling_seek_is_cheaper(self):
        disk = DiskParameters()
        assert disk.page_read_time(8192, sibling=True) < disk.page_read_time(8192)

    def test_track_transfer_is_double_page_rate(self):
        disk = DiskParameters()
        assert disk.track_transfer_rate == pytest.approx(2 * disk.page_transfer_rate)

    def test_track_read_faster_than_page_read_for_same_bytes(self):
        disk = DiskParameters()
        nbytes = 48 * 1024
        assert disk.track_read_time(nbytes) < disk.page_read_time(nbytes)

    def test_null_lsn_sentinel(self):
        assert NULL_LSN == -1


class TestCounters:
    def test_declared_names_start_at_zero_and_count(self):
        counters = Counters("a", "b")
        assert counters.snapshot() == {"a": 0, "b": 0}
        counters.inc("a")
        counters.inc("b", by=3)
        assert counters.snapshot() == {"a": 1, "b": 3}

    def test_unknown_name_rejected(self):
        counters = Counters("a")
        with pytest.raises(KeyError, match="typo"):
            counters.inc("typo")
        assert counters.snapshot() == {"a": 0}
