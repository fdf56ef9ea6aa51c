"""Tests for repro.common: types, units, config validation."""

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@dataclass(frozen=True, slots=True, order=True)
class _DataclassPartitionAddress:
    """The dataclass :class:`PartitionAddress` was before it became a
    tuple: the reference its hash, equality, order and text must keep."""

    segment: int
    partition: int

    def __str__(self) -> str:
        return f"S{self.segment}.P{self.partition}"


@dataclass(frozen=True, slots=True, order=True)
class _DataclassEntityAddress:
    segment: int
    partition: int
    offset: int

    def __str__(self) -> str:
        return f"S{self.segment}.P{self.partition}+{self.offset}"


_INT32 = st.integers(-(2**31), 2**31 - 1)


class TestAddressesAreTuples:
    """Addresses are ``NamedTuple``s: hashing and comparing them run in C,
    and they behave exactly as the dataclasses they replace."""

    @given(st.lists(st.tuples(_INT32, _INT32), min_size=2, max_size=2))
    def test_partition_address_matches_the_dataclass(self, pairs):
        (a, b) = pairs
        new = [PartitionAddress(*a), PartitionAddress(*b)]
        old = [_DataclassPartitionAddress(*a), _DataclassPartitionAddress(*b)]
        assert [hash(x) for x in new] == [hash(x) for x in old]
        assert [str(x) for x in new] == [str(x) for x in old]
        assert (new[0] == new[1]) == (old[0] == old[1])
        assert (new[0] < new[1]) == (old[0] < old[1])
        assert new[0] == a  # equal to the plain tuple of its fields

    @given(st.lists(st.tuples(_INT32, _INT32, st.integers(0, 2**40)), min_size=2, max_size=2))
    def test_entity_address_matches_the_dataclass(self, triples):
        (a, b) = triples
        new = [EntityAddress(*a), EntityAddress(*b)]
        old = [_DataclassEntityAddress(*a), _DataclassEntityAddress(*b)]
        assert [hash(x) for x in new] == [hash(x) for x in old]
        assert [str(x) for x in new] == [str(x) for x in old]
        assert (new[0] == new[1]) == (old[0] == old[1])
        assert (new[0] < new[1]) == (old[0] < old[1])
        assert new[0].partition_address == PartitionAddress(a[0], a[1])

    @given(_INT32, _INT32, st.integers(0, 2**40))
    def test_an_address_is_never_a_relation_lock(self, segment, partition, offset):
        """The lock table holds entity addresses beside ``("rel",
        segment)`` resources: no address equals one."""
        for address in (
            EntityAddress(segment, partition, offset),
            PartitionAddress(segment, partition),
        ):
            for number in (segment, partition, offset):
                assert address != ("rel", number)
                assert len({address, ("rel", number)}) == 2


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
        assert config.update_count_threshold == 1000
        assert config.analysis.p_recovery_mips == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"partition_size": 0},
            {"log_page_size": -1},
            {"io_retry_budget": -1},
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
