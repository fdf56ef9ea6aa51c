"""Tests for REDO record formats: encode/decode roundtrips and REDO apply."""

import pytest

from repro.common import EntityAddress, LogError, PartitionAddress
from repro.common.errors import LogError as LogErrorAlias  # noqa: F401
from repro.storage import Partition
from repro.wal import (
    FieldPatch,
    HeapDelete,
    HeapPut,
    HeapReplace,
    IndexNodeFree,
    IndexNodeWrite,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
    decode_record,
    decode_records,
)

PADDR = PartitionAddress(2, 3)
EADDR = EntityAddress(2, 3, 11)


def roundtrip(record):
    decoded, consumed = decode_record(record.encode())
    assert consumed == record.size_bytes
    return decoded


ALL_RECORDS = [
    TupleInsert(7, 4, EADDR, b"tuple-data"),
    TupleUpdate(7, 4, EADDR, b"new-bytes"),
    TupleDelete(7, 4, EADDR),
    FieldPatch(7, 4, EADDR, 8, b"\x01\x02\x03\x04"),
    HeapPut(7, 4, PADDR, 3, b"string-value"),
    HeapReplace(7, 4, PADDR, 3, b"replacement"),
    HeapDelete(7, 4, PADDR, 3),
    IndexNodeWrite(7, 4, EADDR, b"node-image"),
    IndexNodeFree(7, 4, EADDR),
]


class TestWireFormat:
    @pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: type(r).__name__)
    def test_encode_decode_roundtrip(self, record):
        assert roundtrip(record) == record

    @pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: type(r).__name__)
    def test_every_record_names_one_partition(self, record):
        assert record.partition_address == PADDR

    def test_decode_records_sequence(self):
        blob = b"".join(r.encode() for r in ALL_RECORDS)
        assert decode_records(blob) == ALL_RECORDS

    def test_unknown_tag_rejected(self):
        blob = bytes([255]) + b"\x00" * 12
        with pytest.raises(LogError):
            decode_record(blob)

    def test_truncated_header_rejected(self):
        with pytest.raises(LogError):
            decode_record(b"\x01\x02")

    def test_size_bytes_matches_encoding(self):
        for record in ALL_RECORDS:
            assert record.size_bytes == len(record.encode())

    def test_with_bin_index(self):
        record = TupleInsert(7, 0, EADDR, b"x")
        reassigned = record.with_bin_index(9)
        assert reassigned.bin_index == 9
        assert reassigned.address == record.address
        assert record.with_bin_index(0) is record

    def test_small_records_are_compact(self):
        # Table 2: common records are 8-24 bytes of operation payload.
        patch = FieldPatch(7, 4, EADDR, 0, b"\x00" * 8)
        assert patch.size_bytes <= 48


@pytest.fixture()
def partition():
    return Partition(PADDR, 48 * 1024)


class TestRedoApply:
    def test_tuple_insert(self, partition):
        TupleInsert(1, 0, EntityAddress(2, 3, 5), b"hello").apply(partition)
        assert partition.read(5) == b"hello"

    def test_tuple_update(self, partition):
        partition.insert_at(5, b"old")
        TupleUpdate(1, 0, EntityAddress(2, 3, 5), b"new").apply(partition)
        assert partition.read(5) == b"new"

    def test_tuple_delete(self, partition):
        partition.insert_at(5, b"gone")
        TupleDelete(1, 0, EntityAddress(2, 3, 5)).apply(partition)
        assert 5 not in partition

    def test_field_patch(self, partition):
        partition.insert_at(5, b"AAAABBBBCCCC")
        FieldPatch(1, 0, EntityAddress(2, 3, 5), 4, b"XXXX").apply(partition)
        assert partition.read(5) == b"AAAAXXXXCCCC"

    def test_field_patch_out_of_range_rejected(self, partition):
        partition.insert_at(5, b"shrt")
        with pytest.raises(LogError):
            FieldPatch(1, 0, EntityAddress(2, 3, 5), 2, b"too-long").apply(partition)

    def test_heap_put_reinstalls_recorded_handle(self, partition):
        HeapPut(1, 0, PADDR, 7, b"value").apply(partition)
        assert partition.heap.get(7) == b"value"
        # counter advanced past the replayed handle
        assert partition.heap.put(b"next") == 8

    def test_heap_replace(self, partition):
        handle = partition.heap.put(b"before")
        HeapReplace(1, 0, PADDR, handle, b"after").apply(partition)
        assert partition.heap.get(handle) == b"after"

    def test_heap_delete(self, partition):
        handle = partition.heap.put(b"bye")
        HeapDelete(1, 0, PADDR, handle).apply(partition)
        assert handle not in partition.heap

    def test_index_node_write_upserts(self, partition):
        addr = EntityAddress(2, 3, 9)
        IndexNodeWrite(1, 0, addr, b"v1").apply(partition)
        assert partition.read(9) == b"v1"
        IndexNodeWrite(1, 0, addr, b"v2").apply(partition)
        assert partition.read(9) == b"v2"

    def test_index_node_free_is_idempotent(self, partition):
        addr = EntityAddress(2, 3, 9)
        partition.insert_at(9, b"node")
        IndexNodeFree(1, 0, addr).apply(partition)
        IndexNodeFree(1, 0, addr).apply(partition)  # no error
        assert 9 not in partition

    def test_wrong_partition_rejected(self, partition):
        record = TupleInsert(1, 0, EntityAddress(9, 9, 1), b"x")
        with pytest.raises(LogError):
            record.apply(partition)

    def test_replay_sequence_reproduces_state(self, partition):
        ops = [
            TupleInsert(1, 0, EntityAddress(2, 3, 1), b"alpha"),
            TupleInsert(1, 0, EntityAddress(2, 3, 2), b"beta"),
            TupleUpdate(2, 0, EntityAddress(2, 3, 1), b"ALPHA"),
            TupleDelete(3, 0, EntityAddress(2, 3, 2)),
            HeapPut(3, 0, PADDR, 1, b"long string"),
        ]
        for op in ops:
            op.apply(partition)
        assert partition.read(1) == b"ALPHA"
        assert 2 not in partition
        assert partition.heap.get(1) == b"long string"


class TestSizeBytesWithoutPacking:
    """``size_bytes`` is computed from field lengths (``FIXED_BYTES`` plus
    ``len(data)``), never by packing the payload.  Every stable-byte CPU
    charge and every SLB/SLT byte counter is fed by it, so it must equal
    the encoded length exactly, for every registered record class."""

    DATA = [b"", b"x", b"tuple-data", bytes(300)]

    @staticmethod
    def samples():
        from repro.wal import records

        with_data = {
            records.TupleInsert: lambda d: (EADDR, d),
            records.TupleUpdate: lambda d: (EADDR, d),
            records.FieldPatch: lambda d: (EADDR, 8, d),
            records.HeapPut: lambda d: (PADDR, 3, d),
            records.HeapReplace: lambda d: (PADDR, 3, d),
            records.IndexNodeWrite: lambda d: (EADDR, d),
        }
        fixed = {
            records.TupleDelete: (EADDR,),
            records.HeapDelete: (PADDR, 3),
            records.IndexNodeFree: (EADDR,),
            records.CommandBarrier: (PADDR, 41),
            records.SweepMarker: (PADDR, 40),
        }
        out = [
            cls(7, 4, *fields(data))
            for cls, fields in with_data.items()
            for data in TestSizeBytesWithoutPacking.DATA
        ]
        out += [cls(7, 4, *fields) for cls, fields in fixed.items()]
        out += [
            records.TxnPrepare(7, "gtid-é", 1, 0, (0, 1, 2)),
            records.TxnDecision(7, "gtid", "commit", ()),
            records.TxnCommand(7, 9, "bump", "1", b"[1, 2]", ("a", "bé")),
        ]
        return out

    def test_every_registered_class_is_sampled(self):
        from repro.wal import records

        registered = set(records._REGISTRY.values()) | set(records._CONTROL_REGISTRY.values())
        assert {type(record) for record in self.samples()} == registered

    def test_size_bytes_equals_encoded_length(self):
        for record in self.samples():
            assert record.size_bytes == len(record.encode()), record
