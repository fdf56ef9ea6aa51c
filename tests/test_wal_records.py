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
    LogPage,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
    decode_record,
    decode_records,
    records,
)
from repro.wal.log_disk import ARCHIVE_SEGMENT

PADDR = PartitionAddress(2, 3)
EADDR = EntityAddress(2, 3, 11)


def roundtrip(record):
    decoded, consumed = decode_record(record.encode())
    assert consumed == record.size_bytes
    return decoded


#: The wire bytes of every registered class as the hand-written codecs
#: of the commit before the layout table produced them: class name ->
#: (record, full form, compact form).  Digests, byte counters and page
#: counts all hang off these, so a layout change must show up here first.
GOLDEN_REDO = {
    "TupleInsert": (
        records.TupleInsert(7, 4, EADDR, b"tuple-data"),
        "0104000000070000000000000002000000030000000b00000000000000"
        "0a0000007475706c652d64617461",
        "010400000007000000000000000b000000000000000a0000007475706c652d64617461",
    ),
    "TupleUpdate": (
        records.TupleUpdate(7, 4, EADDR, b"new-bytes"),
        "0204000000070000000000000002000000030000000b00000000000000"
        "090000006e65772d6279746573",
        "020400000007000000000000000b00000000000000090000006e65772d6279746573",
    ),
    "TupleDelete": (
        records.TupleDelete(7, 4, EADDR),
        "0304000000070000000000000002000000030000000b00000000000000",
        "030400000007000000000000000b00000000000000",
    ),
    "FieldPatch": (
        records.FieldPatch(7, 4, EADDR, 8, b"\x01\x02\x03\x04"),
        "0404000000070000000000000002000000030000000b00000000000000"
        "08000400000001020304",
        "040400000007000000000000000b0000000000000008000400000001020304",
    ),
    "HeapPut": (
        records.HeapPut(7, 4, PADDR, 3, b"string-value"),
        "05040000000700000000000000020000000300000003000000"
        "0c000000737472696e672d76616c7565",
        "05040000000700000000000000030000000c000000737472696e672d76616c7565",
    ),
    "HeapReplace": (
        records.HeapReplace(7, 4, PADDR, 3, b"replacement"),
        "06040000000700000000000000020000000300000003000000"
        "0b0000007265706c6163656d656e74",
        "06040000000700000000000000030000000b0000007265706c6163656d656e74",
    ),
    "HeapDelete": (
        records.HeapDelete(7, 4, PADDR, 3),
        "07040000000700000000000000020000000300000003000000",
        "0704000000070000000000000003000000",
    ),
    "IndexNodeWrite": (
        records.IndexNodeWrite(7, 4, EADDR, b"node-image"),
        "0804000000070000000000000002000000030000000b00000000000000"
        "0a0000006e6f64652d696d616765",
        "080400000007000000000000000b000000000000000a0000006e6f64652d696d616765",
    ),
    "IndexNodeFree": (
        records.IndexNodeFree(7, 4, EADDR),
        "0904000000070000000000000002000000030000000b00000000000000",
        "090400000007000000000000000b00000000000000",
    ),
    "CommandBarrier": (
        records.CommandBarrier(7, 4, PADDR, 41),
        "0a040000000700000000000000020000000300000029000000",
        "0a04000000070000000000000029000000",
    ),
    "SweepMarker": (
        records.SweepMarker(7, 4, PADDR, 40),
        "0b040000000700000000000000020000000300000028000000",
        "0b04000000070000000000000028000000",
    ),
}
GOLDEN_CONTROL = {
    "TxnPrepare": (
        records.TxnPrepare(7, "gtid-é", 1, 0, (0, 1, 2)),
        "8007000000000000000700677469642dc3a9010000000300000001000200",
    ),
    "TxnDecision": (
        records.TxnDecision(7, "gtid", "commit", ()),
        "8107000000000000000400677469640600636f6d6d69740000",
    ),
    "TxnCommand": (
        records.TxnCommand(7, 9, "bump", "1", b"[1, 2]", ("a", "bé")),
        "82070000000000000009000000040062756d70010031060000005b312c20325d"
        "0200010061030062c3a9",
    ),
}
ALL_RECORDS = [sample for sample, _, _ in GOLDEN_REDO.values()]


class TestGoldenBytes:
    def test_every_registered_class_is_pinned(self):
        assert {cls.__name__ for cls in records._REGISTRY.values()} == set(GOLDEN_REDO)
        assert {cls.__name__ for cls in records._CONTROL_REGISTRY.values()} == set(
            GOLDEN_CONTROL
        )

    @pytest.mark.parametrize("name", GOLDEN_REDO)
    def test_redo_full_and_compact(self, name):
        record, full, compact = GOLDEN_REDO[name]
        assert record.encode().hex() == full
        assert record.encode(compact=True).hex() == compact
        assert decode_record(bytes.fromhex(full)) == (record, len(full) // 2)
        assert decode_record(bytes.fromhex(compact), 0, PADDR) == (record, len(compact) // 2)

    @pytest.mark.parametrize("name", GOLDEN_CONTROL)
    def test_control(self, name):
        record, full = GOLDEN_CONTROL[name]
        assert record.encode().hex() == full
        assert records.decode_control(bytes.fromhex(full)) == (record, len(full) // 2)


class TestLogPageRoundTrip:
    """Both page kinds carry all eleven classes through the one codec."""

    def test_dedicated_page_is_compact(self):
        page = LogPage(PADDR, ALL_RECORDS, embedded_directory=[5, 9], lsn=12)
        blob = page.encode()
        assert LogPage.decode(blob) == page
        assert LogPage.decode(blob).records == ALL_RECORDS
        body = "".join(compact for _, _, compact in GOLDEN_REDO.values())
        assert blob.hex().endswith(body)
        assert len(blob) == 22 + 2 * 8 + len(body) // 2

    def test_mixed_archive_page_keeps_every_address(self):
        other = PartitionAddress(5, 0)
        moved = [
            records.TupleUpdate(8, 1, EntityAddress(5, 0, 2), b"elsewhere"),
            records.HeapDelete(8, 1, other, 6),
            records.SweepMarker(8, 1, other, 3),
        ]
        mixed = [record for pair in zip(ALL_RECORDS, moved * 4) for record in pair]
        page = LogPage(PartitionAddress(ARCHIVE_SEGMENT, 0), mixed, lsn=13)
        decoded = LogPage.decode(page.encode())
        assert decoded == page
        assert {r.partition_address for r in decoded.records} == {PADDR, other}
        assert len(page.encode()) == 22 + sum(r.size_bytes for r in mixed)


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
        with pytest.raises(LogError):
            decode_record(b"")
        with pytest.raises(LogError):
            records.decode_control(b"\x80\x02")

    def test_truncated_fixed_fields_rejected(self):
        _, full, compact = GOLDEN_REDO["HeapDelete"]
        with pytest.raises(LogError):
            decode_record(bytes.fromhex(full)[:-1])
        with pytest.raises(LogError):
            decode_record(bytes.fromhex(compact)[:-1], 0, PADDR)

    @pytest.mark.parametrize(
        "name", [n for n, (r, _, _) in GOLDEN_REDO.items() if r.LAYOUT.blob]
    )
    def test_truncated_data_rejected(self, name):
        """A length word running past the end of the buffer must not
        decode to silently short data — nor replay it."""
        record, full, compact = GOLDEN_REDO[name]
        for cut in range(1, len(record.data) + 1):
            with pytest.raises(LogError, match=f"truncated {name} data"):
                decode_record(bytes.fromhex(full)[:-cut])
            with pytest.raises(LogError, match=f"truncated {name} data"):
                decode_record(bytes.fromhex(compact)[:-cut], 0, PADDR)
            partition = Partition(PADDR, 4096)
            with pytest.raises(LogError, match=f"truncated {name} data"):
                records.replay_records(bytes.fromhex(compact)[:-cut], partition)
            assert len(partition) == 0 and len(partition.heap) == 0

    def test_redo_and_control_tags_never_cross(self):
        # control records must never enter the bin sort, and a REDO byte
        # stream must never be read as a verdict
        for _, full in GOLDEN_CONTROL.values():
            with pytest.raises(LogError, match="unknown log record tag"):
                decode_record(bytes.fromhex(full))
        for _, full, _ in GOLDEN_REDO.values():
            with pytest.raises(LogError, match="unknown control record tag"):
                records.decode_control(bytes.fromhex(full))
        with pytest.raises(LogError, match="unknown control record tag"):
            records.decode_control(bytes([255]) + b"\x00" * 12)

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
    """``size_bytes`` comes from the declared layout (the compiled full
    form's size plus ``len(data)``), never from packing the record.  Every
    stable-byte CPU charge and every SLB/SLT byte counter is fed by it,
    so it must equal the encoded length exactly, for every registered
    record class."""

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
