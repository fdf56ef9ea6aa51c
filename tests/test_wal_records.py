"""Tests for REDO record formats: the wire bytes, reading them by span,
and REDO apply."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import EntityAddress, LogError, PartitionAddress
from repro.common.errors import LogError as LogErrorAlias  # noqa: F401
from repro.storage import Partition
from repro.wal import (
    FieldPatch,
    HeapDelete,
    HeapPut,
    IndexNodeFree,
    IndexNodeWrite,
    LogPage,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
    records,
)
from repro.wal.log_disk import ARCHIVE_SEGMENT
from tests import page_of, record_bytes

PADDR = PartitionAddress(2, 3)
EADDR = EntityAddress(2, 3, 11)


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
        records.CommandBarrier(7, 4, PADDR, 41, 3),
        "0a04000000070000000000000002000000030000002900000003000000",
        "0a0400000007000000000000002900000003000000",
    ),
    "SweepMarker": (
        records.SweepMarker(7, 4, PADDR, 40),
        "0b040000000700000000000000020000000300000028000000",
        "0b04000000070000000000000028000000",
    ),
}
#: The two records stable memory keeps as objects, with the logged volume
#: each counts: a command's is the length its byte encoding had, a prepare
#: is never counted.
GOLDEN_CONTROL = {
    "TxnPrepare": (records.TxnPrepare(7, "gtid-é", 1, 0, (0, 1, 2)), None),
    "TxnCommand": (records.TxnCommand(7, 9, "bump", "1", b"[1, 2]", ("a", "bé")), 42),
    "TxnCommand-utf8": (
        records.TxnCommand(7, 9, "débit-€", "v2é", b'["x"]', ("comptes", "bé", "日本")),
        64,
    ),
}
ALL_RECORDS = [sample for sample, _, _ in GOLDEN_REDO.values()]


class TestGoldenBytes:
    def test_every_registered_class_is_pinned(self):
        assert {cls.__name__ for cls in records._REGISTRY.values()} == set(GOLDEN_REDO)
        assert {type(record) for record, _ in GOLDEN_CONTROL.values()} == {
            records.TxnPrepare,
            records.TxnCommand,
        }

    @pytest.mark.parametrize("name", GOLDEN_REDO)
    def test_redo_full_and_compact(self, name):
        record, full, compact = GOLDEN_REDO[name]
        assert record.encode().hex() == full
        assert record.encode(compact=True).hex() == compact
        full, compact = bytes.fromhex(full), bytes.fromhex(compact)
        assert records._spans(full, full=True) == [(0, len(full))]
        assert records._spans(compact) == [(0, len(compact))]
        assert records.bin_index_of(full) == record.bin_index
        assert records.compact_form(full) == compact
        assert records.full_forms(compact, PADDR) == [full]
        assert records.count_updates(compact) == (getattr(record, "changes", 1) or 1)

    @pytest.mark.parametrize("name", GOLDEN_CONTROL)
    def test_control(self, name):
        """A command counts the bytes its old wire format took (header,
        csn, UTF-8 name, version and relations, args); a prepare counts
        none, so it has no size."""
        record, size = GOLDEN_CONTROL[name]
        assert getattr(record, "size_bytes", None) == size
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.txn_id = 8


class TestLogPageRoundTrip:
    """Both page kinds carry all eleven classes through the one codec."""

    def test_dedicated_page_is_compact(self):
        page = page_of(PADDR, ALL_RECORDS, embedded_directory=[5, 9], lsn=12)
        blob = page.encode()
        assert LogPage.decode(blob) == page
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
        page = page_of(PartitionAddress(ARCHIVE_SEGMENT, 0), mixed, lsn=13)
        decoded = LogPage.decode(page.encode())
        assert decoded == page
        assert records.split_by_owner(decoded.body) == {
            PADDR: b"".join(r.encode(compact=True) for r in ALL_RECORDS),
            other: b"".join(r.encode(compact=True) for r in mixed[1::2]),
        }
        assert len(page.encode()) == 22 + sum(r.size_bytes for r in mixed)

    def test_bin_leftovers_reach_the_archive_as_bytes(self):
        """A dedicated body's records in full form are what a mixed page
        carries, and each goes back to its compact form unchanged."""
        body = page_of(PADDR, ALL_RECORDS).body
        full = records.full_forms(body, PADDR)
        assert full == [record.encode() for record in ALL_RECORDS]
        assert b"".join(map(records.compact_form, full)) == body

    def test_a_body_counts_each_barrier_as_its_changes(self):
        """One per record, a command barrier its command's changes there
        (at least one): what deposit added for the same records."""
        barriers = [records.CommandBarrier(7, 4, PADDR, 41, changes) for changes in (0, 1, 5)]
        body = page_of(PADDR, ALL_RECORDS + barriers).body
        counts = list(map(records.count_updates, record_bytes(body)))
        # the golden barrier carries 3 changes: two more than a record's one
        assert counts == [1] * 8 + [3, 1] + [1, 1, 5]


class TestWireFormat:
    @pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: type(r).__name__)
    def test_encode_decode_roundtrip(self, record):
        """Full form to compact and back, and its one span: the bytes
        are all the log path reads."""
        full = record.encode()
        assert record_bytes(full, full=True) == [full]
        assert records.full_forms(records.compact_form(full), PADDR) == [full]
        assert records.split_by_owner(full) == {PADDR: record.encode(compact=True)}

    @pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: type(r).__name__)
    def test_every_record_names_one_partition(self, record):
        assert record.partition_address == PADDR

    def test_decode_records_sequence(self):
        blob = b"".join(r.encode() for r in ALL_RECORDS)
        assert record_bytes(blob, full=True) == [r.encode() for r in ALL_RECORDS]

    def test_unknown_tag_rejected(self):
        blob = bytes([255]) + b"\x00" * 12
        with pytest.raises(LogError):
            record_bytes(blob, full=True)
        with pytest.raises(LogError):
            records.replay_records(blob, None)

    def test_truncated_header_rejected(self):
        with pytest.raises(LogError):
            record_bytes(b"\x01\x02", full=True)
        with pytest.raises(LogError):
            records.replay_records(b"\x01\x02", None)

    def test_truncated_fixed_fields_rejected(self):
        _, full, compact = GOLDEN_REDO["HeapDelete"]
        with pytest.raises(LogError):
            record_bytes(bytes.fromhex(full)[:-1], full=True)
        with pytest.raises(LogError):
            records.replay_records(bytes.fromhex(compact)[:-1], None)

    @pytest.mark.parametrize(
        "name", [n for n, (r, _, _) in GOLDEN_REDO.items() if r.LAYOUT.blob]
    )
    def test_truncated_data_rejected(self, name):
        """A length word running past the end of the buffer must not
        decode to silently short data — nor replay it."""
        record, full, compact = GOLDEN_REDO[name]
        for cut in range(1, len(record.data) + 1):
            with pytest.raises(LogError, match=f"truncated {name} record"):
                record_bytes(bytes.fromhex(full)[:-cut], full=True)
            partition = Partition(PADDR, 4096)
            with pytest.raises(LogError, match=f"truncated {name} data"):
                records.replay_records(bytes.fromhex(compact)[:-cut], partition)
            assert len(partition) == 0 and len(partition.heap) == 0

    def test_redo_and_control_tags_never_cross(self):
        # a prepare or a command is no REDO record: it has no tag, no bin
        # index and no byte form, so it can never enter the bin sort
        for record, _ in GOLDEN_CONTROL.values():
            assert not isinstance(record, records.RedoRecord)
            assert not hasattr(record, "TAG") and not hasattr(record, "encode")

    def test_size_bytes_matches_encoding(self):
        for record in ALL_RECORDS:
            assert record.size_bytes == len(record.encode())

    def test_bin_index_and_owner_are_read_off_the_header(self):
        record = TupleInsert(7, 9, EADDR, b"x").encode()
        assert records.bin_index_of(record) == 9
        records.check_owner(record, PADDR)
        with pytest.raises(LogError, match="record for S2.P3 carries bin index 9 of S2.P4"):
            records.check_owner(record, PartitionAddress(2, 4))

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
    form's size plus ``len(data)``), never from packing the record, and
    equals the encoded length exactly, for every registered record
    class."""

    DATA = [b"", b"x", b"tuple-data", bytes(300)]

    @staticmethod
    def samples():
        from repro.wal import records

        with_data = {
            records.TupleInsert: lambda d: (EADDR, d),
            records.TupleUpdate: lambda d: (EADDR, d),
            records.FieldPatch: lambda d: (EADDR, 8, d),
            records.HeapPut: lambda d: (PADDR, 3, d),
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
        return out

    def test_every_registered_class_is_sampled(self):
        from repro.wal import records

        assert {type(record) for record in self.samples()} == set(records._REGISTRY.values())

    def test_size_bytes_equals_encoded_length(self):
        for record in self.samples():
            assert record.size_bytes == len(record.encode()), record

    def test_size_bytes_equals_the_reference_formula(self):
        """The per-class constant ``_register`` compiles, plus ``len(data)``
        for blob layouts, is the formula read per call before it: the full
        struct's size plus the length of ``data`` when there is one."""
        for record in self.samples():
            if isinstance(record, records.RedoRecord):
                layout = record.LAYOUT
                codes = "iiq" if layout.address is EntityAddress else "ii"
                full = struct.calcsize("<BIQ" + codes + layout.fixed + "I" * layout.blob)
                reference = full + len(getattr(record, "data", b""))
                assert record.size_bytes == reference, record


#: A value for each ``struct`` code a layout's fixed fields use.
_CODE_VALUES = {"H": st.integers(0, 2**16 - 1), "I": st.integers(0, 2**32 - 1)}
_I32 = st.integers(-(2**31), 2**31 - 1)


@st.composite
def _record_fields(draw):
    """A registered REDO class and ``(txn_id, bin_index, address,
    *fields)`` that fit its layout."""
    cls = draw(st.sampled_from(sorted(records._REGISTRY.values(), key=lambda c: c.TAG)))
    layout = cls.LAYOUT
    if layout.address is EntityAddress:
        address = EntityAddress(draw(_I32), draw(_I32), draw(st.integers(0, 2**63 - 1)))
    else:
        address = PartitionAddress(draw(_I32), draw(_I32))
    fields = [draw(_CODE_VALUES[code]) for code in layout.fixed]
    if layout.blob:
        fields.append(draw(st.binary(max_size=300)))
    head = (draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**32 - 1)), address)
    return cls, (*head, *fields)


@settings(max_examples=300, deadline=None)
@given(_record_fields())
def test_pack_is_the_records_encoding_property(case):
    """What a change sink appends — ``cls.pack`` on the fields, no record
    built — is byte for byte the encoding of the record those fields
    make, for every registered REDO class."""
    cls, fields = case
    packed = cls.pack(*fields)
    assert packed == cls(*fields).encode()
    assert len(packed) == cls(*fields).size_bytes
    assert record_bytes(packed, full=True) == [packed]
