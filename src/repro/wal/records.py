"""REDO log record formats.

Section 2.3.2: every log record has four parts — TAG (record type), Bin
Index (direct index into the partition bin table), Transaction Id, and the
Operation.  A record corresponds to exactly one entity in exactly one
partition and is referenced by memory address (Segment Number, Partition
Number, Partition Offset).

Two flavours exist, mirroring the paper:

* *Value/physical* records install bytes at an entity address — tuple
  inserts/updates/deletes and index-component images (one record per
  updated index component).
* *Operation* records re-execute an operation against the partition's
  string-space heap, which is managed as a heap and not two-phase locked,
  so REDO must replay the operation rather than patch bytes.  Heap handle
  allocation is deterministic, which :class:`HeapPut` verifies at replay.

Records serialise to a compact binary wire format so the bytes that reach
the simulated log disk are the bytes recovery decodes.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from typing import ClassVar

from repro.common.errors import LogError
from repro.common.types import EntityAddress, PartitionAddress
from repro.storage.partition import Partition

_HEADER = struct.Struct("<BIQ")  # tag, bin_index, txn_id
_ENTITY = struct.Struct("<iiq")  # segment, partition, offset
_PARTITION = struct.Struct("<ii")  # segment, partition
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

_REGISTRY: dict[int, type["RedoRecord"]] = {}


def _register(cls: type["RedoRecord"]) -> type["RedoRecord"]:
    if cls.TAG in _REGISTRY:
        raise AssertionError(f"duplicate log record tag {cls.TAG}")
    _REGISTRY[cls.TAG] = cls
    return cls


@dataclass(frozen=True, slots=True)
class RedoRecord:
    """Base class: header fields shared by every REDO record."""

    TAG: ClassVar[int] = 0
    #: Payload bytes besides ``data``, the one variable-length field a
    #: record may have; lets :attr:`size_bytes` skip packing the payload.
    FIXED_BYTES: ClassVar[int] = 0

    txn_id: int
    bin_index: int

    # -- interface -------------------------------------------------------------

    @property
    def partition_address(self) -> PartitionAddress:
        raise NotImplementedError

    def apply(self, partition: Partition) -> None:
        """Re-execute this operation against ``partition`` (REDO)."""
        raise NotImplementedError

    def _payload(self) -> bytes:
        raise NotImplementedError

    # -- wire format --------------------------------------------------------------

    def encode(self) -> bytes:
        return _HEADER.pack(self.TAG, self.bin_index, self.txn_id) + self._payload()

    @property
    def size_bytes(self) -> int:
        return _HEADER.size + self.FIXED_BYTES + len(getattr(self, "data", b""))

    def with_bin_index(self, bin_index: int) -> "RedoRecord":
        """Copy of this record carrying a (re)assigned bin index."""
        if bin_index == self.bin_index:
            return self
        values = {
            field.name: getattr(self, field.name) for field in dataclasses.fields(self)
        }
        values["bin_index"] = bin_index
        return type(self)(**values)

    # -- shared helpers ---------------------------------------------------------------

    @staticmethod
    def _check_address(record_addr: PartitionAddress, partition: Partition) -> None:
        if record_addr != partition.address:
            raise LogError(
                f"log record for {record_addr} applied to {partition.address}"
            )


def _encode_entity(address: EntityAddress) -> bytes:
    return _ENTITY.pack(address.segment, address.partition, address.offset)


def _decode_entity(buf: bytes, pos: int) -> tuple[EntityAddress, int]:
    segment, partition, offset = _ENTITY.unpack_from(buf, pos)
    return EntityAddress(segment, partition, offset), pos + _ENTITY.size


def _encode_blob(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _decode_blob(buf: bytes, pos: int) -> tuple[bytes, int]:
    (length,) = _U32.unpack_from(buf, pos)
    pos += _U32.size
    return buf[pos : pos + length], pos + length


# ------------------------------------------------------------------------------
# Relation (tuple) records
# ------------------------------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class TupleInsert(RedoRecord):
    """Install a new tuple at a recorded entity address."""

    TAG: ClassVar[int] = 1
    FIXED_BYTES: ClassVar[int] = _ENTITY.size + _U32.size

    address: EntityAddress
    data: bytes

    @property
    def partition_address(self) -> PartitionAddress:
        return self.address.partition_address

    def apply(self, partition: Partition) -> None:
        # Upsert: after a crash the replayed log may repeat a prefix of
        # records already reflected in the recovered image (a page written
        # but not yet noted, or an image newer than part of its log).
        # Full-order replay makes the last writer win, so re-installing at
        # an occupied offset is safe; offsets are never reused.
        self._check_address(self.partition_address, partition)
        if self.address.offset in partition:
            partition.update(self.address.offset, self.data)
        else:
            partition.insert_at(self.address.offset, self.data)

    def _payload(self) -> bytes:
        return _encode_entity(self.address) + _encode_blob(self.data)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        address, pos = _decode_entity(buf, pos)
        data, pos = _decode_blob(buf, pos)
        return cls(txn_id, bin_index, address, data), pos


@_register
@dataclass(frozen=True, slots=True)
class TupleUpdate(RedoRecord):
    """Overwrite the whole tuple at an entity address."""

    TAG: ClassVar[int] = 2
    FIXED_BYTES: ClassVar[int] = _ENTITY.size + _U32.size

    address: EntityAddress
    data: bytes

    @property
    def partition_address(self) -> PartitionAddress:
        return self.address.partition_address

    def apply(self, partition: Partition) -> None:
        self._check_address(self.partition_address, partition)
        partition.update(self.address.offset, self.data)

    def _payload(self) -> bytes:
        return _encode_entity(self.address) + _encode_blob(self.data)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        address, pos = _decode_entity(buf, pos)
        data, pos = _decode_blob(buf, pos)
        return cls(txn_id, bin_index, address, data), pos


@_register
@dataclass(frozen=True, slots=True)
class TupleDelete(RedoRecord):
    """Remove the tuple at an entity address."""

    TAG: ClassVar[int] = 3
    FIXED_BYTES: ClassVar[int] = _ENTITY.size

    address: EntityAddress

    @property
    def partition_address(self) -> PartitionAddress:
        return self.address.partition_address

    def apply(self, partition: Partition) -> None:
        # Tolerates an already-deleted tuple (duplicate replay prefix).
        self._check_address(self.partition_address, partition)
        if self.address.offset in partition:
            partition.delete(self.address.offset)

    def _payload(self) -> bytes:
        return _encode_entity(self.address)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        address, pos = _decode_entity(buf, pos)
        return cls(txn_id, bin_index, address), pos


@_register
@dataclass(frozen=True, slots=True)
class FieldPatch(RedoRecord):
    """Update one field: patch a byte range inside the stored tuple.

    This is the paper's "update a field" relation record; it is much
    smaller than a whole-tuple update (8-24 bytes for numeric fields).
    """

    TAG: ClassVar[int] = 4
    FIXED_BYTES: ClassVar[int] = _ENTITY.size + _U16.size + _U32.size

    address: EntityAddress
    start: int
    data: bytes

    @property
    def partition_address(self) -> PartitionAddress:
        return self.address.partition_address

    def apply(self, partition: Partition) -> None:
        self._check_address(self.partition_address, partition)
        current = partition.read(self.address.offset)
        end = self.start + len(self.data)
        if end > len(current):
            raise LogError(
                f"field patch [{self.start}:{end}] exceeds tuple of "
                f"{len(current)} bytes at {self.address}"
            )
        patched = current[: self.start] + self.data + current[end:]
        partition.update(self.address.offset, patched)

    def _payload(self) -> bytes:
        return (
            _encode_entity(self.address)
            + _U16.pack(self.start)
            + _encode_blob(self.data)
        )

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        address, pos = _decode_entity(buf, pos)
        (start,) = _U16.unpack_from(buf, pos)
        pos += _U16.size
        data, pos = _decode_blob(buf, pos)
        return cls(txn_id, bin_index, address, start, data), pos


# ------------------------------------------------------------------------------
# String-space (heap) operation records
# ------------------------------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class HeapPut(RedoRecord):
    """Re-execute a string-space put at its recorded handle."""

    TAG: ClassVar[int] = 5
    FIXED_BYTES: ClassVar[int] = _PARTITION.size + _U32.size + _U32.size

    partition: PartitionAddress
    handle: int
    data: bytes

    @property
    def partition_address(self) -> PartitionAddress:
        return self.partition

    def apply(self, partition: Partition) -> None:
        # Upsert on duplicate replay prefix (see TupleInsert.apply): a
        # later HeapReplace may already be reflected in the image, so the
        # occupied bytes can legitimately differ — last writer wins.
        self._check_address(self.partition, partition)
        if self.handle in partition.heap:
            partition.heap.replace(self.handle, self.data)
        else:
            partition.heap.put_at(self.handle, self.data)

    def _payload(self) -> bytes:
        return (
            _PARTITION.pack(self.partition.segment, self.partition.partition)
            + _U32.pack(self.handle)
            + _encode_blob(self.data)
        )

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        segment, part_no = _PARTITION.unpack_from(buf, pos)
        pos += _PARTITION.size
        (handle,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        data, pos = _decode_blob(buf, pos)
        return cls(txn_id, bin_index, PartitionAddress(segment, part_no), handle, data), pos


@_register
@dataclass(frozen=True, slots=True)
class HeapReplace(RedoRecord):
    """Re-execute an in-place string replacement."""

    TAG: ClassVar[int] = 6
    FIXED_BYTES: ClassVar[int] = _PARTITION.size + _U32.size + _U32.size

    partition: PartitionAddress
    handle: int
    data: bytes

    @property
    def partition_address(self) -> PartitionAddress:
        return self.partition

    def apply(self, partition: Partition) -> None:
        self._check_address(self.partition, partition)
        partition.heap.replace(self.handle, self.data)

    def _payload(self) -> bytes:
        return (
            _PARTITION.pack(self.partition.segment, self.partition.partition)
            + _U32.pack(self.handle)
            + _encode_blob(self.data)
        )

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        segment, part_no = _PARTITION.unpack_from(buf, pos)
        pos += _PARTITION.size
        (handle,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        data, pos = _decode_blob(buf, pos)
        return cls(txn_id, bin_index, PartitionAddress(segment, part_no), handle, data), pos


@_register
@dataclass(frozen=True, slots=True)
class HeapDelete(RedoRecord):
    """Re-execute a string-space delete."""

    TAG: ClassVar[int] = 7
    FIXED_BYTES: ClassVar[int] = _PARTITION.size + _U32.size

    partition: PartitionAddress
    handle: int

    @property
    def partition_address(self) -> PartitionAddress:
        return self.partition

    def apply(self, partition: Partition) -> None:
        # Tolerates an already-deleted handle (duplicate replay prefix).
        self._check_address(self.partition, partition)
        if self.handle in partition.heap:
            partition.heap.delete(self.handle)

    def _payload(self) -> bytes:
        return _PARTITION.pack(
            self.partition.segment, self.partition.partition
        ) + _U32.pack(self.handle)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        segment, part_no = _PARTITION.unpack_from(buf, pos)
        pos += _PARTITION.size
        (handle,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        return cls(txn_id, bin_index, PartitionAddress(segment, part_no), handle), pos


# ------------------------------------------------------------------------------
# Index-component records
# ------------------------------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class IndexNodeWrite(RedoRecord):
    """Install the after-image of one index component (T-Tree node,
    hash bucket, or index anchor).

    A single index update may touch several components; the paper writes
    one record per updated component (section 2.3.2).  REDO is an upsert:
    the component may or may not exist in the checkpoint image.
    """

    TAG: ClassVar[int] = 8
    FIXED_BYTES: ClassVar[int] = _ENTITY.size + _U32.size

    address: EntityAddress
    data: bytes

    @property
    def partition_address(self) -> PartitionAddress:
        return self.address.partition_address

    def apply(self, partition: Partition) -> None:
        self._check_address(self.partition_address, partition)
        if self.address.offset in partition:
            partition.update(self.address.offset, self.data)
        else:
            partition.insert_at(self.address.offset, self.data)

    def _payload(self) -> bytes:
        return _encode_entity(self.address) + _encode_blob(self.data)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        address, pos = _decode_entity(buf, pos)
        data, pos = _decode_blob(buf, pos)
        return cls(txn_id, bin_index, address, data), pos


@_register
@dataclass(frozen=True, slots=True)
class IndexNodeFree(RedoRecord):
    """Release an index component (node merged away or bucket freed)."""

    TAG: ClassVar[int] = 9
    FIXED_BYTES: ClassVar[int] = _ENTITY.size

    address: EntityAddress

    @property
    def partition_address(self) -> PartitionAddress:
        return self.address.partition_address

    def apply(self, partition: Partition) -> None:
        self._check_address(self.partition_address, partition)
        if self.address.offset in partition:
            partition.delete(self.address.offset)

    def _payload(self) -> bytes:
        return _encode_entity(self.address)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        address, pos = _decode_entity(buf, pos)
        return cls(txn_id, bin_index, address), pos


# ------------------------------------------------------------------------------
# Command-logging barrier records
# ------------------------------------------------------------------------------
#
# Command logging (docs/LOGGING.md) replaces a transaction's after-images
# with one TxnCommand control record, but the *ordering* of that command
# against the surrounding value-REDO stream must survive the bin sort.
# Barrier records solve this: they are ordinary REDO records — they carry
# a bin index, ride the transaction's SLB chain, and drain through the
# normal bins in commit order — whose ``apply`` is a no-op.  Their only
# job is to mark, inside every involved partition's record stream, the
# exact point at which the command (or a settlement sweep's checkpoint
# image) took effect, so the replay planner can interleave re-execution
# with value REDO at the right LSN.


@_register
@dataclass(frozen=True, slots=True)
class CommandBarrier(RedoRecord):
    """Marks the commit point of command ``csn`` in one partition's stream.

    Emitted at command commit into every partition of the transaction's
    declared relations (and their indexes).  Replay applies the value
    records before the barrier, re-executes the command's script, then
    continues — ``apply`` itself changes nothing.
    """

    TAG: ClassVar[int] = 10
    FIXED_BYTES: ClassVar[int] = _PARTITION.size + _U32.size

    partition: PartitionAddress
    csn: int

    @property
    def partition_address(self) -> PartitionAddress:
        return self.partition

    def apply(self, partition: Partition) -> None:
        # Position-only marker: the command's effects come from
        # re-executing its script, never from this record.
        self._check_address(self.partition, partition)

    def _payload(self) -> bytes:
        return _PARTITION.pack(
            self.partition.segment, self.partition.partition
        ) + _U32.pack(self.csn)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        segment, part_no = _PARTITION.unpack_from(buf, pos)
        pos += _PARTITION.size
        (csn,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        return cls(txn_id, bin_index, PartitionAddress(segment, part_no), csn), pos


@_register
@dataclass(frozen=True, slots=True)
class SweepMarker(RedoRecord):
    """Marks a settlement sweep's image point in one partition's stream.

    A group settlement checkpoint (the command-mode form of the paper's
    action-consistent checkpoint) copies every partition of a declared
    closure while holding their relation locks, then appends one marker
    per copied partition to its own chain *before* releasing the locks
    and committing.  Records ahead of the marker in a partition's stream
    are therefore exactly the records reflected in the installed image —
    replay cuts the stream there instead of re-applying a stale prefix
    over state that command re-execution already produced.
    """

    TAG: ClassVar[int] = 11
    FIXED_BYTES: ClassVar[int] = _PARTITION.size + _U32.size

    partition: PartitionAddress
    watermark: int

    @property
    def partition_address(self) -> PartitionAddress:
        return self.partition

    def apply(self, partition: Partition) -> None:
        # Position-only marker, exactly like CommandBarrier.
        self._check_address(self.partition, partition)

    def _payload(self) -> bytes:
        return _PARTITION.pack(
            self.partition.segment, self.partition.partition
        ) + _U32.pack(self.watermark)

    @classmethod
    def _decode(cls, txn_id: int, bin_index: int, buf: bytes, pos: int):
        segment, part_no = _PARTITION.unpack_from(buf, pos)
        pos += _PARTITION.size
        (watermark,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        return cls(
            txn_id, bin_index, PartitionAddress(segment, part_no), watermark
        ), pos


# ------------------------------------------------------------------------------
# Decoding
# ------------------------------------------------------------------------------


def decode_record(buf: bytes, pos: int = 0) -> tuple[RedoRecord, int]:
    """Decode one record starting at ``pos``; returns (record, next_pos)."""
    try:
        tag, bin_index, txn_id = _HEADER.unpack_from(buf, pos)
    except struct.error as exc:
        raise LogError(f"truncated log record header at {pos}") from exc
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise LogError(f"unknown log record tag {tag} at {pos}")
    return cls._decode(txn_id, bin_index, buf, pos + _HEADER.size)  # type: ignore[attr-defined]


def decode_records(buf: bytes) -> list[RedoRecord]:
    """Decode a packed sequence of records (one log page's payload)."""
    records = []
    pos = 0
    while pos < len(buf):
        record, pos = decode_record(buf, pos)
        records.append(record)
    return records


# ------------------------------------------------------------------------------
# Two-phase-commit control records
# ------------------------------------------------------------------------------
#
# Cross-shard transactions (repro.shard) force a PREPARE record into the
# participant's Stable Log Buffer and a decision entry into the
# coordinator's well-known area.  Control records are deliberately *not*
# RedoRecord subclasses: they name no entity and no partition, so they
# must never enter the bin-sort pipeline — they live beside a prepared
# chain (or in the decision table) and are consumed by restart's
# in-doubt resolution, not by REDO replay.

_CONTROL_HEADER = struct.Struct("<BQ")  # tag, txn_id
_CONTROL_REGISTRY: dict[int, type["ControlRecord"]] = {}

#: Control tags live in their own high range so a control byte stream can
#: never be mistaken for (or decoded as) a REDO record.
PREPARE_TAG = 128
DECISION_TAG = 129
COMMAND_TAG = 130


def _register_control(cls: type["ControlRecord"]) -> type["ControlRecord"]:
    if cls.TAG in _CONTROL_REGISTRY:
        raise AssertionError(f"duplicate control record tag {cls.TAG}")
    _CONTROL_REGISTRY[cls.TAG] = cls
    return cls


def _encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _decode_str(buf: bytes, pos: int) -> tuple[str, int]:
    (length,) = _U16.unpack_from(buf, pos)
    pos += _U16.size
    return buf[pos : pos + length].decode("utf-8"), pos + length


@dataclass(frozen=True, slots=True)
class ControlRecord:
    """Base class for 2PC control records (prepare / decision)."""

    TAG: ClassVar[int] = 0

    txn_id: int

    def _payload(self) -> bytes:
        raise NotImplementedError

    def encode(self) -> bytes:
        return _CONTROL_HEADER.pack(self.TAG, self.txn_id) + self._payload()

    @property
    def size_bytes(self) -> int:
        return _CONTROL_HEADER.size + len(self._payload())


@_register_control
@dataclass(frozen=True, slots=True)
class TxnPrepare(ControlRecord):
    """A participant's promise: the branch's REDO chain is stable and its
    locks are held until the coordinator's verdict arrives.

    Carries everything restart needs to resolve the branch without the
    coordinator process: the global transaction id, this branch's shard,
    the coordinator shard (whose stable decision table holds the
    verdict), and the full participant set.
    """

    TAG: ClassVar[int] = PREPARE_TAG

    gtid: str
    shard: int
    coordinator: int
    participants: tuple[int, ...]

    def _payload(self) -> bytes:
        body = _encode_str(self.gtid)
        body += _U16.pack(self.shard) + _U16.pack(self.coordinator)
        body += _U16.pack(len(self.participants))
        for sid in self.participants:
            body += _U16.pack(sid)
        return body

    @classmethod
    def _decode(cls, txn_id: int, buf: bytes, pos: int):
        gtid, pos = _decode_str(buf, pos)
        (shard,) = _U16.unpack_from(buf, pos)
        pos += _U16.size
        (coordinator,) = _U16.unpack_from(buf, pos)
        pos += _U16.size
        (count,) = _U16.unpack_from(buf, pos)
        pos += _U16.size
        participants = []
        for _ in range(count):
            (sid,) = _U16.unpack_from(buf, pos)
            pos += _U16.size
            participants.append(sid)
        return cls(txn_id, gtid, shard, coordinator, tuple(participants)), pos


@_register_control
@dataclass(frozen=True, slots=True)
class TxnDecision(ControlRecord):
    """The coordinator's logged verdict for one global transaction.

    Presumed abort: only COMMIT decisions are ever logged — an absent
    decision *is* the abort verdict — but the record format carries the
    verdict explicitly so the decision table stays self-describing.
    """

    TAG: ClassVar[int] = DECISION_TAG

    gtid: str
    verdict: str
    participants: tuple[int, ...]

    def _payload(self) -> bytes:
        body = _encode_str(self.gtid) + _encode_str(self.verdict)
        body += _U16.pack(len(self.participants))
        for sid in self.participants:
            body += _U16.pack(sid)
        return body

    @classmethod
    def _decode(cls, txn_id: int, buf: bytes, pos: int):
        gtid, pos = _decode_str(buf, pos)
        verdict, pos = _decode_str(buf, pos)
        (count,) = _U16.unpack_from(buf, pos)
        pos += _U16.size
        participants = []
        for _ in range(count):
            (sid,) = _U16.unpack_from(buf, pos)
            pos += _U16.size
            participants.append(sid)
        return cls(txn_id, gtid, verdict, tuple(participants)), pos


@_register_control
@dataclass(frozen=True, slots=True)
class TxnCommand(ControlRecord):
    """A command-logged transaction: re-execute the script, don't patch bytes.

    Carries everything replay needs — the registered script's name and
    version (schema-drift fence), its JSON-encoded arguments, and the
    declared relation list the replay planner partitions batches by.
    ``csn`` is the command sequence number the SLB assigned at commit;
    the matching :class:`CommandBarrier` records carry the same number.

    Control record, so it never enters the bin-sort pipeline: it lives in
    the SLB's stable command log until a settlement sweep's checkpoint
    images cover its effects.
    """

    TAG: ClassVar[int] = COMMAND_TAG

    csn: int
    name: str
    version: str
    args: bytes
    relations: tuple[str, ...]

    def _payload(self) -> bytes:
        body = _U32.pack(self.csn)
        body += _encode_str(self.name) + _encode_str(self.version)
        body += _encode_blob(self.args)
        body += _U16.pack(len(self.relations))
        for relation in self.relations:
            body += _encode_str(relation)
        return body

    @classmethod
    def _decode(cls, txn_id: int, buf: bytes, pos: int):
        (csn,) = _U32.unpack_from(buf, pos)
        pos += _U32.size
        name, pos = _decode_str(buf, pos)
        version, pos = _decode_str(buf, pos)
        args, pos = _decode_blob(buf, pos)
        (count,) = _U16.unpack_from(buf, pos)
        pos += _U16.size
        relations = []
        for _ in range(count):
            relation, pos = _decode_str(buf, pos)
            relations.append(relation)
        return cls(txn_id, csn, name, version, args, tuple(relations)), pos


def decode_control(buf: bytes, pos: int = 0) -> tuple[ControlRecord, int]:
    """Decode one control record starting at ``pos``."""
    try:
        tag, txn_id = _CONTROL_HEADER.unpack_from(buf, pos)
    except struct.error as exc:
        raise LogError(f"truncated control record header at {pos}") from exc
    cls = _CONTROL_REGISTRY.get(tag)
    if cls is None:
        raise LogError(f"unknown control record tag {tag} at {pos}")
    return cls._decode(txn_id, buf, pos + _CONTROL_HEADER.size)  # type: ignore[attr-defined]


# ------------------------------------------------------------------------------
# Compact (condensed) encoding — section 2.3.3 point 3
# ------------------------------------------------------------------------------
#
# "Redundant address information may be stripped from the log records
# before they are written to disk, thereby condensing the log."  Every
# record's payload begins with the owning partition's (segment, partition)
# pair — exactly what the log page's header already carries — so records
# on a dedicated (single-partition) page drop those eight bytes and
# recovery splices them back in from the header.  Mixed archive pages keep
# the full format (their records span partitions).

_ADDRESS_PREFIX = struct.Struct("<ii")
_STRIP_BYTES = _ADDRESS_PREFIX.size


def encode_record_compact(record: RedoRecord) -> bytes:
    """Full wire format minus the leading partition address of the payload."""
    full = record.encode()
    return full[: _HEADER.size] + full[_HEADER.size + _STRIP_BYTES :]


def decode_records_compact(buf: bytes, partition) -> list[RedoRecord]:
    """Decode a compact sequence, re-inserting ``partition``'s address."""
    prefix = _ADDRESS_PREFIX.pack(partition.segment, partition.partition)
    records = []
    pos = 0
    while pos < len(buf):
        # rebuild enough full-format bytes to decode one record
        chunk = buf[pos : pos + _HEADER.size] + prefix + buf[pos + _HEADER.size :]
        record, consumed = decode_record(chunk, 0)
        records.append(record)
        pos += consumed - _STRIP_BYTES
    return records
