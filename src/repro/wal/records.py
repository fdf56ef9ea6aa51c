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
the simulated log disk are the bytes recovery decodes.  Each class states
its Operation part once, as a :class:`Layout`, and its effect once, as
``redo`` on the layout's wire-order operands; :func:`_register` compiles
the layout into the two forms a record takes on disk:

* *full* — header, address, fixed fields, ``u32`` length + ``data``;
* *compact* — the same minus the leading (segment, partition) pair.
  Section 2.3.3 point 3: "Redundant address information may be stripped
  from the log records before they are written to disk, thereby
  condensing the log."  A dedicated (single-partition) log page names its
  partition once in the page header, so its records drop those eight
  bytes and decoding takes the address from the header instead.  Mixed
  archive pages keep the full form (their records span partitions).

A dedicated page is also *applied* in compact form: :func:`replay_records`
walks its body and calls each class's ``redo`` on the unpacked operands,
building no record.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, ClassVar, NamedTuple

from repro.common.errors import LogError
from repro.common.types import EntityAddress, PartitionAddress
from repro.storage.partition import Partition

_HEADER = "<BIQ"  # tag, bin_index, txn_id
#: Both address kinds start with (segment, partition) — what a log page's
#: header carries and the compact form therefore strips.
_ADDRESS_CODES = {EntityAddress: "iiq", PartitionAddress: "ii"}

_REGISTRY: dict[int, type["RedoRecord"]] = {}
#: tag -> (operand unpacker, its size, ``redo``, ends in data?, class name):
#: the compact form again, header skipped, for :func:`replay_records`.
_REPLAY: dict[int, tuple[Callable[..., tuple], int, Callable[..., None], bool, str]] = {}


@dataclass(frozen=True)
class Layout:
    """The Operation part of one REDO record class, in wire order."""

    #: The address the record carries: :class:`EntityAddress` (segment,
    #: partition, offset) or :class:`PartitionAddress` (segment, partition).
    address: type
    #: ``struct`` codes of the fixed scalar fields after the address.
    fixed: str = ""
    #: Whether the record ends in a ``u32`` length and that many bytes of
    #: ``data`` — the one variable-length field a record may have.
    blob: bool = False


def _register(cls: type["RedoRecord"]) -> type["RedoRecord"]:
    """Compile ``cls.LAYOUT`` against the dataclass fields it describes."""
    if cls.TAG in _REGISTRY:
        raise AssertionError(f"duplicate log record tag {cls.TAG}")
    layout = cls.LAYOUT
    address, *rest = (field.name for field in dataclasses.fields(cls)[2:])
    if len(rest) != len(layout.fixed) + layout.blob or (layout.blob and rest[-1] != "data"):
        raise AssertionError(f"{cls.__name__} fields do not fit {layout}")
    codes = _ADDRESS_CODES[layout.address]
    parts = [f"{address}.{field.name}" for field in dataclasses.fields(layout.address)]
    # The compact form is the full form minus (segment, partition).
    cls._FORMS = tuple(
        (
            struct.Struct(_HEADER + codes[skip:] + layout.fixed + ("I" if layout.blob else "")),
            attrgetter("TAG", "bin_index", "txn_id", *parts[skip:], *rest),
        )
        for skip in (0, 2)
    )
    cls._OWNER = attrgetter(
        f"{address}.partition_address" if layout.address is EntityAddress else address
    )
    # ``redo``'s operands are what the compact form carries after the
    # header: the address's own part (an entity's offset; nothing for a
    # partition), the fixed fields, ``data``.
    operands = struct.Struct(
        f"<{struct.calcsize(_HEADER)}x{codes[2:]}{layout.fixed}{'I' if layout.blob else ''}"
    )
    _REPLAY[cls.TAG] = (operands.unpack_from, operands.size, cls.redo, layout.blob, cls.__name__)
    _REGISTRY[cls.TAG] = cls
    return cls


@dataclass(frozen=True, slots=True)
class RedoRecord:
    """Base class: header fields shared by every REDO record, and the one
    codec every registered subclass's :class:`Layout` drives."""

    TAG: ClassVar[int] = 0
    LAYOUT: ClassVar[Layout]
    #: Compiled by :func:`_register`, full form first, compact second:
    #: the struct covering everything but ``data``, and the getter of the
    #: values it packs (``data`` itself last, where its length goes).
    _FORMS: ClassVar[tuple[tuple[struct.Struct, Callable[[Any], tuple]], ...]]
    _OWNER: ClassVar[Callable[[Any], PartitionAddress]]

    txn_id: int
    bin_index: int

    # -- interface -------------------------------------------------------------

    @property
    def partition_address(self) -> PartitionAddress:
        return self._OWNER(self)

    def apply(self, partition: Partition) -> None:
        """Re-execute this operation against ``partition`` (REDO): the
        address check, then :meth:`redo` on the record's own operands."""
        raise NotImplementedError

    @staticmethod
    def redo(partition: Partition, *operands: Any) -> None:
        """The operation's effect on ``partition``, stated once, on the
        layout's wire-order operands after the (segment, partition) pair.
        No address check: :meth:`apply` makes it per record,
        :func:`replay_records`' caller once per page."""
        raise NotImplementedError

    # -- wire format --------------------------------------------------------------

    def encode(self, compact: bool = False) -> bytes:
        """The record's wire bytes; ``compact`` strips the partition
        address (the form records take on a dedicated log page)."""
        packed, fields = self._FORMS[compact]
        values = fields(self)
        if not self.LAYOUT.blob:
            return packed.pack(*values)
        data = values[-1]
        return packed.pack(*values[:-1], len(data)) + data

    @property
    def size_bytes(self) -> int:
        """Length of the full form, from the declared layout — no packing."""
        return self._FORMS[False][0].size + len(getattr(self, "data", b""))

    def with_bin_index(self, bin_index: int) -> "RedoRecord":
        """Copy of this record carrying a (re)assigned bin index."""
        if bin_index == self.bin_index:
            return self
        return dataclasses.replace(self, bin_index=bin_index)

    # -- shared helpers ---------------------------------------------------------------

    def _check_address(self, partition: Partition) -> None:
        if self.partition_address != partition.address:
            raise LogError(
                f"log record for {self.partition_address} applied to {partition.address}"
            )


# ------------------------------------------------------------------------------
# Relation (tuple) records
# ------------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Install(RedoRecord):
    """Upsert ``data`` at an entity address."""

    LAYOUT: ClassVar[Layout] = Layout(EntityAddress, blob=True)

    address: EntityAddress
    data: bytes

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)
        self.redo(partition, self.address.offset, self.data)

    @staticmethod
    def redo(partition: Partition, offset: int, data: bytes) -> None:
        # Upsert: after a crash the replayed log may repeat a prefix of
        # records already reflected in the recovered image (a page written
        # but not yet noted, or an image newer than part of its log).
        # Full-order replay makes the last writer win, so re-installing at
        # an occupied offset is safe; offsets are never reused.
        if offset in partition:
            partition.update(offset, data)
        else:
            partition.insert_at(offset, data)


@dataclass(frozen=True, slots=True)
class _Remove(RedoRecord):
    """Drop the entity at an address, if it is still there."""

    LAYOUT: ClassVar[Layout] = Layout(EntityAddress)

    address: EntityAddress

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)
        self.redo(partition, self.address.offset)

    @staticmethod
    def redo(partition: Partition, offset: int) -> None:
        # Tolerates an already-deleted entity (duplicate replay prefix).
        if offset in partition:
            partition.delete(offset)


@_register
@dataclass(frozen=True, slots=True)
class TupleInsert(_Install):
    """Install a new tuple at a recorded entity address."""

    TAG: ClassVar[int] = 1


@_register
@dataclass(frozen=True, slots=True)
class TupleUpdate(RedoRecord):
    """Overwrite the whole tuple at an entity address."""

    TAG: ClassVar[int] = 2
    LAYOUT: ClassVar[Layout] = Layout(EntityAddress, blob=True)

    address: EntityAddress
    data: bytes

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)
        self.redo(partition, self.address.offset, self.data)

    @staticmethod
    def redo(partition: Partition, offset: int, data: bytes) -> None:
        partition.update(offset, data)


@_register
@dataclass(frozen=True, slots=True)
class TupleDelete(_Remove):
    """Remove the tuple at an entity address."""

    TAG: ClassVar[int] = 3


@_register
@dataclass(frozen=True, slots=True)
class FieldPatch(RedoRecord):
    """Update one field: patch a byte range inside the stored tuple.

    This is the paper's "update a field" relation record; it is much
    smaller than a whole-tuple update (8-24 bytes for numeric fields).
    """

    TAG: ClassVar[int] = 4
    LAYOUT: ClassVar[Layout] = Layout(EntityAddress, "H", blob=True)

    address: EntityAddress
    start: int
    data: bytes

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)
        self.redo(partition, self.address.offset, self.start, self.data)

    @staticmethod
    def redo(partition: Partition, offset: int, start: int, data: bytes) -> None:
        current = partition.read(offset)
        end = start + len(data)
        if end > len(current):
            raise LogError(
                f"field patch [{start}:{end}] exceeds tuple of "
                f"{len(current)} bytes at {partition.address} offset {offset}"
            )
        partition.update(offset, current[:start] + data + current[end:])


# ------------------------------------------------------------------------------
# String-space (heap) operation records
# ------------------------------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class HeapPut(RedoRecord):
    """Re-execute a string-space put at its recorded handle."""

    TAG: ClassVar[int] = 5
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "I", blob=True)

    partition: PartitionAddress
    handle: int
    data: bytes

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)
        self.redo(partition, self.handle, self.data)

    @staticmethod
    def redo(partition: Partition, handle: int, data: bytes) -> None:
        # Upsert on duplicate replay prefix (see _Install.redo): a
        # later HeapReplace may already be reflected in the image, so the
        # occupied bytes can legitimately differ — last writer wins.
        if handle in partition.heap:
            partition.heap.replace(handle, data)
        else:
            partition.heap.put_at(handle, data)


@_register
@dataclass(frozen=True, slots=True)
class HeapReplace(RedoRecord):
    """Re-execute an in-place string replacement."""

    TAG: ClassVar[int] = 6
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "I", blob=True)

    partition: PartitionAddress
    handle: int
    data: bytes

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)
        self.redo(partition, self.handle, self.data)

    @staticmethod
    def redo(partition: Partition, handle: int, data: bytes) -> None:
        partition.heap.replace(handle, data)


@_register
@dataclass(frozen=True, slots=True)
class HeapDelete(RedoRecord):
    """Re-execute a string-space delete."""

    TAG: ClassVar[int] = 7
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "I")

    partition: PartitionAddress
    handle: int

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)
        self.redo(partition, self.handle)

    @staticmethod
    def redo(partition: Partition, handle: int) -> None:
        # Tolerates an already-deleted handle (duplicate replay prefix).
        if handle in partition.heap:
            partition.heap.delete(handle)


# ------------------------------------------------------------------------------
# Index-component records
# ------------------------------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class IndexNodeWrite(_Install):
    """Install the after-image of one index component (T-Tree node,
    hash bucket, or index anchor).

    A single index update may touch several components; the paper writes
    one record per updated component (section 2.3.2).  REDO is an upsert:
    the component may or may not exist in the checkpoint image.
    """

    TAG: ClassVar[int] = 8


@_register
@dataclass(frozen=True, slots=True)
class IndexNodeFree(_Remove):
    """Release an index component (node merged away or bucket freed)."""

    TAG: ClassVar[int] = 9


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


@dataclass(frozen=True, slots=True)
class _Marker(RedoRecord):
    """A position in one partition's stream; applying it changes nothing."""

    partition: PartitionAddress

    def apply(self, partition: Partition) -> None:
        self._check_address(partition)

    @staticmethod
    def redo(partition: Partition, number: int) -> None:
        # Position-only: the effects come from re-executing the command's
        # script (or from the sweep's image), never from this record.
        pass


@_register
@dataclass(frozen=True, slots=True)
class CommandBarrier(_Marker):
    """Marks the commit point of command ``csn`` in one partition's stream.

    Emitted at command commit into every partition of the transaction's
    declared relations (and their indexes).  Replay applies the value
    records before the barrier, re-executes the command's script, then
    continues — ``apply`` itself changes nothing.
    """

    TAG: ClassVar[int] = 10
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "I")

    csn: int


@_register
@dataclass(frozen=True, slots=True)
class SweepMarker(_Marker):
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
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "I")

    watermark: int


# ------------------------------------------------------------------------------
# Decoding
# ------------------------------------------------------------------------------


def decode_record(
    buf: bytes, pos: int = 0, partition: PartitionAddress | None = None
) -> tuple[RedoRecord, int]:
    """Decode one record starting at ``pos``; returns (record, next_pos).

    ``partition`` is the owner named by a dedicated page's header: given,
    the bytes are in compact form and every record gets that address.
    """
    if pos >= len(buf):
        raise LogError(f"truncated log record header at {pos}")
    cls = _REGISTRY.get(buf[pos])
    if cls is None:
        raise LogError(f"unknown log record tag {buf[pos]} at {pos}")
    packed = cls._FORMS[partition is not None][0]
    try:
        _, bin_index, txn_id, *fields = packed.unpack_from(buf, pos)
    except struct.error as exc:
        raise LogError(f"truncated {cls.__name__} record at {pos}") from exc
    pos += packed.size
    layout = cls.LAYOUT
    if layout.blob:
        end = pos + fields[-1]
        if end > len(buf):
            raise LogError(f"truncated {cls.__name__} data at {pos}")
        fields[-1] = buf[pos:end]
        pos = end
    if partition is None:
        partition = PartitionAddress(fields[0], fields[1])
        del fields[:2]
    if layout.address is EntityAddress:
        fields[0] = EntityAddress(partition.segment, partition.partition, fields[0])
    else:
        fields.insert(0, partition)
    return cls(txn_id, bin_index, *fields), pos


def decode_records(
    buf: bytes, partition: PartitionAddress | None = None
) -> list[RedoRecord]:
    """Decode a packed sequence of records (one log page's body), compact
    when ``partition`` is given (see :func:`decode_record`)."""
    records = []
    pos = 0
    while pos < len(buf):
        record, pos = decode_record(buf, pos, partition)
        records.append(record)
    return records


def replay_records(body: bytes, partition: Partition) -> int:
    """Apply a dedicated page's body — compact records, in the order
    written — to ``partition``; returns how many there were.

    What ``for r in decode_records(body, partition.address):
    r.apply(partition)`` does, with no record built: one ``unpack_from``
    per record, then the class's ``redo`` on the operands and a slice of
    ``body``.  The caller checks *once* that the page is ``partition``'s;
    the per-record address check would compare the page header with
    itself.
    """
    count = 0
    pos = 0
    size = len(body)
    while pos < size:
        entry = _REPLAY.get(body[pos])
        if entry is None:
            raise LogError(f"unknown log record tag {body[pos]} at {pos}")
        unpack_from, width, redo, blob, name = entry
        try:
            operands = unpack_from(body, pos)
        except struct.error as exc:
            raise LogError(f"truncated {name} record at {pos}") from exc
        pos += width
        if blob:
            end = pos + operands[-1]
            if end > size:
                raise LogError(f"truncated {name} data at {pos}")
            redo(partition, *operands[:-1], body[pos:end])
            pos = end
        else:
            redo(partition, *operands)
        count += 1
    return count


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
# in-doubt resolution, not by REDO replay.  Their fields vary in length,
# so each class lists one codec per field instead of compiling a struct.

_CONTROL_HEADER = struct.Struct("<BQ")  # tag, txn_id
_CONTROL_REGISTRY: dict[int, type["ControlRecord"]] = {}

#: Control tags live in their own high range so a control byte stream can
#: never be mistaken for (or decoded as) a REDO record.
PREPARE_TAG = 128
DECISION_TAG = 129
COMMAND_TAG = 130


class _Field(NamedTuple):
    """Codec of one control-record field; ``decode`` takes (buf, pos) and
    returns (value, next_pos)."""

    encode: Callable[[Any], bytes]
    decode: Callable[[bytes, int], tuple[Any, int]]


def _int_field(code: str) -> _Field:
    packed = struct.Struct("<" + code)

    def decode(buf: bytes, pos: int) -> tuple[int, int]:
        return packed.unpack_from(buf, pos)[0], pos + packed.size

    return _Field(packed.pack, decode)


_U16 = _int_field("H")
_U32 = _int_field("I")


def _bytes_field(length: _Field, text: bool = False) -> _Field:
    """``length`` then that many bytes; UTF-8 when ``text``."""

    def encode(value) -> bytes:
        raw = value.encode("utf-8") if text else value
        return length.encode(len(raw)) + raw

    def decode(buf: bytes, pos: int):
        size, pos = length.decode(buf, pos)
        raw = buf[pos : pos + size]
        return (raw.decode("utf-8") if text else raw), pos + size

    return _Field(encode, decode)


_STR = _bytes_field(_U16, text=True)
_BLOB = _bytes_field(_U32)


def _tuple_field(item: _Field) -> _Field:
    """A ``u16`` count, then that many ``item`` values."""

    def encode(values: tuple) -> bytes:
        return _U16.encode(len(values)) + b"".join(map(item.encode, values))

    def decode(buf: bytes, pos: int) -> tuple[tuple, int]:
        count, pos = _U16.decode(buf, pos)
        values = []
        for _ in range(count):
            value, pos = item.decode(buf, pos)
            values.append(value)
        return tuple(values), pos

    return _Field(encode, decode)


def _register_control(cls: type["ControlRecord"]) -> type["ControlRecord"]:
    if cls.TAG in _CONTROL_REGISTRY:
        raise AssertionError(f"duplicate control record tag {cls.TAG}")
    names = [field.name for field in dataclasses.fields(cls)[1:]]
    if len(cls.WIRE) != len(names):
        raise AssertionError(f"{cls.__name__} needs one codec per field")
    cls._ENCODERS = tuple((name, codec.encode) for name, codec in zip(names, cls.WIRE))
    _CONTROL_REGISTRY[cls.TAG] = cls
    return cls


@dataclass(frozen=True, slots=True)
class ControlRecord:
    """Base class for 2PC control records (prepare / decision)."""

    TAG: ClassVar[int] = 0
    #: One codec per field after ``txn_id``, in wire order.
    WIRE: ClassVar[tuple[_Field, ...]] = ()
    #: (field name, its codec's encoder) pairs, paired up at registration.
    _ENCODERS: ClassVar[tuple[tuple[str, Callable[[Any], bytes]], ...]]

    txn_id: int

    def encode(self) -> bytes:
        return _CONTROL_HEADER.pack(self.TAG, self.txn_id) + b"".join(
            encode(getattr(self, name)) for name, encode in self._ENCODERS
        )

    @property
    def size_bytes(self) -> int:
        return len(self.encode())


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
    WIRE: ClassVar[tuple[_Field, ...]] = (_STR, _U16, _U16, _tuple_field(_U16))

    gtid: str
    shard: int
    coordinator: int
    participants: tuple[int, ...]


@_register_control
@dataclass(frozen=True, slots=True)
class TxnDecision(ControlRecord):
    """The coordinator's logged verdict for one global transaction.

    Presumed abort: only COMMIT decisions are ever logged — an absent
    decision *is* the abort verdict — but the record format carries the
    verdict explicitly so the decision table stays self-describing.
    """

    TAG: ClassVar[int] = DECISION_TAG
    WIRE: ClassVar[tuple[_Field, ...]] = (_STR, _STR, _tuple_field(_U16))

    gtid: str
    verdict: str
    participants: tuple[int, ...]


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
    WIRE: ClassVar[tuple[_Field, ...]] = (_U32, _STR, _STR, _BLOB, _tuple_field(_STR))

    csn: int
    name: str
    version: str
    args: bytes
    relations: tuple[str, ...]


def decode_control(buf: bytes, pos: int = 0) -> tuple[ControlRecord, int]:
    """Decode one control record starting at ``pos``."""
    try:
        tag, txn_id = _CONTROL_HEADER.unpack_from(buf, pos)
    except struct.error as exc:
        raise LogError(f"truncated control record header at {pos}") from exc
    cls = _CONTROL_REGISTRY.get(tag)
    if cls is None:
        raise LogError(f"unknown control record tag {tag} at {pos}")
    pos += _CONTROL_HEADER.size
    values = []
    for codec in cls.WIRE:
        value, pos = codec.decode(buf, pos)
        values.append(value)
    return cls(txn_id, *values), pos
