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

A record is never an object in the running system: ``Transaction._redo``
packs a change's fields straight to bytes with the class's compiled
struct (``_WIRE``), into the SLB, and from there to the disk it is bytes;
a rollback packs each inverse's fields the same way (``cls.pack``) and
applies them (:func:`apply_fields`).  Record objects serve tests.  Each
class states its Operation part once, as a :class:`Layout`,
and names its effect once, as ``EFFECT`` — one of the storage layer's
primitive effects (:data:`~repro.storage.partition.EFFECTS`: ``upsert``,
``overwrite``, ``remove``, ``patch``, ``none``) on the store its address
keys — the entity area by offset, the string heap by handle;
:func:`_register` compiles the layout into the packer of the full form
and the operand reader of the compact one.  The two forms:

* *full* — header, address, fixed fields, ``u32`` length + ``data``: the
  SLB's form, and a mixed archive page's (its records span partitions);
* *compact* — the same minus the leading (segment, partition) pair.
  Section 2.3.3 point 3: "Redundant address information may be stripped
  from the log records before they are written to disk, thereby
  condensing the log."  The sorting step strips it on the way into the
  bin; a dedicated page names its partition once, in its header.

:func:`replay_records` applies a compact body through the one applier,
:meth:`Partition.apply_records <repro.storage.partition.Partition.apply_records>`,
and halts at a marker when asked — every restart path walks a
partition's log this one way, and a rollback's inverse
(:func:`apply_fields`, which :meth:`RedoRecord.apply` also calls) runs
its compact bytes through the same loop, so each effect is stated once.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, ClassVar

from repro.common.errors import LogError
from repro.common.types import EntityAddress, PartitionAddress
from repro.storage.partition import EFFECTS, ENTITY_STORE, HEAP_STORE, NO_HALT, Partition

_HEADER = "<BIQ"  # tag, bin_index, txn_id
#: Both address kinds start with (segment, partition) — what a log page's
#: header carries and the compact form therefore strips — and each keys
#: one store: an entity's offset the entity area, a partition-addressed
#: record's first field the heap.
_ADDRESS_CODES = {EntityAddress: ("iiq", ENTITY_STORE), PartitionAddress: ("ii", HEAP_STORE)}

_REGISTRY: dict[int, type["RedoRecord"]] = {}
#: tag -> (operand unpacker, its size, effect, ends in data?, class name,
#: store): the compact form again, header skipped — the table
#: :meth:`Partition.apply_records` dispatches on.
_REPLAY: dict[int, tuple[Callable[..., tuple], int, str, bool, str, int]] = {}


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
    if EFFECTS.get(cls.EFFECT) is not layout.blob:
        raise AssertionError(f"{cls.__name__}'s effect {cls.EFFECT!r} does not fit {layout}")
    codes, store = _ADDRESS_CODES[layout.address]
    if store == HEAP_STORE and cls.EFFECT in ("overwrite", "patch"):  # entity effects
        raise AssertionError(f"{cls.__name__}'s effect {cls.EFFECT!r} needs an entity address")
    head = struct.Struct(_HEADER + codes + layout.fixed + ("I" if layout.blob else ""))
    cls._WIRE = (cls.TAG, head.pack, layout.blob)
    cls._FIELDS = attrgetter("txn_id", "bin_index", address, *rest)
    cls._SIZE = head.size
    if not layout.blob:  # fixed length: a class constant, not a property
        setattr(cls, "size_bytes", cls._SIZE)
    cls._OWNER = attrgetter(
        f"{address}.partition_address" if layout.address is EntityAddress else address
    )
    # The effect's operands are what the compact form carries after the
    # header: the address's own part (an entity's offset; nothing for a
    # partition), the fixed fields, ``data``'s length.  The first is the
    # key the effect (or a halting cursor) reads, in ``store``.
    operand_codes = f"{codes[2:]}{layout.fixed}{'I' if layout.blob else ''}"
    if not operand_codes:
        raise AssertionError(f"{cls.__name__} carries no operand")
    operands = struct.Struct(f"<{struct.calcsize(_HEADER)}x{operand_codes}")
    _REPLAY[cls.TAG] = (
        operands.unpack_from, operands.size, cls.EFFECT, layout.blob, cls.__name__, store
    )
    _REGISTRY[cls.TAG] = cls
    return cls


@dataclass(frozen=True, slots=True)
class RedoRecord:
    """Base class: header fields shared by every REDO record, and the one
    codec every registered subclass's :class:`Layout` drives."""

    TAG: ClassVar[int] = 0
    LAYOUT: ClassVar[Layout]
    #: What applying the record does: a key of
    #: :data:`~repro.storage.partition.EFFECTS`.
    EFFECT: ClassVar[str]
    #: Compiled by :func:`_register`: ``(TAG, the full form's struct pack,
    #: ends in data?)``, what :meth:`pack` runs (``_redo`` runs it inline).
    _WIRE: ClassVar[tuple[int, Callable[..., bytes], bool]]
    _FIELDS: ClassVar[Callable[[Any], tuple]]  # the fields, in ``pack``'s order
    _SIZE: ClassVar[int]  # the full form's struct size: all of it but ``data``
    _OWNER: ClassVar[Callable[[Any], PartitionAddress]]

    txn_id: int
    bin_index: int

    # -- interface -------------------------------------------------------------

    @classmethod
    def pack(cls, txn_id: int, bin_index: int, address: tuple, *fields: Any) -> bytes:
        """The full form of the record the dataclass's fields make, in order,
        with no record built: ``data``, if any, after its ``u32`` length."""
        tag, pack, blob = cls._WIRE
        if blob:
            *fixed, data = fields
            return pack(tag, bin_index, txn_id, *address, *fixed, len(data)) + data
        return pack(tag, bin_index, txn_id, *address, *fields)

    @property
    def partition_address(self) -> PartitionAddress:
        return self._OWNER(self)

    def apply(self, partition: Partition) -> None:
        """Re-execute this operation against ``partition``: the address
        check, then :func:`apply_fields` on its own fields."""
        if self.partition_address != partition.address:
            raise LogError(
                f"log record for {self.partition_address} applied to {partition.address}"
            )
        apply_fields(partition, type(self), *self._FIELDS(self)[2:])

    # -- wire format --------------------------------------------------------------

    def encode(self, compact: bool = False) -> bytes:
        """The record's wire bytes, by its class's :meth:`pack`;
        ``compact`` strips the partition address (the form records take
        on a dedicated log page)."""
        record = self.pack(*self._FIELDS(self))
        return compact_form(record) if compact else record

    @property
    def size_bytes(self) -> int:
        """Length of the full form, from the declared layout — no packing:
        the struct's size plus ``data``.  A class without ``data`` has a
        constant length instead (:func:`_register`)."""
        return self._SIZE + len(self.data)  # type: ignore[attr-defined]


# ------------------------------------------------------------------------------
# Relation (tuple) records
# ------------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Install(RedoRecord):
    """Upsert ``data`` at an entity address.

    After a crash the replayed log may repeat a prefix of records already
    reflected in the recovered image (a page written but not yet noted,
    or an image newer than part of its log).  Full-order replay makes the
    last writer win, so re-installing at an occupied offset is safe;
    offsets are never reused."""

    LAYOUT: ClassVar[Layout] = Layout(EntityAddress, blob=True)
    EFFECT: ClassVar[str] = "upsert"

    address: EntityAddress
    data: bytes


@dataclass(frozen=True, slots=True)
class _Remove(RedoRecord):
    """Drop the entity at an address, if it is still there (a duplicate
    replay prefix may have dropped it already)."""

    LAYOUT: ClassVar[Layout] = Layout(EntityAddress)
    EFFECT: ClassVar[str] = "remove"

    address: EntityAddress


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
    EFFECT: ClassVar[str] = "overwrite"

    address: EntityAddress
    data: bytes


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
    EFFECT: ClassVar[str] = "patch"

    address: EntityAddress
    start: int
    data: bytes


# ------------------------------------------------------------------------------
# String-space (heap) operation records
# ------------------------------------------------------------------------------


@_register
@dataclass(frozen=True, slots=True)
class HeapPut(RedoRecord):
    """Re-execute a string-space put at its recorded handle.

    An upsert on a duplicate replay prefix (see :class:`_Install`): the
    handle may already be in the image — last writer wins, uncapped.  Tag 6, an
    in-place replacement no path wrote, is retired, not reused."""

    TAG: ClassVar[int] = 5
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "I", blob=True)
    EFFECT: ClassVar[str] = "upsert"

    partition: PartitionAddress
    handle: int
    data: bytes


@_register
@dataclass(frozen=True, slots=True)
class HeapDelete(RedoRecord):
    """Re-execute a string-space delete; tolerates an already-deleted
    handle (duplicate replay prefix)."""

    TAG: ClassVar[int] = 7
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "I")
    EFFECT: ClassVar[str] = "remove"

    partition: PartitionAddress
    handle: int


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
# with one TxnCommand in the stable command log, but the *ordering* of
# that command against the surrounding value-REDO stream must survive the
# bin sort.  Barrier records solve this: they are ordinary REDO records
# — they carry a bin index, ride the transaction's SLB chain, and drain
# through the normal bins in commit order — whose ``apply`` is a no-op.
# Their only job is to mark, inside every involved partition's record
# stream, the exact point at which the command (or a settlement sweep's
# checkpoint image) took effect, so the replay planner can interleave
# re-execution with value REDO at the right LSN.


@dataclass(frozen=True, slots=True)
class _Marker(RedoRecord):
    """A position in one partition's stream; applying it changes nothing.
    The effects come from re-executing the command's script (or from the
    sweep's image), never from this record."""

    EFFECT: ClassVar[str] = "none"

    partition: PartitionAddress


@_register
@dataclass(frozen=True, slots=True)
class CommandBarrier(_Marker):
    """Marks the commit point of command ``csn`` in one partition's stream.

    Emitted at command commit into every partition of the transaction's
    declared relations (and their indexes).  Replay applies the value
    records before the barrier, re-executes the command's script, then
    continues — ``apply`` itself changes nothing.

    ``changes`` is how many changes the command made in this partition —
    the records its value-logged twin would have deposited here — and is
    what the barrier adds to the partition's update count, so the
    update-count trigger bounds command-logged work too (a partition the
    command did not touch still counts one).  ``csn`` stays the first
    operand: the replay cursor halts on it.
    """

    TAG: ClassVar[int] = 10
    LAYOUT: ClassVar[Layout] = Layout(PartitionAddress, "II")

    csn: int
    changes: int = 0


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
# Records as bytes: the sorting step, page replay, the archive split
# ------------------------------------------------------------------------------

_HEADER_SIZE = struct.calcsize(_HEADER)
_PAIR = struct.Struct("<ii")  # (segment, partition): what the compact form strips
BIN_INDEX = struct.Struct("<xI")  # the header's Bin Index, after the tag
#: A full-form record's ``[OWNER_START:OWNER_END]``: its (segment,
#: partition) pair, which the compact form strips.
OWNER_START = _HEADER_SIZE
OWNER_END = _HEADER_SIZE + _PAIR.size
#: The tags whose record adds one change to its partition's update count:
#: every registered class but :class:`CommandBarrier` (:func:`count_updates`).
ONE_CHANGE_TAGS = frozenset(_REGISTRY) - {CommandBarrier.TAG}
_TXN_ID = struct.Struct("<5xQ")  # the header's transaction id, after the Bin Index


def bin_index_of(record: bytes) -> int:
    """The Bin Index a record's header carries: its bin, found with no
    search (section 2.3.2)."""
    return BIN_INDEX.unpack_from(record)[0]


def owner_pair(partition: PartitionAddress) -> bytes:
    """The (segment, partition) pair a full-form record of ``partition``
    carries at ``[OWNER_START:OWNER_END]``."""
    return _PAIR.pack(partition.segment, partition.partition)


def check_owner(record: bytes, partition: PartitionAddress) -> None:
    """Refuse a full-form record whose (segment, partition) pair names
    another partition than ``partition``: eight bytes compared."""
    pair = record[OWNER_START:OWNER_END]
    if pair != owner_pair(partition):
        raise LogError(
            f"record for {PartitionAddress(*_PAIR.unpack(pair))} carries bin "
            f"index {bin_index_of(record)} of {partition}"
        )


def replay_records(
    body: bytes,
    partition: Partition | None,
    pos: int = 0,
    until: tuple[int, int] | None = None,
) -> tuple[int, int | None]:
    """Apply a dedicated page's body — compact records, in the order
    written — to ``partition``, from byte offset ``pos`` on.

    What each record's :meth:`RedoRecord.apply` does, with no record
    built: :meth:`Partition.apply_records` on this module's per-tag table,
    one ``unpack_from`` per record and no call.  The caller checks *once*
    that the page is ``partition``'s.  ``partition=None`` applies nothing
    and only walks.

    It is a cursor: ``until=(tag, value)`` halts it at the first marker
    of that tag (:class:`CommandBarrier` or :class:`SweepMarker`)
    carrying ``value`` or more — just past it when it carries exactly
    ``value``, in front of it when more.  Returns ``(records applied,
    halt)``: ``halt`` is the offset to resume from, ``None`` when the
    walk ran off the end.  The halting marker is not counted.
    """
    if partition is not None:
        return partition.apply_records(body, _REPLAY, pos, until or NO_HALT)
    halt_tag, halt_value = until or NO_HALT
    count = 0
    size = len(body)
    while pos < size:
        tag = body[pos]
        entry = _REPLAY.get(tag)
        if entry is None:
            raise LogError(f"unknown log record tag {tag} at {pos}")
        unpack_from, width, _, blob, name, _ = entry
        try:
            operands = unpack_from(body, pos)
        except struct.error as exc:
            raise LogError(f"truncated {name} record at {pos}") from exc
        if tag == halt_tag and operands[0] >= halt_value:
            return count, pos if operands[0] > halt_value else pos + width
        pos += width
        if blob:
            end = pos + operands[-1]
            if end > size:
                raise LogError(f"truncated {name} data at {pos}")
            pos = end
        count += 1
    return count, None


def apply_fields(partition: Partition, cls: type[RedoRecord], address: tuple, *fields: Any) -> None:
    """Apply the record ``cls`` makes of ``address`` and ``fields``
    (``pack``'s arguments past the header, which the applier skips) to
    ``partition``, compact, through replay's applier, with no record
    built; ``data`` goes in as that very object, the before-image whose
    identity :meth:`NodeStore.load <repro.index.node_store.NodeStore.load>` checks."""
    own = fields[-1] if cls.LAYOUT.blob else None
    partition.apply_records(compact_form(cls.pack(0, 0, address, *fields)), _REPLAY, own=own)


def _spans(body: bytes, full: bool = False) -> list[tuple[int, int]]:
    """``(start, end)`` of each record of ``body``, in order: compact
    records (a dedicated page's body), or full-form ones when ``full`` —
    the same walk, shifted by the (segment, partition) pair.  Nothing is
    built or applied, and only a record ending in ``data`` is unpacked
    (for its length)."""
    shift = _PAIR.size if full else 0
    spans = []
    pos = 0
    size = len(body)
    while pos < size:
        entry = _REPLAY.get(body[pos])
        if entry is None:
            raise LogError(f"unknown log record tag {body[pos]} at {pos}")
        unpack_from, width, _, blob, name, _ = entry
        end = pos + shift + width
        if blob and end <= size:
            end += unpack_from(body, pos + shift)[-1]
        if end > size:
            raise LogError(f"truncated {name} record at {pos}")
        spans.append((pos, end))
        pos = end
    return spans


def txn_ids(body: bytes) -> list[int]:
    """The transaction id each compact record of ``body`` carries, in order."""
    return [_TXN_ID.unpack_from(body, start)[0] for start, _ in _spans(body)]


def count_updates(record: bytes) -> int:
    """What one compact record adds to its partition's update count
    (section 2.4's checkpoint trigger): one change, and a
    :class:`CommandBarrier` the changes its command made there, at least
    one.  A tag no record class registered is refused."""
    tag = record[0]
    if tag == CommandBarrier.TAG:
        return _REPLAY[tag][0](record)[1] or 1  # (csn, changes)
    if tag not in _REPLAY:
        raise LogError(f"unknown log record tag {tag}")
    return 1


def full_forms(body: bytes, partition: PartitionAddress) -> list[bytes]:
    """Each compact record of ``partition``'s dedicated page body in full
    form — the (segment, partition) pair put back after the header — as
    a mixed archive page carries it."""
    pair = _PAIR.pack(partition.segment, partition.partition)
    header = _HEADER_SIZE
    return [
        body[start : start + header] + pair + body[start + header : end]
        for start, end in _spans(body)
    ]


def compact_form(record: bytes) -> bytes:
    """One full-form record's compact form (:func:`full_forms` undone)."""
    return record[:OWNER_START] + record[OWNER_END:]


def split_by_owner(body: bytes) -> dict[PartitionAddress, bytes]:
    """A mixed archive page's body as each partition's compact body, the
    records in page order: :func:`full_forms` undone for many partitions."""
    bodies: dict[bytes, bytearray] = {}
    for start, end in _spans(body, full=True):
        pair = body[start + _HEADER_SIZE : start + _HEADER_SIZE + _PAIR.size]
        bodies.setdefault(pair, bytearray()).extend(compact_form(body[start:end]))
    return {
        PartitionAddress(*_PAIR.unpack(pair)): bytes(compact)
        for pair, compact in bodies.items()
    }


# ------------------------------------------------------------------------------
# Stable-memory records: a 2PC prepare, a logged command
# ------------------------------------------------------------------------------
#
# Neither is a RedoRecord: they name no entity and no partition, so they
# never enter the bin-sort pipeline and are never bytes.  Stable memory
# holds live structures (repro.sim.stable_memory), so the SLB keeps each
# object as it is — a PREPARE beside its prepared chain, a command in the
# stable command log — and restart's in-doubt resolution and command
# replay read them back as they were stored.


@dataclass(frozen=True, slots=True)
class TxnPrepare:
    """A participant's promise: the branch's REDO chain is stable and its
    locks are held until the coordinator's verdict arrives.

    Carries everything restart needs to resolve the branch without the
    coordinator process: the global transaction id, this branch's shard,
    the coordinator shard (whose stable decision table holds the
    verdict), and the full participant set.
    """

    txn_id: int
    gtid: str
    shard: int
    coordinator: int
    participants: tuple[int, ...]


def _text_size(text: str) -> int:
    """A ``u16`` length and ``text`` in UTF-8."""
    return 2 + len(text.encode("utf-8"))


@dataclass(frozen=True, slots=True)
class TxnCommand:
    """A command-logged transaction: re-execute the script, don't patch bytes.

    Carries everything replay needs — the registered script's name and
    version (schema-drift fence), its JSON-encoded arguments, and the
    declared relation list the replay planner partitions batches by.
    ``csn`` is the command sequence number the SLB assigned at commit;
    the matching :class:`CommandBarrier` records carry the same number.
    It lives in the SLB's stable command log until a settlement sweep's
    checkpoint images cover its effects.
    """

    txn_id: int
    csn: int
    name: str
    version: str
    args: bytes
    relations: tuple[str, ...]

    @property
    def size_bytes(self) -> int:
        """The command's logged volume, as a byte format would spell it: a
        9-byte header (tag, txn id), ``u32`` csn, name and version as
        ``u16``-length UTF-8, ``u32``-length args, and a ``u16`` count of
        ``u16``-length UTF-8 relation names."""
        return (
            9 + 4 + _text_size(self.name) + _text_size(self.version)
            + 4 + len(self.args)
            + 2 + sum(map(_text_size, self.relations))
        )
