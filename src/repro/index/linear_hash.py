"""Modified Linear Hashing: the MM-DBMS hash index (Lehman 86c).

Linear hashing grows one bucket at a time: a split pointer sweeps across
the table, and when the average chain load crosses a threshold the bucket
under the pointer is split between itself and a new buddy bucket at
``2^level`` positions away.  The *modified* memory-resident variant keeps
the whole directory in memory and uses small fixed-capacity bucket nodes
with overflow chaining.

Components stored in the index segment:

* the **anchor**: level, split pointer, record count and the addresses
  of the bucket directory's chunks;
* **directory chunks**: the addresses of up to ``CHUNK_CAPACITY``
  primary buckets each;
* **bucket nodes**: sorted-insertion-order item arrays with an overflow
  pointer.

Every insert/delete/split reports the exact set of rewritten components
through the node store, producing the per-component REDO records of paper
section 2.3.2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, NamedTuple

from repro.common.errors import IndexStructureError
from repro.common.types import EntityAddress
from repro.index.base import (
    ADDRESS_CODES,
    NULL_ADDRESS,
    Index,
    pack_address,
    pack_item,
    split_items,
    unpack_address,
    unpack_items,
    value_at,
    zip_items,
)
from repro.index.keys import INT_BIAS, Key, encode_key
from repro.index.node_store import NodeStore

_BUCKET_HEADER = struct.Struct("<BH")  # type, nitems
_ANCHOR_HEADER = struct.Struct("<BIIQH")  # type, level, split, count, nchunks
_CHUNK_HEADER = struct.Struct("<BH")  # type, naddresses

BUCKET_TYPE = 0x48  # 'H'
ANCHOR_TYPE = 0x4C  # 'L'
CHUNK_TYPE = 0x44  # 'D'

#: Bucket addresses per directory chunk.  The directory is stored as a
#: two-level structure (anchor -> fixed-size chunks -> buckets) so no
#: single component grows without bound as the table splits — components
#: must stay well under a partition's size.
CHUNK_CAPACITY = 64

_ADDRESS_BYTES = struct.calcsize("<" + ADDRESS_CODES)
#: Where a chain node's first item starts: after its header and overflow pointer.
_ITEMS_AT = _BUCKET_HEADER.size + _ADDRESS_BYTES

#: A chain node with no item and no overflow node.
_EMPTY_BUCKET = _BUCKET_HEADER.pack(BUCKET_TYPE, 0) + pack_address(NULL_ADDRESS)

#: A whole directory chunk: its header and ``CHUNK_CAPACITY`` addresses.
_CHUNK = struct.Struct(_CHUNK_HEADER.format + ADDRESS_CODES * CHUNK_CAPACITY)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF
#: FNV-1a's state after an int key's tag byte (0): the offset times the prime.
_FNV_INT_START = (_FNV_OFFSET * _FNV_PRIME) & _FNV_MASK


def stable_hash(key: Key) -> int:
    """FNV-1a over the encoded key: deterministic across runs, unlike
    Python's randomised ``hash``. Determinism matters because bucket
    placement is reconstructed from logged component images.

    An ``int`` in range starts from the tag byte's state and hashes the
    eight biased bytes ``encode_key`` would append, without building the
    encoding; ``bool`` and out-of-range ints take the general path, which
    refuses them."""
    if type(key) is int and -INT_BIAS <= key < INT_BIAS:
        value = _FNV_INT_START
        for byte in (key + INT_BIAS).to_bytes(8, "big"):
            value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
        return value
    value = _FNV_OFFSET
    for byte in encode_key(key):
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    return value


class _BucketForm(NamedTuple):
    """One bucket node decoded into the immutable shape the node store
    caches; ``search`` uses it as is."""

    overflow: EntityAddress
    keys: tuple[Key, ...]
    values: bytes  # packed addresses, see :func:`repro.index.base.value_at`


class _AnchorForm(NamedTuple):
    """The anchor decoded.  ``count_at_last_split`` is the item count the
    last structural change wrote, not a live one (see ``_count``)."""

    level: int
    split: int
    base_buckets: int
    count_at_last_split: int
    chunk_addresses: tuple[EntityAddress, ...]

    def bucket_number(self, key: Key) -> int:
        h = stable_hash(key)
        number = h % (self.base_buckets << self.level)
        if number < self.split:
            number = h % (self.base_buckets << (self.level + 1))
        return number

    @property
    def bucket_count(self) -> int:
        return (self.base_buckets << self.level) + self.split


def _encode_anchor(form: _AnchorForm) -> bytes:
    parts = [
        _ANCHOR_HEADER.pack(
            ANCHOR_TYPE,
            form.level,
            form.split,
            form.count_at_last_split,
            len(form.chunk_addresses),
        ),
        struct.pack("<I", form.base_buckets),
    ]
    parts.extend(pack_address(addr) for addr in form.chunk_addresses)
    return b"".join(parts)


def _decode_anchor(address: EntityAddress, blob: bytes) -> _AnchorForm:
    anchor_type, level, split, count, nchunks = _ANCHOR_HEADER.unpack_from(blob, 0)
    if anchor_type != ANCHOR_TYPE:
        raise IndexStructureError(f"entity at {address} is not a hash anchor")
    pos = _ANCHOR_HEADER.size
    (base_buckets,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    chunks = []
    for _ in range(nchunks):
        chunk_address, pos = unpack_address(blob, pos)
        chunks.append(chunk_address)
    return _AnchorForm(level, split, base_buckets, count, tuple(chunks))


def _encode_chunk(addresses: tuple[EntityAddress, ...]) -> bytes:
    """Chunks are padded to full capacity so they never grow in place
    (in-place growth would need free space the partition may not have).
    One ``pack`` writes the header and every address, padding included."""
    padding = (CHUNK_CAPACITY - len(addresses)) * (NULL_ADDRESS,)
    return _CHUNK.pack(CHUNK_TYPE, len(addresses), *chain.from_iterable(addresses + padding))


def _decode_chunk(address: EntityAddress, blob: bytes) -> tuple[EntityAddress, ...]:
    chunk_type, count = _CHUNK_HEADER.unpack_from(blob, 0)
    if chunk_type != CHUNK_TYPE:
        raise IndexStructureError(f"entity at {address} is not a directory chunk")
    pos = _CHUNK_HEADER.size
    addresses = []
    for _ in range(count):
        bucket_address, pos = unpack_address(blob, pos)
        addresses.append(bucket_address)
    return tuple(addresses)


def _bucket_header(address: EntityAddress, blob: bytes) -> tuple[int, EntityAddress, int]:
    """A chain node's ``(nitems, overflow, position of the first item)``."""
    bucket_type, nitems = _BUCKET_HEADER.unpack_from(blob, 0)
    if bucket_type != BUCKET_TYPE:
        raise IndexStructureError(
            f"entity at {address} is not a hash bucket (type {bucket_type})"
        )
    overflow, pos = unpack_address(blob, _BUCKET_HEADER.size)
    return nitems, overflow, pos


def _decode_bucket(address: EntityAddress, blob: bytes) -> _BucketForm:
    nitems, overflow, pos = _bucket_header(address, blob)
    return _BucketForm(overflow, *unpack_items(blob, pos, nitems))


@dataclass
class _Bucket:
    """Mutable working copy of one bucket node (write paths only)."""

    address: EntityAddress
    items: list[tuple[Key, EntityAddress]] = field(default_factory=list)
    overflow: EntityAddress = NULL_ADDRESS

    def encode(self) -> bytes:
        parts = [
            _BUCKET_HEADER.pack(BUCKET_TYPE, len(self.items)),
            pack_address(self.overflow),
        ]
        parts.extend(pack_item(key, value) for key, value in self.items)
        return b"".join(parts)


class LinearHashIndex(Index):
    """An unordered index over ``(key, EntityAddress)`` pairs."""

    ORDERED = False

    def __init__(
        self,
        store: NodeStore,
        anchor: EntityAddress | None = None,
        initial_buckets: int = 4,
        bucket_capacity: int = 8,
        split_load: float = 0.75,
    ):
        if initial_buckets < 1:
            raise IndexStructureError("need at least one initial bucket")
        if bucket_capacity < 1:
            raise IndexStructureError("bucket_capacity must be positive")
        self.store = store
        self.bucket_capacity = bucket_capacity
        self.split_load = split_load
        #: The live item count, the one piece of state not read from the
        #: component bytes: the anchor's count is only written at splits.
        #: ``None`` = unknown, counted on demand (see :meth:`__len__`).  A
        #: rollback takes its own changes back (:meth:`_counted`); a
        #: command replay forgets it (:meth:`forget_count`).
        self._count: int | None = 0 if anchor is None else None
        #: ``(anchor form, key, head)`` of the last bucket resolved; see
        #: :meth:`_bucket_head`.
        self._head_memo: tuple[_AnchorForm, Key, EntityAddress] | None = None
        if anchor is None:
            buckets = tuple(self._new_bucket().address for _ in range(initial_buckets))
            chunks = tuple(
                store.allocate(_encode_chunk(buckets[start : start + CHUNK_CAPACITY]))
                for start in range(0, initial_buckets, CHUNK_CAPACITY)
            )
            anchor = store.allocate(
                _encode_anchor(_AnchorForm(0, 0, initial_buckets, 0, chunks))
            )
        self.anchor = anchor

    # -- anchor and directory chunks ------------------------------------------------

    def _anchor(self) -> _AnchorForm:
        return self.store.load(self.anchor, _decode_anchor)

    def _save_anchor(self, form: _AnchorForm) -> None:
        self.store.write(self.anchor, _encode_anchor(form), form)

    def _chunk(self, address: EntityAddress) -> tuple[EntityAddress, ...]:
        return self.store.load(address, _decode_chunk)

    def _head(self, anchor: _AnchorForm, number: int) -> EntityAddress:
        """Bucket ``number``'s primary node, read from its directory chunk."""
        chunk, slot = divmod(number, CHUNK_CAPACITY)
        return self._chunk(anchor.chunk_addresses[chunk])[slot]

    def _heads(self) -> Iterator[EntityAddress]:
        """Every primary node, in bucket-number order."""
        for chunk_address in self._anchor().chunk_addresses:
            yield from self._chunk(chunk_address)

    def _append_to_directory(
        self, anchor: _AnchorForm, bucket_address: EntityAddress
    ) -> tuple[EntityAddress, ...]:
        """Give the directory bucket ``anchor.bucket_count``, rewriting only
        the tail chunk (or allocating a fresh one when the tail is full);
        returns the chunk addresses the anchor must now list."""
        chunks = anchor.chunk_addresses
        tail = self._chunk(chunks[-1])
        if (len(chunks) - 1) * CHUNK_CAPACITY + len(tail) != anchor.bucket_count:
            raise IndexStructureError("directory out of step with split pointer")
        if len(tail) == CHUNK_CAPACITY:
            # the tail chunk is full: start a new one
            return (*chunks, self.store.allocate(_encode_chunk((bucket_address,))))
        tail = (*tail, bucket_address)
        self.store.write(chunks[-1], _encode_chunk(tail), tail)
        return chunks

    # -- bucket I/O ---------------------------------------------------------------

    def _new_bucket(self) -> _Bucket:
        return _Bucket(self.store.allocate(_EMPTY_BUCKET))

    def _form(self, address: EntityAddress, keep: bool = True) -> _BucketForm:
        return self.store.load(address, _decode_bucket, keep)

    def _load(self, address: EntityAddress) -> _Bucket:
        """A private mutable copy, for the reason ``TTreeIndex._load`` gives."""
        form = self._form(address)
        return _Bucket(address, list(zip_items(form.keys, form.values)), form.overflow)

    def _save(self, bucket: _Bucket) -> None:
        self.store.write(bucket.address, bucket.encode())

    def _bucket_head(self, key: Key) -> EntityAddress:
        """The primary node of ``key``'s bucket, hashed once per statement:
        a uniqueness probe and the insert after it pass the same key object
        under the same anchor form.  The memo is reused only while both are
        the very objects it holds.  Any split, UNDO or replay writes a new
        anchor blob, and so a new form object (:meth:`NodeStore.load`); a
        chunk slot changes only with the anchor, and a head never moves
        (a split keeps the victim's, a delete never frees one)."""
        anchor = self._anchor()
        memo = self._head_memo
        if memo is not None and memo[0] is anchor and memo[1] is key:
            return memo[2]
        head = self._head(anchor, anchor.bucket_number(key))
        self._head_memo = (anchor, key, head)
        return head

    # -- public API ----------------------------------------------------------------------

    def __len__(self) -> int:
        if self._count is None:
            # From each chain node's header; no key is decoded.
            count = 0
            for address in self._heads():
                while address != NULL_ADDRESS:
                    nitems, address, _ = _bucket_header(address, self.store.read(address))
                    count += nitems
            self._count = count
        return self._count

    def forget_count(self) -> None:
        """The component bytes were replaced behind the index's back (a
        command replay): count again on the next ``len()``."""
        self._count = None

    def _counted(self, delta: int) -> None:
        """One item more or fewer; the sink's UNDO list takes it back
        with the bytes, so a rollback leaves the count exact (it may be
        counted, from the bytes, in between)."""
        self._adjust_count(delta)
        if self.store.sink is not None:
            self.store.sink.on_rollback(self._uninsert if delta > 0 else self._undelete)

    def _adjust_count(self, delta: int) -> None:
        if self._count is not None:
            self._count += delta

    # The compensations, plain methods: one kept bound on the index would
    # make a reference cycle that holds a dropped index object, and its
    # component cache, until a full garbage collection.

    def _uninsert(self) -> None:
        self._adjust_count(-1)

    def _undelete(self) -> None:
        self._adjust_count(+1)

    def search(self, key: Key) -> list[EntityAddress]:
        address = self._bucket_head(key)
        results = []
        while address != NULL_ADDRESS:
            bucket = self._form(address)
            for index, stored in enumerate(bucket.keys):  # no generator to resume
                if stored == key:
                    results.append(value_at(bucket.values, index))
            address = bucket.overflow
        return results

    def insert(self, key: Key, value: EntityAddress) -> None:
        # Append to the first chain node with room (a full chain gets a fresh
        # empty node): its old bytes with the count raised and the item packed
        # on, as ``_Bucket.encode`` would write them, and its form to match.
        address = self._bucket_head(key)
        anchor = self._head_memo[0]  # the form _bucket_head read: only a split writes one
        form = self._form(address)
        while len(form.keys) >= self.bucket_capacity:
            if form.overflow == NULL_ADDRESS:
                # relink the full node: its bytes with the overflow pointer set
                overflow = self._new_bucket().address
                blob = self.store.read(address)
                data = blob[: _BUCKET_HEADER.size] + pack_address(overflow) + blob[_ITEMS_AT:]
                self.store.write(address, data, form._replace(overflow=overflow))
                address = overflow
            else:
                address = form.overflow
            form = self._form(address)
        data = (
            _BUCKET_HEADER.pack(BUCKET_TYPE, len(form.keys) + 1)
            + self.store.read(address)[_BUCKET_HEADER.size :]
            + pack_item(key, value)
        )
        form = _BucketForm(form.overflow, (*form.keys, key), form.values + pack_address(value))
        self.store.write(address, data, form)
        self._counted(+1)
        if self._load_factor(anchor) > self.split_load:
            self._split_next()

    def delete(self, key: Key, value: EntityAddress) -> None:
        address = self._bucket_head(key)
        previous: _Bucket | None = None
        while address != NULL_ADDRESS:
            bucket = self._load(address)
            if (key, value) in bucket.items:
                bucket.items.remove((key, value))
                self._counted(-1)
                if not bucket.items and previous is not None:
                    # unlink the emptied overflow node
                    previous.overflow = bucket.overflow
                    self._save(previous)
                    self.store.free(bucket.address)
                else:
                    self._save(bucket)
                return
            previous = bucket
            address = bucket.overflow
        raise self._not_found(key, value)

    def items(self) -> Iterator[tuple[Key, EntityAddress]]:
        """Every item, materialised before it is returned, so the caller
        may change the index while iterating."""
        return iter(
            [item for _, form in self._buckets() for item in zip_items(form.keys, form.values)]
        )

    def _buckets(self) -> Iterator[tuple[int, _BucketForm]]:
        """Every chain node as ``(bucket number, form)``; a whole-index
        walk, so it reads the chain nodes without caching them."""
        for number, address in enumerate(self._heads()):
            while address != NULL_ADDRESS:
                bucket = self._form(address, False)
                yield number, bucket
                address = bucket.overflow

    # -- splitting ----------------------------------------------------------------------------

    def _load_factor(self, anchor: _AnchorForm | None = None) -> float:
        """Items per bucket slot; ``anchor`` is the current anchor's form
        when the caller holds it."""
        anchor = anchor or self._anchor()
        return len(self) / (anchor.bucket_count * self.bucket_capacity)

    def _split_next(self) -> None:
        """Split the bucket under the split pointer into itself and a new
        buddy at ``split + base * 2^level``.  The new addressing is worked
        out on a local anchor form, written once the buckets are.

        Items move as the bytes :func:`pack_item` wrote, beside their
        decoded keys, so no item is decoded or packed again; each tail is
        written with its form."""
        count = len(self)
        anchor = self._anchor()
        victim_number = anchor.split
        buddy_number = anchor.bucket_count
        # collect the whole chain of the victim, freeing overflow nodes
        head = self._head(anchor, victim_number)
        keys: list[Key] = []
        packed: list[bytes] = []
        address = head
        while address != NULL_ADDRESS:
            form = self._form(address)
            keys.extend(form.keys)
            packed.extend(split_items(self.store.read(address), _ITEMS_AT, len(form.keys)))
            if address != head:
                self.store.free(address)
            address = form.overflow
        buddy = self._new_bucket().address
        chunks = self._append_to_directory(anchor, buddy)
        level, split = anchor.level, victim_number + 1
        if split >= (anchor.base_buckets << level):
            level, split = level + 1, 0
        anchor = _AnchorForm(level, split, anchor.base_buckets, count, chunks)
        # redistribute under the *new* addressing: each target's open tail
        # node as [address, keys, packed items]
        tails = {victim_number: [head, [], []], buddy_number: [buddy, [], []]}
        for key, item in zip(keys, packed):
            target = anchor.bucket_number(key)
            tail = tails.get(target)
            if tail is None:
                raise IndexStructureError(
                    f"rehash sent key to bucket {target}, expected "
                    f"{victim_number} or {buddy_number}"
                )
            if len(tail[1]) >= self.bucket_capacity:
                overflow = self._new_bucket().address
                self._write_node(*tail, overflow)
                tail = tails[target] = [overflow, [], []]
            tail[1].append(key)
            tail[2].append(item)
        for tail in tails.values():
            self._write_node(*tail, NULL_ADDRESS)
        self._save_anchor(anchor)

    def _write_node(
        self, address: EntityAddress, keys: list[Key], packed: list[bytes], overflow: EntityAddress
    ) -> None:
        """Write one chain node from its items' packed bytes, as
        ``_Bucket.encode`` would, with its form."""
        data = b"".join(
            [_BUCKET_HEADER.pack(BUCKET_TYPE, len(packed)), pack_address(overflow), *packed]
        )
        values = b"".join([item[-_ADDRESS_BYTES:] for item in packed])
        self.store.write(address, data, _BucketForm(overflow, tuple(keys), values))

    # -- invariants ---------------------------------------------------------------------------------

    def verify_invariants(self) -> None:
        """Every item must be reachable at its own bucket number, counts
        must agree, and chains must respect capacity."""
        anchor = self._anchor()
        seen = 0
        for number, bucket in self._buckets():
            if len(bucket.keys) > self.bucket_capacity:
                raise IndexStructureError(
                    f"bucket {number} chain node exceeds capacity"
                )
            for key in bucket.keys:
                if anchor.bucket_number(key) != number:
                    raise IndexStructureError(
                        f"key {key!r} stored in bucket {number}, "
                        f"hashes to {anchor.bucket_number(key)}"
                    )
            seen += len(bucket.keys)
        if seen != len(self):
            raise IndexStructureError(
                f"anchor count {len(self)} != items present {seen}"
            )

    @property
    def bucket_count(self) -> int:
        return self._anchor().bucket_count

    @property
    def level(self) -> int:
        return self._anchor().level
