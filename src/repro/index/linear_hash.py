"""Modified Linear Hashing: the MM-DBMS hash index (Lehman 86c).

Linear hashing grows one bucket at a time: a split pointer sweeps across
the table, and when the average chain load crosses a threshold the bucket
under the pointer is split between itself and a new buddy bucket at
``2^level`` positions away.  The *modified* memory-resident variant keeps
the whole directory in memory and uses small fixed-capacity bucket nodes
with overflow chaining.

Components stored in the index segment:

* the **anchor**: level, split pointer, record count and the bucket
  directory (addresses of primary buckets);
* **bucket nodes**: sorted-insertion-order item arrays with an overflow
  pointer.

Every insert/delete/split reports the exact set of rewritten components
through the node store, producing the per-component REDO records of paper
section 2.3.2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.common.errors import IndexStructureError
from repro.common.types import EntityAddress
from repro.index.base import (
    NULL_ADDRESS,
    Index,
    pack_address,
    pack_item,
    serialised,
    serialised_scan,
    unpack_address,
    unpack_items,
    value_at,
    zip_items,
)
from repro.index.keys import Key, encode_key
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

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_hash(key: Key) -> int:
    """FNV-1a over the encoded key: deterministic across runs, unlike
    Python's randomised ``hash``. Determinism matters because bucket
    placement is reconstructed from logged component images."""
    value = _FNV_OFFSET
    for byte in encode_key(key):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


class _BucketForm(NamedTuple):
    """One bucket node decoded into the immutable shape the node store
    caches; ``search`` uses it as is."""

    overflow: EntityAddress
    keys: tuple[Key, ...]
    values: bytes  # packed addresses, see :func:`repro.index.base.value_at`


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
        super().__init__()
        self.store = store
        self.bucket_capacity = bucket_capacity
        self.split_load = split_load
        #: ``None`` = unknown, counted on demand (see :meth:`__len__`).
        self._count: int | None = 0
        if anchor is None:
            self._level = 0
            self._split = 0
            self._base_buckets = initial_buckets
            self._directory = [
                self._new_bucket().address for _ in range(initial_buckets)
            ]
            self._chunk_addresses: list[EntityAddress] = []
            for start in range(0, len(self._directory), CHUNK_CAPACITY):
                chunk = self._directory[start : start + CHUNK_CAPACITY]
                self._chunk_addresses.append(
                    self.store.allocate(self._encode_chunk(chunk))
                )
            self.anchor = store.allocate(self._encode_anchor())
        else:
            self.anchor = anchor
            self._load_anchor()

    # -- anchor and directory chunks ------------------------------------------------

    def _encode_anchor(self) -> bytes:
        parts = [
            _ANCHOR_HEADER.pack(
                ANCHOR_TYPE,
                self._level,
                self._split,
                len(self),
                len(self._chunk_addresses),
            ),
            struct.pack("<I", self._base_buckets),
        ]
        parts.extend(pack_address(addr) for addr in self._chunk_addresses)
        return b"".join(parts)

    @staticmethod
    def _encode_chunk(addresses: list[EntityAddress]) -> bytes:
        """Chunks are padded to full capacity so they never grow in place
        (in-place growth would need free space the partition may not have)."""
        parts = [_CHUNK_HEADER.pack(CHUNK_TYPE, len(addresses))]
        parts.extend(pack_address(addr) for addr in addresses)
        parts.extend(
            pack_address(NULL_ADDRESS) for _ in range(CHUNK_CAPACITY - len(addresses))
        )
        return b"".join(parts)

    @staticmethod
    def _decode_chunk(address: EntityAddress, blob: bytes) -> tuple[EntityAddress, ...]:
        chunk_type, count = _CHUNK_HEADER.unpack_from(blob, 0)
        if chunk_type != CHUNK_TYPE:
            raise IndexStructureError("directory chunk entity has wrong type")
        pos = _CHUNK_HEADER.size
        addresses = []
        for _ in range(count):
            bucket_address, pos = unpack_address(blob, pos)
            addresses.append(bucket_address)
        return tuple(addresses)

    def _load_anchor(self) -> None:
        blob = self.store.read(self.anchor)
        anchor_type, level, split, count, nchunks = _ANCHOR_HEADER.unpack_from(blob, 0)
        if anchor_type != ANCHOR_TYPE:
            raise IndexStructureError("anchor entity has wrong type")
        pos = _ANCHOR_HEADER.size
        (self._base_buckets,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        self._level = level
        self._split = split
        self._chunk_addresses = []
        for _ in range(nchunks):
            address, pos = unpack_address(blob, pos)
            self._chunk_addresses.append(address)
        self._directory = []
        for chunk_address in self._chunk_addresses:
            self._directory.extend(self.store.load(chunk_address, self._decode_chunk))
        # The anchor's count is only persisted at structural changes, so
        # it is not taken from there; the recount is left to the next
        # ``len()``: a load costs the anchor and its directory chunks.
        self._count = None

    def _save_anchor(self) -> None:
        self.store.write(self.anchor, self._encode_anchor())

    def _reload_mirror(self) -> None:
        """Re-decode the anchor after a rollback restored its bytes.

        A transaction abort applies byte-level UNDO to the anchor,
        directory chunks, and buckets; the decoded directory, split
        pointer, level, and count held here would otherwise keep the
        rolled-back structure."""
        self._load_anchor()

    def _append_to_directory(self, bucket_address: EntityAddress) -> None:
        """Grow the directory by one bucket, rewriting only the tail chunk
        (or allocating a fresh one when the tail is full)."""
        self._directory.append(bucket_address)
        tail_len = len(self._directory) % CHUNK_CAPACITY or CHUNK_CAPACITY
        tail = self._directory[-tail_len:]
        if tail_len == 1 and len(self._directory) > 1:
            # previous chunk just filled: start a new one
            self._chunk_addresses.append(
                self.store.allocate(self._encode_chunk(tail))
            )
        else:
            self.store.write(
                self._chunk_addresses[-1], self._encode_chunk(tail)
            )

    # -- bucket I/O ---------------------------------------------------------------

    def _new_bucket(self) -> _Bucket:
        bucket = _Bucket(NULL_ADDRESS)
        bucket.address = self.store.allocate(bucket.encode())
        return bucket

    def _form(self, address: EntityAddress, keep: bool = True) -> _BucketForm:
        return self.store.load(address, _decode_bucket, keep)

    def _load(self, address: EntityAddress) -> _Bucket:
        """A private mutable copy, for the reason ``TTreeIndex._load`` gives."""
        form = self._form(address)
        return _Bucket(address, list(zip_items(form.keys, form.values)), form.overflow)

    def _save(self, bucket: _Bucket) -> None:
        self.store.write(bucket.address, bucket.encode())

    # -- addressing ------------------------------------------------------------------

    def _bucket_number(self, key: Key) -> int:
        h = stable_hash(key)
        number = h % (self._base_buckets << self._level)
        if number < self._split:
            number = h % (self._base_buckets << (self._level + 1))
        return number

    # -- public API ----------------------------------------------------------------------

    @serialised
    def __len__(self) -> int:
        if self._count is None:
            # From each chain node's header; no key is decoded.
            count = 0
            for address in self._directory:
                while address != NULL_ADDRESS:
                    nitems, address, _ = _bucket_header(address, self.store.read(address))
                    count += nitems
            self._count = count
        return self._count

    def _counted(self, delta: int) -> None:
        if self._count is not None:
            self._count += delta

    @serialised
    def search(self, key: Key) -> list[EntityAddress]:
        address = self._directory[self._bucket_number(key)]
        results = []
        while address != NULL_ADDRESS:
            bucket = self._form(address)
            results.extend(
                value_at(bucket.values, index)
                for index, stored in enumerate(bucket.keys)
                if stored == key
            )
            address = bucket.overflow
        return results

    @serialised
    def insert(self, key: Key, value: EntityAddress) -> None:
        head_address = self._directory[self._bucket_number(key)]
        bucket = self._load(head_address)
        # place into the first chain node with room
        while len(bucket.items) >= self.bucket_capacity:
            if bucket.overflow == NULL_ADDRESS:
                overflow = self._new_bucket()
                bucket.overflow = overflow.address
                self._save(bucket)
                bucket = overflow
                break
            bucket = self._load(bucket.overflow)
        bucket.items.append((key, value))
        self._save(bucket)
        self._counted(+1)
        if self._load_factor() > self.split_load:
            self._split_next()

    @serialised
    def delete(self, key: Key, value: EntityAddress) -> None:
        number = self._bucket_number(key)
        address = self._directory[number]
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

    @serialised_scan
    def items(self) -> Iterator[tuple[Key, EntityAddress]]:
        for _, bucket in self._buckets():
            yield from zip_items(bucket.keys, bucket.values)

    def _buckets(self) -> Iterator[tuple[int, _BucketForm]]:
        """Every chain node as ``(bucket number, form)``; a whole-index
        walk, so it leaves the component cache as it found it."""
        for number, address in enumerate(self._directory):
            while address != NULL_ADDRESS:
                bucket = self._form(address, False)
                yield number, bucket
                address = bucket.overflow

    # -- splitting ----------------------------------------------------------------------------

    def _load_factor(self) -> float:
        return len(self) / (len(self._directory) * self.bucket_capacity)

    def _split_next(self) -> None:
        """Split the bucket under the split pointer into itself and a new
        buddy at ``split + base * 2^level``."""
        victim_number = self._split
        buddy_number = victim_number + (self._base_buckets << self._level)
        # collect the whole chain of the victim, freeing overflow nodes
        items: list[tuple[Key, EntityAddress]] = []
        head = self._load(self._directory[victim_number])
        items.extend(head.items)
        address = head.overflow
        while address != NULL_ADDRESS:
            bucket = self._load(address)
            items.extend(bucket.items)
            next_address = bucket.overflow
            self.store.free(bucket.address)
            address = next_address
        buddy = self._new_bucket()
        self._append_to_directory(buddy.address)
        if len(self._directory) != buddy_number + 1:
            raise IndexStructureError("directory out of step with split pointer")
        self._split += 1
        if self._split >= (self._base_buckets << self._level):
            self._split = 0
            self._level += 1
        # redistribute under the *new* addressing (handled by _bucket_number)
        head.items = []
        head.overflow = NULL_ADDRESS
        tails: dict[int, _Bucket] = {victim_number: head, buddy_number: buddy}
        for key, value in items:
            target = self._bucket_number(key)
            if target not in tails:
                raise IndexStructureError(
                    f"rehash sent key to bucket {target}, expected "
                    f"{victim_number} or {buddy_number}"
                )
            tail = tails[target]
            if len(tail.items) >= self.bucket_capacity:
                overflow = self._new_bucket()
                tail.overflow = overflow.address
                self._save(tail)
                tails[target] = overflow
                tail = overflow
            tail.items.append((key, value))
        for tail in tails.values():
            self._save(tail)
        self._save_anchor()

    # -- invariants ---------------------------------------------------------------------------------

    @serialised
    def verify_invariants(self) -> None:
        """Every item must be reachable at its own bucket number, counts
        must agree, and chains must respect capacity."""
        seen = 0
        for number, bucket in self._buckets():
            if len(bucket.keys) > self.bucket_capacity:
                raise IndexStructureError(
                    f"bucket {number} chain node exceeds capacity"
                )
            for key in bucket.keys:
                if self._bucket_number(key) != number:
                    raise IndexStructureError(
                        f"key {key!r} stored in bucket {number}, "
                        f"hashes to {self._bucket_number(key)}"
                    )
            seen += len(bucket.keys)
        if seen != len(self):
            raise IndexStructureError(
                f"anchor count {len(self)} != items present {seen}"
            )

    @property
    def bucket_count(self) -> int:
        return len(self._directory)

    @property
    def level(self) -> int:
        return self._level
