"""A reference model of the linear hash index's write paths.

:class:`~repro.index.linear_hash.LinearHashIndex` hashes an ``int`` key
without building its encoding, resolves a statement's bucket once (the
head memo), moves a split's items as the bytes ``pack_item`` wrote and
relinks a full chain node by patching its overflow pointer.  Comparing
that index with itself proves nothing, so the property tests compare it
with this model: the same index with those paths as they were before —
FNV-1a as a loop over ``encode_key``'s bytes, a bucket number worked out
on every call, a split that decodes every item into a ``_Bucket``,
re-encodes it and re-hashes its key, and an insert that relinks and
appends by decoding the chain node into a ``_Bucket`` and encoding it.

:class:`RecordingSink` is the change sink both run under: it keeps every
store operation with its bytes, and an UNDO list whose
:meth:`~RecordingSink.rollback_to` puts before-images back the way a
transaction's inverse records do (through the partition, the same
``bytes`` objects), compensations included.
"""

from __future__ import annotations

from repro.common.errors import IndexStructureError
from repro.index.base import NULL_ADDRESS
from repro.index.keys import encode_key
from repro.index.linear_hash import (
    _FNV_OFFSET,
    _FNV_PRIME,
    LinearHashIndex,
    _AnchorForm,
    _Bucket,
    _decode_anchor,
    _decode_bucket,
    _decode_chunk,
)


def reference_hash(key) -> int:
    """FNV-1a over ``encode_key(key)``, one byte at a time."""
    value = _FNV_OFFSET
    for byte in encode_key(key):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def reference_bucket_number(anchor: _AnchorForm, key) -> int:
    h = reference_hash(key)
    number = h % (anchor.base_buckets << anchor.level)
    if number < anchor.split:
        number = h % (anchor.base_buckets << (anchor.level + 1))
    return number


class ModelHashIndex(LinearHashIndex):
    """``LinearHashIndex`` with the write paths the index replaced."""

    def _new_bucket(self) -> _Bucket:
        bucket = _Bucket(NULL_ADDRESS)
        bucket.address = self.store.allocate(bucket.encode())
        return bucket

    def _bucket_head(self, key):
        anchor = self._anchor()
        return self._head(anchor, reference_bucket_number(anchor, key))

    def insert(self, key, value) -> None:
        address = self._bucket_head(key)
        form = self._form(address)
        while len(form.keys) >= self.bucket_capacity:
            if form.overflow == NULL_ADDRESS:
                full = self._load(address)
                full.overflow = address = self._new_bucket().address
                self._save(full)
            else:
                address = form.overflow
            form = self._form(address)
        bucket = self._load(address)
        bucket.items.append((key, value))
        self._save(bucket)
        self._counted(+1)
        if len(self) / (self._anchor().bucket_count * self.bucket_capacity) > self.split_load:
            self._split_next()

    def _split_next(self) -> None:
        count = len(self)
        anchor = self._anchor()
        victim_number = anchor.split
        buddy_number = anchor.bucket_count
        items = []
        head = self._load(self._head(anchor, victim_number))
        items.extend(head.items)
        address = head.overflow
        while address != NULL_ADDRESS:
            bucket = self._load(address)
            items.extend(bucket.items)
            next_address = bucket.overflow
            self.store.free(bucket.address)
            address = next_address
        buddy = self._new_bucket()
        chunks = self._append_to_directory(anchor, buddy.address)
        level, split = anchor.level, victim_number + 1
        if split >= (anchor.base_buckets << level):
            level, split = level + 1, 0
        anchor = _AnchorForm(level, split, anchor.base_buckets, count, chunks)
        head.items = []
        head.overflow = NULL_ADDRESS
        tails = {victim_number: head, buddy_number: buddy}
        for key, value in items:
            target = reference_bucket_number(anchor, key)
            if target not in tails:
                raise IndexStructureError(f"rehash sent key to bucket {target}")
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
        self._save_anchor(anchor)


class RecordingSink:
    """A change sink that keeps every store operation, bytes included,
    and an UNDO list a statement can be rolled back to."""

    def __init__(self, segment):
        self.segment = segment
        self.events: list[tuple] = []
        self.undo: list[tuple] = []

    def lock_component(self, address):
        self.events.append(("lock", address))

    def index_node_written(self, address, before, after):
        self.events.append(("write", address, before, after))
        self.undo.append(("write", address, before))

    def index_node_freed(self, address, before):
        self.events.append(("free", address, before))
        self.undo.append(("free", address, before))

    def grow_segment(self, segment, fits):
        # a growth is a system transaction of its own: nothing to undo
        self.events.append(("grow", segment.segment_id))
        return segment.allocate_partition()

    def on_rollback(self, compensate):
        self.undo.append(("call", compensate))

    def mark(self) -> int:
        return len(self.undo)

    def rollback_to(self, mark: int) -> None:
        """Newest first, as a statement rollback runs the inverse records:
        a created component removed, an overwritten or freed one given
        back its before-image object."""
        while len(self.undo) > mark:
            kind, *rest = self.undo.pop()
            if kind == "call":
                rest[0]()
                continue
            address, before = rest
            partition = self.segment.get(address.partition)
            if kind == "free":
                partition.insert_at(address.offset, before)
            elif before is None:
                partition.delete(address.offset)
            else:
                partition.update(address.offset, before)


_DECODERS = {0x48: _decode_bucket, 0x4C: _decode_anchor, 0x44: _decode_chunk}


def stale_cache_entries(index: LinearHashIndex) -> list:
    """Every entry of the index's component cache whose form is not the
    decoding of the bytes it is kept beside."""
    return [
        (address, form)
        for address, (blob, form) in index.store._decoded.items()
        if _DECODERS[blob[0]](address, blob) != form
    ]
