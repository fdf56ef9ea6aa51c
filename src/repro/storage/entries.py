"""Keyed entry runs: the one layout a checkpoint image lists its contents in.

A partition image lists its entities, and the string heap inside it its
strings, as ``count`` entries of ``key, length, data`` in key order: a
64-bit entity offset or a 32-bit string handle, then a 32-bit length
word, then the bytes.  :func:`encode_entries` writes such a run and
:func:`decode_entries` reads it back, for both.

Decoding is restart's first phase (section 2.5: the checkpoint copy, then
the log pages), so it avoids a Python step per entry where it can.  When
every entry has the first one's width — a relation of fixed-width tuples
is the common case — the run is one fixed-width record repeated, and the
dictionary is built in C by ``struct.iter_unpack``.  Anything else takes
the entry-by-entry loop.  Both refuse an entry that runs past the blob.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.common.errors import StorageError

#: The bytes either store tallies per entry beyond its data (key and
#: length word): a partition's entities and its string heap alike.
ENTRY_CHARGE_BYTES = 8
#: An entity entry's header: the entity's offset, then its length.
ENTITY_ENTRY = struct.Struct("<QI")
#: A string entry's header: the string's handle, then its length.
STRING_ENTRY = struct.Struct("<II")
#: The length word that ends every entry header.
_LENGTH = struct.Struct("<I")


def encode_entries(entries: dict[int, bytes], header: struct.Struct) -> list[bytes]:
    """``entries`` in key order as ``header``-prefixed parts, to join."""
    parts = []
    for key in sorted(entries):
        data = entries[key]
        parts.append(header.pack(key, len(data)))
        parts.append(data)
    return parts


def decode_entries(
    blob: bytes, pos: int, count: int, header: struct.Struct
) -> tuple[dict[int, bytes], int]:
    """Read ``count`` ``header``-prefixed entries of ``blob`` from ``pos``.

    Returns ``(key -> data in blob order, the offset just past the
    last)``.  Raises :class:`StorageError` when an entry runs past the
    blob or a key repeats.
    """
    if count == 0:
        return {}, pos
    width = _fixed_width(blob, pos, count, header.size)
    if width is None:
        entries, end = _decode_each(blob, pos, count, header)
    else:
        end = pos + count * (header.size + width)
        run = _run_struct(header.format[1], width)
        entries = dict(run.iter_unpack(memoryview(blob)[pos:end]))
    if len(entries) != count:
        raise StorageError(f"{count} entries at byte {pos} repeat a key")
    return entries, end


def _fixed_width(blob: bytes, pos: int, count: int, head: int) -> int | None:
    """The data width every one of the ``count`` entries from ``pos``
    has, when they all have the first one's and fit in ``blob``; else
    ``None``.

    The length words sit one stride apart, so each of their four bytes
    is checked for all entries at once, as one strided slice.
    """
    if pos + head > len(blob):
        return None
    start = pos + head - _LENGTH.size
    word = blob[start : pos + head]
    (width,) = _LENGTH.unpack(word)
    stride = head + width
    end = pos + count * stride
    if end > len(blob):
        return None
    for byte in range(_LENGTH.size):
        if blob[start + byte : end : stride] != word[byte : byte + 1] * count:
            return None
    return width


@lru_cache(maxsize=256)
def _run_struct(key_code: str, width: int) -> struct.Struct:
    """One entry of a fixed-width run, unpacked as ``(key, data)``: the
    length word is skipped, since :func:`_fixed_width` has checked it."""
    return struct.Struct(f"<{key_code}{_LENGTH.size}x{width}s")


def _decode_each(
    blob: bytes, pos: int, count: int, header: struct.Struct
) -> tuple[dict[int, bytes], int]:
    unpack_from = header.unpack_from
    head = header.size
    entries = {}
    try:
        for _ in range(count):
            key, length = unpack_from(blob, pos)
            pos += head
            entries[key] = blob[pos : pos + length]
            pos += length
    except struct.error:
        raise StorageError(f"entry header at byte {pos} runs past {len(blob)} bytes") from None
    # ``pos`` only grows, so one entry past the end leaves it past the end
    if pos > len(blob):
        raise StorageError(f"the last of {count} entries runs past {len(blob)} bytes")
    return entries, pos
