"""Index key encoding.

Keys are Python ``int``, ``str`` or ``bytes`` values.  They are stored
inside serialised index components with a one-byte type tag; a single
index holds keys of a single type (mixing types raises
:class:`IndexStructureError` at the comparison site, where it is cheap to
detect).

Integer keys are encoded two's-complement big-endian with the sign bit
inverted, so ``sorted(encoded) == encode(sorted(decoded))`` — handy for
tests and for any future byte-wise comparisons — though the indexes
compare *decoded* keys.
"""

from __future__ import annotations

import struct

from repro.common.errors import IndexStructureError

_TAG_INT = 0
_TAG_BYTES = 1
_TAG_STR = 2

Key = int | str | bytes

INT_BIAS = 1 << 63


def encode_key(key: Key) -> bytes:
    """Serialise one key with its type tag."""
    if isinstance(key, bool):  # bool is an int subclass; reject explicitly
        raise IndexStructureError("bool is not a valid index key")
    if isinstance(key, int):
        if not -INT_BIAS <= key < INT_BIAS:
            raise IndexStructureError(f"integer key {key} out of 64-bit range")
        return bytes([_TAG_INT]) + struct.pack(">Q", key + INT_BIAS)
    if isinstance(key, bytes):
        return bytes([_TAG_BYTES]) + key
    if isinstance(key, str):
        return bytes([_TAG_STR]) + key.encode("utf-8")
    raise IndexStructureError(f"unsupported key type {type(key).__name__}")


def decode_key(blob: bytes) -> Key:
    """Reverse :func:`encode_key`."""
    if not blob:
        raise IndexStructureError("empty key encoding")
    tag, payload = blob[0], blob[1:]
    if tag == _TAG_INT:
        (biased,) = struct.unpack(">Q", payload)
        return biased - INT_BIAS
    if tag == _TAG_BYTES:
        return payload
    if tag == _TAG_STR:
        return payload.decode("utf-8")
    raise IndexStructureError(f"unknown key tag {tag}")


def compare_keys(a: Key, b: Key) -> int:
    """Three-way comparison; rejects mixed-type keys."""
    if type(a) is not type(b):
        raise IndexStructureError(
            f"cannot compare {type(a).__name__} key with {type(b).__name__} key"
        )
    if a < b:  # type: ignore[operator]
        return -1
    if a > b:  # type: ignore[operator]
        return 1
    return 0
