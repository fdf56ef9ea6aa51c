"""Common index interface and shared serialisation helpers."""

from __future__ import annotations

import struct
from functools import partial
from typing import Iterator

from repro.common.errors import IndexStructureError
from repro.common.types import EntityAddress
from repro.index.keys import Key, decode_key, encode_key

#: Null component pointer.
NULL_ADDRESS = EntityAddress(-1, -1, -1)

#: An entity address's struct codes: (segment, partition, offset).
ADDRESS_CODES = "iiq"
_ADDRESS = struct.Struct("<" + ADDRESS_CODES)
_U16 = struct.Struct("<H")
#: An :class:`EntityAddress` of its unpacked fields, built in C, not by its Python ``__new__``.
_address = partial(tuple.__new__, EntityAddress)


def pack_address(address: EntityAddress) -> bytes:
    return _ADDRESS.pack(address.segment, address.partition, address.offset)


def unpack_address(buf: bytes, pos: int) -> tuple[EntityAddress, int]:
    return _address(_ADDRESS.unpack_from(buf, pos)), pos + _ADDRESS.size


def pack_item(key: Key, value: EntityAddress) -> bytes:
    encoded = encode_key(key)
    return _U16.pack(len(encoded)) + encoded + pack_address(value)


def unpack_items(buf: bytes, pos: int, count: int) -> tuple[tuple[Key, ...], bytes]:
    """Decode ``count`` items into ``(keys, packed value addresses)``.

    This is the compact, immutable shape decoded components are cached in
    (see :meth:`NodeStore.load`): keys are compared on every visit, value
    addresses only matter for the few items that match, so they stay
    packed until :func:`value_at` / :func:`zip_items` asks for them.
    """
    keys = []
    values = []
    for _ in range(count):
        (key_len,) = _U16.unpack_from(buf, pos)
        pos += _U16.size
        end = pos + key_len
        keys.append(decode_key(buf[pos:end]))
        pos = end + _ADDRESS.size
        values.append(buf[end:pos])
    return tuple(keys), b"".join(values)


def split_items(buf: bytes, pos: int, count: int) -> list[bytes]:
    """The ``count`` items from ``pos`` on, each as :func:`pack_item` packed it."""
    items = []
    for _ in range(count):
        end = pos + _U16.size + _U16.unpack_from(buf, pos)[0] + _ADDRESS.size
        items.append(buf[pos:end])
        pos = end
    return items


def value_at(values: bytes, index: int) -> EntityAddress:
    """The ``index``-th address of a packed value array."""
    return _address(_ADDRESS.unpack_from(values, index * _ADDRESS.size))


def zip_items(keys: tuple[Key, ...], values: bytes) -> Iterator[tuple[Key, EntityAddress]]:
    """``(key, address)`` pairs of a decoded component, in stored order."""
    return zip(keys, map(_address, _ADDRESS.iter_unpack(values)))


class Index:
    """Interface shared by the T-Tree and the linear hash index.

    Values are entity addresses (of relation tuples).  Duplicate keys are
    permitted; ``(key, value)`` pairs are unique.
    """

    #: Set by subclasses: True when the index supports range scans.
    ORDERED: bool = False

    def insert(self, key: Key, value: EntityAddress) -> None:
        raise NotImplementedError

    def delete(self, key: Key, value: EntityAddress) -> None:
        raise NotImplementedError

    def search(self, key: Key) -> list[EntityAddress]:
        raise NotImplementedError

    def items(self) -> Iterator[tuple[Key, EntityAddress]]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def verify_invariants(self) -> None:
        """Raise :class:`IndexStructureError` on any structural violation."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    @staticmethod
    def _not_found(key: Key, value: EntityAddress) -> IndexStructureError:
        return IndexStructureError(f"({key!r}, {value}) not present in index")
