"""Common index interface and shared serialisation helpers."""

from __future__ import annotations

import functools
import struct
from typing import Any, Callable, Iterator, TypeVar

from repro.common.errors import IndexStructureError
from repro.common.types import EntityAddress
from repro.index.keys import Key, decode_key, encode_key

#: Null component pointer.
NULL_ADDRESS = EntityAddress(-1, -1, -1)

_ADDRESS = struct.Struct("<iiq")
_U16 = struct.Struct("<H")


def pack_address(address: EntityAddress) -> bytes:
    return _ADDRESS.pack(address.segment, address.partition, address.offset)


def unpack_address(buf: bytes, pos: int) -> tuple[EntityAddress, int]:
    segment, partition, offset = _ADDRESS.unpack_from(buf, pos)
    return EntityAddress(segment, partition, offset), pos + _ADDRESS.size


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
    return EntityAddress(*_ADDRESS.unpack_from(values, index * _ADDRESS.size))


def zip_items(keys: tuple[Key, ...], values: bytes) -> Iterator[tuple[Key, EntityAddress]]:
    """``(key, address)`` pairs of a decoded component, in stored order."""
    return zip(keys, (EntityAddress(*fields) for fields in _ADDRESS.iter_unpack(values)))


_F = TypeVar("_F", bound=Callable[..., Any])


def refreshed(method: _F) -> _F:
    """Run an index operation on a current anchor mirror: one a rollback
    flagged stale (:meth:`Index.mark_mirror_stale`) is re-decoded first."""

    @functools.wraps(method)
    def wrapper(self: "Index", *args: Any, **kwargs: Any) -> Any:
        self._refresh_mirror_if_stale()
        return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


def refreshed_scan(method: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
    """Like :func:`refreshed` for generator methods: the scan is
    materialised before it is returned, so iteration never interleaves
    with a structural change the consumer makes."""

    @functools.wraps(method)
    def wrapper(self: "Index", *args: Any, **kwargs: Any) -> Iterator[Any]:
        self._refresh_mirror_if_stale()
        return iter(list(method(self, *args, **kwargs)))

    return wrapper


class Index:
    """Interface shared by the T-Tree and the linear hash index.

    Values are entity addresses (of relation tuples).  Duplicate keys are
    permitted; ``(key, value)`` pairs are unique.
    """

    #: Set by subclasses: True when the index supports range scans.
    ORDERED: bool = False

    def __init__(self) -> None:
        #: See :meth:`mark_mirror_stale`.
        self._mirror_stale = False

    # -- mirror staleness ---------------------------------------------------------

    def mark_mirror_stale(self) -> None:
        """A rollback restored this index's component bytes: the decoded
        anchor state held on the object (bucket directory, split pointer,
        root address, item count) no longer matches them.

        The reload happens *lazily* at the start of the next operation
        (:func:`refreshed`), so a rollback that touches an index several
        times decodes its anchor once.
        """
        self._mirror_stale = True

    def _refresh_mirror_if_stale(self) -> None:
        """Called by :func:`refreshed` before every operation."""
        if self._mirror_stale:
            self._mirror_stale = False
            self._reload_mirror()

    def _reload_mirror(self) -> None:
        """Re-decode anchor state from component bytes (subclass hook)."""
        raise NotImplementedError

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
