"""Common index interface and shared serialisation helpers."""

from __future__ import annotations

import functools
import struct
import threading
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


def value_at(values: bytes, index: int) -> EntityAddress:
    """The ``index``-th address of a packed value array."""
    return EntityAddress(*_ADDRESS.unpack_from(values, index * _ADDRESS.size))


def zip_items(keys: tuple[Key, ...], values: bytes) -> Iterator[tuple[Key, EntityAddress]]:
    """``(key, address)`` pairs of a decoded component, in stored order."""
    return zip(keys, (EntityAddress(*fields) for fields in _ADDRESS.iter_unpack(values)))


_F = TypeVar("_F", bound=Callable[..., Any])


def serialised(method: _F) -> _F:
    """Run an index operation under the index's structure mutex.

    Entity-level 2PL locks serialise access to any one *component*, but a
    multi-node structural change (a T-Tree rotation, a linear-hash split)
    passes through intermediate states that a concurrent reader or writer
    on another worker thread must never observe.  The mutex is re-entrant
    (splits call back into the locked paths) and sits *above* the storage
    leaf mutexes and the no-wait entity locks the sink acquires: a
    conflict abort raised mid-operation unwinds through the ``with`` and
    releases it.
    """

    @functools.wraps(method)
    def wrapper(self: "Index", *args: Any, **kwargs: Any) -> Any:
        with self.structure_mutex:
            self._refresh_mirror_if_stale()
            return method(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


def serialised_scan(method: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
    """Like :func:`serialised` for generator methods: the scan is
    materialised under the mutex so iteration never interleaves with a
    structural change on another thread."""

    @functools.wraps(method)
    def wrapper(self: "Index", *args: Any, **kwargs: Any) -> Iterator[Any]:
        with self.structure_mutex:
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
        #: See :func:`serialised` — whole-structure mutex for operations
        #: whose intermediate states must stay invisible across threads.
        #: A database replaces it with the one all its indexes share
        #: (``Database.index_mutex``), which its rollbacks hold too.
        self.structure_mutex = threading.RLock()
        #: See :meth:`mark_mirror_stale`.
        self._mirror_stale = False

    # -- mirror staleness ---------------------------------------------------------

    def mark_mirror_stale(self) -> None:
        """A rollback restored this index's component bytes: the decoded
        anchor state held on the object (bucket directory, split pointer,
        root address, item count) no longer matches them.

        The reload happens *lazily* at the start of the next serialised
        operation, under the structure mutex — reloading eagerly from the
        aborting transaction could nest another index's structure mutex
        under one this thread already holds mid-unwind, inviting a
        lock-order cycle.  The flag flip itself is atomic under the GIL.
        """
        self._mirror_stale = True

    def _refresh_mirror_if_stale(self) -> None:
        """Called by :func:`serialised` with the structure mutex held."""
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
