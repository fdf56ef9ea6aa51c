"""Index components as partition entities.

Every index component (T-Tree node, hash bucket, anchor) is stored as a
serialised entity in a partition of the index's segment.  All mutation
flows through :class:`NodeStore`, which reports each change to a
:class:`ChangeSink` — the transaction layer implements the sink to write
one REDO record per updated component (section 2.3.2), take the
component's before-image for UNDO, and two-phase lock the component.

When no partition of the index segment has room the store asks the sink
to have it grown: the catalog must learn about the new partition, the
Stable Log Tail must give it a bin (``Database.grow_segment``).
"""

from __future__ import annotations

from typing import Callable, Protocol, TypeVar

from repro.common.types import EntityAddress, PartitionAddress
from repro.storage.entries import ENTRY_CHARGE_BYTES
from repro.storage.partition import Partition
from repro.storage.segment import Segment

_Form = TypeVar("_Form")

#: Decoded components one store keeps at most.  The cache is emptied when
#: it fills: entries are a few hundred bytes, so this bounds its memory
#: per index without any bookkeeping on the read path.
DECODED_CAPACITY = 8192

#: Share of a partition's entity capacity that new components leave free
#: for in-place growth of existing ones (see :class:`NodeStore`).
GROWTH_RESERVE = 0.15


class ChangeSink(Protocol):
    """Receives index component change notifications.

    Implemented by the transaction context; a ``None`` sink (bulk loads,
    recovery rebuilds) skips logging and locking entirely.
    """

    def lock_component(self, address: EntityAddress) -> None:
        """Take the two-phase exclusive lock on a component *before* it is
        physically changed.

        Under the no-wait policy a refused lock aborts the transaction on
        the spot — and at that moment no UNDO record for the pending
        change exists yet, so the rollback can only be correct if the
        component is still untouched.  ``NodeStore`` therefore settles the
        lock first and mutates second."""

    def index_node_written(
        self, address: EntityAddress, before: bytes | None, after: bytes
    ) -> None:
        """A component was created (``before is None``) or overwritten,
        its lock already settled by :meth:`lock_component`."""

    def index_node_freed(self, address: EntityAddress, before: bytes) -> None:
        """A component was released, its lock already settled by
        :meth:`lock_component`."""

    def grow_segment(self, segment: Segment, fits: Callable[[Partition], bool]) -> Partition:
        """No resident partition has room: one ``fits`` accepts."""

    def on_rollback(self, compensate: Callable[[], None]) -> None:
        """Run ``compensate`` if the change now being made is rolled
        back: index state the component bytes do not hold (a hash
        index's item count) is taken back with them."""


class NodeStore:
    """Allocate / read / write / free serialised index components.

    New components are only placed in a partition while it is below
    ``1 - GROWTH_RESERVE`` full: the reserve stays available for in-place
    *growth* of existing components (hash anchors grow with the bucket
    directory; T-Tree nodes grow toward ``max_items``) — the classic
    PCTFREE idea.

    The database rebinds a cached index object's :attr:`sink` to the
    calling transaction before every index operation.

    A partition missing since a crash is rebuilt through ``restore``
    (``Database.ensure_partition``; without one, :meth:`Segment.get`
    raises) when a component in it is first reached (section 2.5).
    :meth:`allocate` places only among resident partitions.
    """

    def __init__(self, segment: Segment, sink: ChangeSink | None = None,
                 restore: Callable[[PartitionAddress], Partition] | None = None):
        self.segment = segment
        self.sink = sink
        self._restore = restore or (lambda address: segment.get(address.partition))
        #: address -> (blob, decoded form), see :meth:`load`.
        self._decoded: dict[EntityAddress, tuple[bytes, object]] = {}

    # -- operations -------------------------------------------------------------

    def allocate(self, data: bytes) -> EntityAddress:
        """Store a new component, growing the segment if necessary."""
        needed = len(data) + ENTRY_CHARGE_BYTES
        sink = self.sink
        partition = self.segment.place(
            lambda p: p.free_bytes - int(p.entity_capacity * GROWTH_RESERVE) >= needed,
            None if sink is None else sink.grow_segment,
            needed,
        )
        offset = partition.insert(data)
        address = EntityAddress(
            partition.address.segment, partition.address.partition, offset
        )
        if sink is not None:
            sink.lock_component(address)  # as write() and free() do
            sink.index_node_written(address, None, data)
        return address

    def read(self, address: EntityAddress) -> bytes:
        partition = self.segment.resident(address.partition)
        if partition is None:
            partition = self._restore(PartitionAddress(address.segment, address.partition))
        return partition.read(address.offset)

    def load(
        self,
        address: EntityAddress,
        decode: Callable[[EntityAddress, bytes], _Form],
        keep: bool = True,
    ) -> _Form:
        """The component's decoded, *immutable* form, decoded once per blob.

        The form is kept beside the exact ``bytes`` object it came from.
        Entity bytes are immutable and every writer — :meth:`write`,
        byte-level UNDO, REDO replay, a partition re-installed by restart
        — *replaces* the object, so "the partition still holds it" implies
        "the form is current": no invalidation hook exists or is needed.
        Whole-index scans pass ``keep=False`` so they do not fill the
        cache with components no point operation asked for.  The bytes come
        from the partition dicts in this frame; :meth:`read` only restores
        a missing partition, or raises.
        """
        partition = self.segment._partitions.get(address.partition)
        entities = partition._entities if partition is not None else {}
        blob = entities.get(address.offset) or self.read(address)
        entry = self._decoded.get(address)
        if entry is not None and entry[0] is blob:
            return entry[1]  # type: ignore[return-value]
        form = decode(address, blob)
        if keep:
            if len(self._decoded) >= DECODED_CAPACITY:
                self._decoded.clear()
            self._decoded[address] = (blob, form)
        return form

    def write(self, address: EntityAddress, data: bytes, form: object = None) -> None:
        """Overwrite a component; ``form`` is ``data`` decoded, kept for :meth:`load`."""
        partition = self.segment.resident(address.partition)
        if partition is None:
            partition = self._restore(PartitionAddress(address.segment, address.partition))
        sink = self.sink
        if sink is not None:
            # Lock before mutating: a no-wait refusal aborts the calling
            # transaction, and the abort holds no UNDO record for this
            # write yet — the component must still be untouched.
            sink.lock_component(address)
        before = partition.read(address.offset)
        partition.update(address.offset, data)
        if form is not None:
            self._decoded[address] = (data, form)
        if sink is not None:
            sink.index_node_written(address, before, data)

    def free(self, address: EntityAddress) -> None:
        partition = self.segment.resident(address.partition)
        if partition is None:
            partition = self._restore(PartitionAddress(address.segment, address.partition))
        sink = self.sink
        if sink is not None:
            sink.lock_component(address)  # see write(): lock, then mutate
        before = partition.read(address.offset)
        partition.delete(address.offset)
        self._decoded.pop(address, None)
        if sink is not None:
            sink.index_node_freed(address, before)
