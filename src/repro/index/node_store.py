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

import threading
from typing import Callable, Protocol, TypeVar

from repro.common.errors import PartitionFullError
from repro.common.types import EntityAddress
from repro.storage.partition import ENTITY_HEADER_BYTES, Partition
from repro.storage.segment import Segment

_Form = TypeVar("_Form")

#: Decoded components one store keeps at most.  The cache is emptied when
#: it fills: entries are a few hundred bytes, so this bounds its memory
#: per index without any bookkeeping on the read path.
DECODED_CAPACITY = 8192


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
        """A component was created (``before is None``) or overwritten."""

    def index_node_freed(self, address: EntityAddress, before: bytes) -> None:
        """A component was released."""

    def grow_segment(self, segment: Segment, fits: Callable[[Partition], bool]) -> Partition:
        """No resident partition has room: one ``fits`` accepts."""


class NodeStore:
    """Allocate / read / write / free serialised index components.

    New components are only placed in a partition while it is below
    ``1 - growth_reserve`` full: the reserve stays available for in-place
    *growth* of existing components (hash anchors grow with the bucket
    directory; T-Tree nodes grow toward ``max_items``) — the classic
    PCTFREE idea.

    The :attr:`sink` binding is **thread-local**: the database rebinds a
    cached index object's sink to the calling transaction before every
    index operation, and under the concurrent scheduler two workers do
    that simultaneously on the same store.  Assigning ``store.sink = txn``
    only affects the assigning thread; threads that never assigned see the
    constructor-time default (``None`` or the bulk-load transaction).
    """

    def __init__(
        self,
        segment: Segment,
        sink: ChangeSink | None = None,
        growth_reserve: float = 0.15,
    ):
        if not 0.0 <= growth_reserve < 1.0:
            raise ValueError("growth_reserve must be in [0, 1)")
        self.segment = segment
        self._default_sink = sink
        self._sink_override = threading.local()
        self.growth_reserve = growth_reserve
        #: address -> (blob, decoded form), see :meth:`load`.  Needs no
        #: guard: each entry is one immutable pair, stored and fetched whole.
        self._decoded: dict[EntityAddress, tuple[bytes, object]] = {}

    @property
    def sink(self) -> ChangeSink | None:
        """The calling thread's sink override, else the default."""
        return getattr(self._sink_override, "value", self._default_sink)

    @sink.setter
    def sink(self, value: ChangeSink | None) -> None:
        self._sink_override.value = value

    # -- operations -------------------------------------------------------------

    def allocate(self, data: bytes) -> EntityAddress:
        """Store a new component, growing the segment if necessary."""
        partition = self._partition_with_room(len(data))
        offset = partition.insert(data)
        address = EntityAddress(
            partition.address.segment, partition.address.partition, offset
        )
        if self.sink is not None:
            self.sink.index_node_written(address, None, data)
        return address

    def read(self, address: EntityAddress) -> bytes:
        return self.segment.get(address.partition).read(address.offset)

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
        cache with components no point operation asked for.
        """
        blob = self.read(address)
        entry = self._decoded.get(address)
        if entry is not None and entry[0] is blob:
            return entry[1]  # type: ignore[return-value]
        form = decode(address, blob)
        if keep:
            if len(self._decoded) >= DECODED_CAPACITY:
                self._decoded.clear()
            self._decoded[address] = (blob, form)
        return form

    def write(self, address: EntityAddress, data: bytes) -> None:
        partition = self.segment.get(address.partition)
        sink = self.sink
        if sink is not None:
            # Lock before mutating: a no-wait refusal aborts the calling
            # transaction, and the abort holds no UNDO record for this
            # write yet — the component must still be untouched.
            sink.lock_component(address)
        before = partition.read(address.offset)
        partition.update(address.offset, data)
        if sink is not None:
            sink.index_node_written(address, before, data)

    def free(self, address: EntityAddress) -> None:
        partition = self.segment.get(address.partition)
        sink = self.sink
        if sink is not None:
            sink.lock_component(address)  # see write(): lock, then mutate
        before = partition.read(address.offset)
        partition.delete(address.offset)
        self._decoded.pop(address, None)
        if sink is not None:
            sink.index_node_freed(address, before)

    # -- placement ----------------------------------------------------------------

    def _partition_with_room(self, nbytes: int) -> Partition:
        needed = nbytes + ENTITY_HEADER_BYTES
        reserve = self.growth_reserve
        fits = lambda p: p.free_bytes - int(p.entity_capacity * reserve) >= needed
        partition = self.segment.first_fit(fits)
        if partition is not None:
            return partition
        entity_capacity, _ = self.segment.fresh_partition_capacities()
        if needed > entity_capacity:
            raise PartitionFullError(
                f"index component of {nbytes} bytes exceeds partition capacity"
            )
        sink = self.sink
        if sink is None:
            return self.segment.allocate_partition()
        return sink.grow_segment(self.segment, fits)
