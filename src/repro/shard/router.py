"""The shard router: declared access lists → shard sets.

The paper's method-1 predeclaration (section 2.5) is a free routing
oracle: a transaction that names the relations it will touch has named
the shards it will touch.  The router owns the relation→shard map —
stable hash by default (``crc32(name) % shards``), explicit pins for
placement control — and turns a declared access list into the sorted
shard set the :class:`~repro.shard.ShardedDatabase` facade dispatches
on: one shard runs the transaction unchanged on that node, several run
it under 2PC.
"""

from __future__ import annotations

import zlib

from repro.common.errors import ReproError


class RoutingError(ReproError):
    """A placement or routing request the router cannot satisfy."""


class ShardRouter:
    """Maps relation names to shard ids; pure function of its placement.

    Deterministic: the same shard count and pin sequence always produce
    the same map, so a restarted cluster routes identically (the pins
    are re-derived from the facade's DDL replay, not persisted here).
    """

    def __init__(self, shards: int):
        if shards < 1:
            raise RoutingError("a sharded topology needs at least one shard")
        self.shards = shards
        self._placement: dict[str, int] = {}

    # -- placement ----------------------------------------------------------------

    def default_shard(self, name: str) -> int:
        """The stable-hash home of ``name`` (used absent an explicit pin)."""
        return zlib.crc32(name.encode("utf-8")) % self.shards

    def assign(self, name: str, shard: int | None = None) -> int:
        """Record ``name``'s home shard (explicit pin or stable hash)."""
        if shard is None:
            shard = self.default_shard(name)
        if not 0 <= shard < self.shards:
            raise RoutingError(
                f"shard {shard} out of range for {self.shards} shards"
            )
        existing = self._placement.get(name)
        if existing is not None and existing != shard:
            raise RoutingError(
                f"relation {name!r} is already placed on shard {existing}"
            )
        self._placement[name] = shard
        return shard

    def unassign(self, name: str) -> None:
        self._placement.pop(name, None)

    def shard_of(self, name: str) -> int:
        """The shard owning ``name`` (pinned, else stable hash)."""
        pinned = self._placement.get(name)
        return pinned if pinned is not None else self.default_shard(name)

    # -- routing ------------------------------------------------------------------

    def route(self, relations: list[str] | tuple[str, ...]) -> tuple[int, ...]:
        """The sorted shard set a declared access list touches.

        An empty declaration routes to shard 0 — the degenerate home that
        keeps ``shards=1`` behaviour identical to a standalone database.
        """
        if not relations:
            return (0,)
        return tuple(sorted({self.shard_of(name) for name in relations}))

    # -- observability ------------------------------------------------------------

    def placement(self) -> dict[str, int]:
        return dict(self._placement)

    def stats(self) -> dict:
        per_shard = [0] * self.shards
        for shard in self._placement.values():
            per_shard[shard] += 1
        return {
            "shards": self.shards,
            "placed_relations": len(self._placement),
            "relations_per_shard": per_shard,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(shards={self.shards}, placed={len(self._placement)})"
