"""The shard router: placement, stable hashing, and access-list routing."""

import pytest

from repro.shard import RoutingError, ShardRouter


def pinned(shards: int, placement: dict[str, int]) -> ShardRouter:
    router = ShardRouter(shards)
    for name, shard in placement.items():
        router.assign(name, shard)
    return router


class TestPlacement:
    def test_default_shard_is_stable(self):
        a = ShardRouter(4)
        b = ShardRouter(4)
        for name in ("accounts", "ledger", "history", "teller"):
            assert a.default_shard(name) == b.default_shard(name)
            assert 0 <= a.default_shard(name) < 4

    def test_assign_pins_and_shard_of_honours_pin(self):
        router = ShardRouter(4)
        hashed = router.default_shard("accounts")
        pinned = (hashed + 1) % 4
        assert router.assign("accounts", pinned) == pinned
        assert router.shard_of("accounts") == pinned

    def test_assign_without_shard_uses_hash(self):
        router = ShardRouter(4)
        assert router.assign("accounts") == router.default_shard("accounts")

    def test_conflicting_repin_rejected(self):
        router = ShardRouter(4)
        router.assign("accounts", 1)
        router.assign("accounts", 1)  # idempotent re-pin is fine
        with pytest.raises(RoutingError, match="already placed"):
            router.assign("accounts", 2)

    def test_unassign_reverts_to_hash(self):
        router = ShardRouter(4)
        other = (router.default_shard("accounts") + 1) % 4
        router.assign("accounts", other)
        router.unassign("accounts")
        assert router.shard_of("accounts") == router.default_shard("accounts")

    def test_out_of_range_pin_rejected(self):
        router = ShardRouter(2)
        with pytest.raises(RoutingError, match="out of range"):
            router.assign("accounts", 2)
        with pytest.raises(RoutingError, match="out of range"):
            router.assign("accounts", -1)

    def test_constructor_placement_and_validation(self):
        assert ShardRouter(3).placement() == {}
        with pytest.raises(RoutingError, match="at least one shard"):
            ShardRouter(0)


class TestRouting:
    def test_route_is_sorted_shard_set(self):
        router = pinned(4, {"a": 3, "b": 1, "c": 3})
        assert router.route(["a", "b", "c"]) == (1, 3)
        assert router.route(["c", "a"]) == (3,)

    def test_empty_declaration_routes_to_shard_zero(self):
        router = ShardRouter(4)
        assert router.route([]) == (0,)

    def test_stats_counts_pins_per_shard(self):
        router = pinned(3, {"a": 0, "b": 0, "c": 2})
        stats = router.stats()
        assert stats["shards"] == 3
        assert stats["placed_relations"] == 3
        assert stats["relations_per_shard"] == [2, 0, 1]
