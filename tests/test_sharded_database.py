"""The sharded facade: topology, routing, scheduling, and the shards=1
degenerate case (digest-identical to a standalone database)."""

from functools import partial

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.common.errors import ShardingError
from repro.db.monitor import status_page
from repro.recovery.oracle import logical_digest
from repro.shard import ShardedDatabase
from repro.txn.scheduler import Scheduler
from repro.workloads.sharded_bank import ShardedBankWorkload

ACCOUNT_SCHEMA = [("id", "int"), ("balance", "int")]


def routed(cluster, *relations):
    """A script ``begin`` routed by its declared relations."""
    return partial(cluster.begin, list(relations))


def small_config(**kwargs):
    defaults = dict(
        log_page_size=1024,
        update_count_threshold=40,
        log_window_pages=256,
        log_window_grace_pages=16,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


@pytest.fixture()
def cluster():
    return ShardedDatabase(shards=2, config=small_config())


def load_pair(cluster):
    """accounts on shard 0, ledger on shard 1, a few rows each."""
    acc = cluster.create_relation("accounts", ACCOUNT_SCHEMA, "id", shard=0)
    led = cluster.create_relation(
        "ledger", [("id", "int"), ("total", "int")], "id", shard=1
    )
    with cluster.transaction(relations=["accounts"]) as txn:
        for i in range(4):
            acc.insert(txn, {"id": i, "balance": 100})
    with cluster.transaction(relations=["ledger"]) as txn:
        led.insert(txn, {"id": 0, "total": 0})
    return acc, led


class TestTopology:
    def test_relations_live_on_their_pinned_node(self, cluster):
        acc, led = load_pair(cluster)
        assert acc.db is cluster.nodes[0] and led.db is cluster.nodes[1]
        assert cluster.nodes[0].catalog.has_relation("accounts")
        assert not cluster.nodes[0].catalog.has_relation("ledger")
        assert cluster.nodes[1].catalog.has_relation("ledger")

    def test_indexes_live_with_their_relation(self, cluster):
        load_pair(cluster)
        cluster.create_index("by_balance", "accounts", "balance")
        names = [d.name for d in cluster.nodes[0].catalog.indexes()]
        assert "by_balance" in names
        assert not any(
            d.name == "by_balance" for d in cluster.nodes[1].catalog.indexes()
        )
        cluster.drop_index("by_balance")
        assert not any(
            d.name == "by_balance" for d in cluster.nodes[0].catalog.indexes()
        )

    def test_drop_relation_unpins(self, cluster):
        load_pair(cluster)
        cluster.drop_relation("ledger")
        assert "ledger" not in cluster.router.placement()
        assert not cluster.nodes[1].catalog.has_relation("ledger")

    def test_single_shard_txn_runs_on_owning_node(self, cluster):
        acc, _ = load_pair(cluster)
        before = cluster.nodes[1].slb.commits
        with cluster.transaction(relations=["accounts"]) as txn:
            row = acc.lookup(txn, 0)
            acc.update(txn, row.address, {"balance": 1})
        # The other node saw nothing: no commit, no log records.
        assert cluster.nodes[1].slb.commits == before


class TestRoutingGuards:
    def test_plain_txn_cannot_touch_foreign_relation(self, cluster):
        acc, led = load_pair(cluster)
        with pytest.raises(ShardingError, match="declare"):
            with cluster.transaction(relations=["accounts"]) as txn:
                led.lookup(txn, 0)

    def test_distributed_txn_needs_declared_branch(self, cluster):
        acc, led = load_pair(cluster)
        extra = cluster.create_relation("extra", ACCOUNT_SCHEMA, "id", shard=1)
        with pytest.raises(ShardingError, match="no branch"):
            with cluster.transaction(relations=["accounts", "ledger"]) as txn:
                # 'extra' lives on shard 1 which *is* a participant, but a
                # relation must still resolve through a declared branch —
                # here we fake a miss by asking for a shard outside the set.
                txn.branch(5)

    def test_plain_txn_cannot_touch_another_databases_relation(self):
        """Two standalone databases hand out the same segment ids.  Without
        the guard B's relation would take A's transaction: the row would
        land in B's partition while its lock went to A's lock table and its
        REDO record onto A's SLB chain, into A's bin for the same-numbered
        partition — so A's commit would make durable, in A's log, a change
        to B that B never logged."""
        a, b = Database(small_config()), Database(small_config())
        a.create_relation("accounts", ACCOUNT_SCHEMA, "id")
        theirs = b.create_relation("accounts", ACCOUNT_SCHEMA, "id")
        with a.transaction() as txn:
            written = a.slb.records_written
            with pytest.raises(ShardingError, match="another database"):
                theirs.insert(txn, {"id": 1, "balance": 5})
            assert a.slb.records_written == written
            assert not a.locks.locks_held(txn.txn_id)
        with b.transaction() as txn:
            assert theirs.count(txn) == 0


class TestCrossShard:
    def test_cross_shard_commit_and_query(self, cluster):
        acc, led = load_pair(cluster)
        with cluster.transaction(relations=["accounts", "ledger"]) as txn:
            row = acc.lookup(txn, 0)
            acc.update(txn, row.address, {"balance": row["balance"] - 25})
            t = led.lookup(txn, 0)
            led.update(txn, t.address, {"total": t["total"] + 25})
        stats = cluster.stats()
        nodes = stats["shards"]["per_shard"].values()
        assert stats["twopc"]["distributed_committed"] == 1
        assert sum(node["twopc"]["prepares"] for node in nodes) == 2
        assert sum(node["twopc"]["decisions_logged"] for node in nodes) == 1
        # Fully acknowledged decisions are forgotten.
        assert cluster.twopc.decision_table(0) == {}
        with cluster.transaction(relations=["accounts", "ledger"]) as txn:
            assert sum(row["balance"] for row in acc.scan(txn)) == 375
            assert led.lookup(txn, 0)["total"] == 25

    def test_cross_shard_abort_rolls_back_everywhere(self, cluster):
        acc, led = load_pair(cluster)
        with pytest.raises(RuntimeError, match="boom"):
            with cluster.transaction(relations=["accounts", "ledger"]) as txn:
                row = acc.lookup(txn, 0)
                acc.update(txn, row.address, {"balance": 0})
                raise RuntimeError("boom")
        with cluster.transaction(relations=["accounts"]) as txn:
            assert acc.lookup(txn, 0)["balance"] == 100
        stats = cluster.stats()
        assert stats["twopc"]["distributed_aborted"] == 1
        # Presumed abort: nothing was ever logged for the failed txn.
        nodes = stats["shards"]["per_shard"].values()
        assert sum(node["twopc"]["decisions_logged"] for node in nodes) == 0


class TestObservability:
    def test_stats_aggregate_and_per_shard(self, cluster):
        """The roll-up is computed: after single-shard traffic, cross-shard
        traffic and a shard crash/restart, every numeric top-level key is
        the sum over ``per_shard`` (``clock_seconds`` the latest clock)."""
        acc, led = load_pair(cluster)
        with cluster.transaction(relations=["accounts", "ledger"]) as txn:
            row = acc.lookup(txn, 1)
            acc.update(txn, row.address, {"balance": row["balance"] - 5})
            total = led.lookup(txn, 0)
            led.update(txn, total.address, {"total": total["total"] + 5})
        cluster.crash_shard(1)
        cluster.restart_shard(1, RecoveryMode.ON_DEMAND)
        stats = cluster.stats()
        per_shard = stats["shards"]["per_shard"]
        assert stats["shards"]["count"] == 2
        assert set(per_shard) == {0, 1}
        assert [per_shard[sid]["shard_id"] for sid in (0, 1)] == [0, 1]
        assert "twopc" in stats and "pending" in stats["twopc"]
        numeric = {
            key for key, value in stats.items() if isinstance(value, (int, float))
        }
        assert {"transactions_committed", "transactions_aborted", "clock_seconds"} <= numeric
        assert numeric == {
            key for key, value in per_shard[0].items()
            if isinstance(value, (int, float)) and key != "shard_id"
        }
        for key in numeric - {"clock_seconds"}:
            assert stats[key] == sum(s[key] for s in per_shard.values()), key
        assert stats["clock_seconds"] == max(s["clock_seconds"] for s in per_shard.values())
        assert per_shard[1]["restart"] is not None and per_shard[0]["restart"] is None

    def test_snapshot_and_report(self, cluster):
        load_pair(cluster)
        assert not hasattr(cluster, "snapshot")
        report = cluster.report()
        assert "sharded cluster: 2 nodes" in report
        assert "node 0" in report and "node 1" in report
        assert "shard               node 0" in report

    def test_node_monitor_reports_shard_identity(self, cluster):
        assert "shard               node 1" in status_page(cluster.nodes[1].stats())


class TestShardedScheduler:
    """One ``Scheduler`` drives a cluster: local and distributed scripts
    interleave in one batch, each routed by ``cluster.begin``."""

    def test_routes_and_preserves_submission_order(self, cluster):
        acc, led = load_pair(cluster)
        sched = Scheduler(cluster)

        def local(txn):
            row = acc.lookup(txn, 0)
            yield
            acc.update(txn, row.address, {"balance": row["balance"] + 1})

        def cross(txn):
            row = acc.lookup(txn, 1)
            yield
            acc.update(txn, row.address, {"balance": row["balance"] - 5})
            t = led.lookup(txn, 0)
            led.update(txn, t.address, {"total": t["total"] + 5})

        sched.submit(local, name="l0", begin=routed(cluster, "accounts"))
        sched.submit(cross, name="x0", begin=routed(cluster, "accounts", "ledger"))
        sched.submit(local, name="l1", begin=routed(cluster, "accounts"))
        results = sched.run()
        assert [r.name for r in results] == ["l0", "x0", "l1"]
        assert all(r.committed for r in results)
        assert cluster.stats()["twopc"]["distributed_committed"] == 1
        assert all(db.stats()["scheduler"] == sched.stats() for db in cluster.nodes)
        assert sched.stats()["committed"] == 3

    def test_cross_conflict_retries_under_no_wait(self, cluster):
        acc, led = load_pair(cluster)
        sched = Scheduler(cluster, max_attempts=50)

        def contender(txn):
            row = acc.lookup(txn, 0)
            yield
            acc.update(txn, row.address, {"balance": row["balance"] - 1})
            yield
            t = led.lookup(txn, 0)
            led.update(txn, t.address, {"total": t["total"] + 1})

        for i in range(4):
            sched.submit(contender, name=f"c{i}", begin=routed(cluster, "accounts", "ledger"))
        results = sched.run()
        assert all(r.committed for r in results)
        with cluster.transaction(relations=["ledger"]) as txn:
            assert led.lookup(txn, 0)["total"] == 4

    @pytest.mark.parametrize("local_first", [True, False], ids=["local-first", "cross-first"])
    def test_local_and_distributed_contend_on_one_row(self, local_first):
        """A local and a cross-shard transfer out of the same account, in
        one batch: they conflict on its row, the loser retries, both
        commit, and conservation holds per shard and overall."""
        cluster = ShardedDatabase(shards=2, config=small_config())
        bank = ShardedBankWorkload(cluster, accounts_per_shard=4, seed=0)
        bank.load()
        scripts = [
            ("local", bank.local_transfer_script(0, 0, 1, 5), [bank.account_name(0)]),
            (
                "cross",
                bank.cross_transfer_script(0, 1, 0, 2, 7),
                [bank.account_name(0), bank.ledger_name(0),
                 bank.account_name(1), bank.ledger_name(1)],
            ),
        ]
        sched = Scheduler(cluster, max_attempts=50)
        for name, script, relations in scripts if local_first else scripts[::-1]:
            sched.submit(script, name=name, begin=routed(cluster, *relations))
        results = sched.run()
        assert all(r.committed for r in results)
        assert sched.conflicts >= 1
        totals = bank.check_invariants()
        assert totals[0]["balances"] == 4 * 1000 - 7
        with cluster.transaction(relations=[bank.account_name(0)]) as txn:
            assert cluster.table(bank.account_name(0)).lookup(txn, 0)["balance"] == 1000 - 12

    def test_a_run_that_raises_consumes_the_batch(self, cluster):
        """Whether the script that dies is local or distributed, the next
        run sees only what was submitted after it, and nothing of the dead
        transaction stays open or in flight."""
        acc, led = load_pair(cluster)
        sched = Scheduler(cluster)

        def broken(txn):
            yield
            raise ValueError("script bug")

        def bump(txn):
            row = acc.lookup(txn, 0)
            yield
            acc.update(txn, row.address, {"balance": row["balance"] + 1})

        for dying in (["accounts"], ["accounts", "ledger"]):
            sched.submit(broken, name="dies", begin=routed(cluster, *dying))
            with pytest.raises(ValueError):
                sched.run()
            assert cluster.twopc.pending_gtids() == []
            assert all(db.transactions.active_count == 0 for db in cluster.nodes)
            sched.submit(bump, name="after", begin=routed(cluster, "accounts"))
            results = sched.run()
            assert [(r.name, r.committed) for r in results] == [("after", True)]
        with cluster.transaction(relations=["accounts"]) as txn:
            assert acc.lookup(txn, 0)["balance"] == 102

    def test_same_name_local_and_distributed_gives_two_results(self, cluster):
        acc, led = load_pair(cluster)
        sched = Scheduler(cluster)
        began = {"local": [], "cross": []}

        def local(txn):
            began["local"].append(txn.txn_id)
            row = acc.lookup(txn, 0)
            yield
            acc.update(txn, row.address, {"balance": row["balance"] + 1})

        def cross(txn):
            began["cross"].append(txn.txn_id)
            row = acc.lookup(txn, 1)
            yield
            acc.update(txn, row.address, {"balance": row["balance"] - 5})
            t = led.lookup(txn, 0)
            led.update(txn, t.address, {"total": t["total"] + 5})

        sched.submit(cross, name="x", begin=routed(cluster, "accounts", "ledger"))
        sched.submit(local, name="x", begin=routed(cluster, "accounts"))
        first, second = sched.run()
        assert first is not second
        assert (first.committed, first.txn_ids) == (True, began["cross"])
        assert (second.committed, second.txn_ids) == (True, began["local"])
        assert began["cross"] and began["local"]


class TestDegenerateSingleShard:
    def test_shards_one_digest_identical_to_standalone(self):
        """The tentpole's degeneracy claim: one shard, same bits."""

        def drive(facade_like, submit):
            acc = facade_like.create_relation(
                "accounts", ACCOUNT_SCHEMA, "id"
            )
            with facade_like.transaction(relations=["accounts"]) as txn:
                for i in range(8):
                    acc.insert(txn, {"id": i, "balance": 100})

            def transfer(src, dst):
                def script(txn):
                    row = acc.lookup(txn, src)
                    yield
                    acc.update(
                        txn, row.address, {"balance": row["balance"] - 7}
                    )
                    yield
                    row2 = acc.lookup(txn, dst)
                    acc.update(
                        txn, row2.address, {"balance": row2["balance"] + 7}
                    )

                return script

            for i in range(6):
                submit(transfer(i, (i + 1) % 8), f"t{i}")

        seed_db = Database(small_config())
        seed_sched = Scheduler(seed_db)
        drive(seed_db, lambda script, name: seed_sched.submit(script, name=name))
        seed_sched.run()

        cluster = ShardedDatabase(shards=1, config=small_config())
        cluster_sched = Scheduler(cluster)
        drive(
            cluster,
            lambda script, name: cluster_sched.submit(
                script, name=name, begin=routed(cluster, "accounts")
            ),
        )
        cluster_sched.run()

        assert logical_digest(seed_db) == logical_digest(cluster.nodes[0])
        # Identical commit/abort history, not just identical state.
        assert seed_db.slb.commits == cluster.nodes[0].slb.commits
        assert seed_db.slb.aborts == cluster.nodes[0].slb.aborts

    def test_shards_one_crash_recovery_digest_identical(self):
        def load(db_like):
            acc = db_like.create_relation("accounts", ACCOUNT_SCHEMA, "id")
            with db_like.transaction(relations=["accounts"]) as txn:
                for i in range(10):
                    acc.insert(txn, {"id": i, "balance": i * 3})

        seed_db = Database(small_config())
        load(seed_db)
        seed_db.crash()
        seed_db.restart()
        seed_db.restart_coordinator.recover_everything()

        cluster = ShardedDatabase(shards=1, config=small_config())
        load(cluster)
        cluster.crash()
        cluster.restart()
        cluster.recover_everything()

        assert logical_digest(seed_db) == logical_digest(cluster.nodes[0])


class TestShardedBankWorkload:
    def test_conservation_holds_under_mixed_transfers(self):
        cluster = ShardedDatabase(shards=3, config=small_config())
        bank = ShardedBankWorkload(
            cluster, accounts_per_shard=8, cross_ratio=0.5, seed=3
        )
        bank.load()
        sched = Scheduler(cluster, max_attempts=100)
        bank.submit(sched, 24)
        results = sched.run()
        assert all(r.committed for r in results)
        totals = bank.check_invariants()
        # The seeded mix actually produced cross-shard traffic.
        assert sum(t["outgoing"] for t in totals.values()) > 0
