"""Kill-one-shard chaos: a node dies mid-commit or mid-checkpoint and
only that node recovers — survivors never stop committing.

This is the shared-nothing payoff the tentpole claims: every shard owns
its stable structures, so one node's crash, restart, and two-phase
recovery are invisible to the rest of the cluster (no shared log tail,
no shared locks, no fate-sharing).  The torture axis test runs a full
seeded sharded round through the harness.
"""

import pytest

from repro import SystemConfig
from repro.shard import ShardedDatabase
from repro.sim.chaos import CRASH, ChaosEngine, ChaosPlan, ChaosRule, chaos
from repro.sim.faults import SimulatedCrash
from repro.sim.torture import RoundSpec, TortureHarness
from repro.txn.scheduler import Scheduler
from repro.workloads.sharded_bank import ShardedBankWorkload

ACCOUNT_SCHEMA = [("id", "int"), ("balance", "int")]

#: Tight checkpoint threshold so a short burst of updates forces one.
CONFIG = dict(
    log_page_size=512,
    update_count_threshold=16,
    log_window_pages=256,
    log_window_grace_pages=16,
)


@pytest.fixture()
def cluster():
    return ShardedDatabase(shards=2, config=SystemConfig(**CONFIG))


def load(cluster, rows=8):
    left = cluster.create_relation("left", ACCOUNT_SCHEMA, "id", shard=0)
    right = cluster.create_relation("right", ACCOUNT_SCHEMA, "id", shard=1)
    for rel, name in ((left, "left"), (right, "right")):
        with cluster.transaction(relations=[name]) as txn:
            for i in range(rows):
                rel.insert(txn, {"id": i, "balance": 100})
    return left, right


def bump(cluster, rel, name, key, delta=1, pump=True):
    with cluster.transaction(relations=[name], pump=pump) as txn:
        row = rel.lookup(txn, key)
        rel.update(txn, row.address, {"balance": row["balance"] + delta})


def crash_at(point, after_visits=0):
    return ChaosEngine(
        ChaosPlan(0, (ChaosRule(point, CRASH, after_visits=after_visits),))
    )


def survivors_keep_committing(cluster, left):
    """With shard 1 dark, shard 0 commits a burst of transactions."""
    before = cluster.nodes[0].slb.commits
    for i in range(6):
        bump(cluster, left, "left", i)
    # At least the six user commits (checkpoint system txns may add more).
    assert cluster.nodes[0].slb.commits >= before + 6


class TestKillOneShardMidCommit:
    def test_only_dead_shard_recovers(self, cluster):
        left, right = load(cluster)
        # The crash fires inside shard 1's next commit: its chain never
        # reaches the committed list, so the bump must not survive.
        with chaos(crash_at("txn.commit.before-slb")):
            with pytest.raises(SimulatedCrash):
                bump(cluster, right, "right", 0, delta=50)
        cluster.crash_shard(1)
        assert cluster.crashed_shards == [1]

        survivors_keep_committing(cluster, left)

        cluster.restart_shard(1)
        cluster.nodes[1].restart_coordinator.recover_everything()
        # Only the dead shard ran restart; the survivor never did.
        assert cluster.nodes[1].restart_coordinator is not None
        assert cluster.nodes[0].restart_coordinator is None
        # The mid-commit transaction was correctly lost, earlier commits kept.
        with cluster.transaction(relations=["right"]) as txn:
            assert right.lookup(txn, 0)["balance"] == 100

    def test_mid_commit_after_slb_survives(self, cluster):
        """One visit later the chain is on the committed list: the same
        crash window must now preserve the transaction."""
        left, right = load(cluster)
        with chaos(crash_at("txn.commit.after-slb")):
            with pytest.raises(SimulatedCrash):
                bump(cluster, right, "right", 0, delta=50, pump=False)
        cluster.crash_shard(1)
        survivors_keep_committing(cluster, left)
        cluster.restart_shard(1)
        cluster.nodes[1].restart_coordinator.recover_everything()
        with cluster.transaction(relations=["right"]) as txn:
            assert right.lookup(txn, 0)["balance"] == 150


class TestKillOneShardMidCheckpoint:
    def test_crash_mid_checkpoint_recovers_only_that_shard(self, cluster):
        left, right = load(cluster)
        # Cross the update threshold on shard 1 without pumping, then let
        # the chaos'd pump start the checkpoint and die mid-copy.
        for i in range(8):
            bump(cluster, right, "right", i, pump=False)
            bump(cluster, right, "right", i, delta=2, pump=False)
            bump(cluster, right, "right", i, delta=3, pump=False)
        with chaos(crash_at("checkpoint.copied")):
            with pytest.raises(SimulatedCrash):
                cluster.nodes[1].pump()
        cluster.crash_shard(1)
        assert cluster.crashed_shards == [1]

        survivors_keep_committing(cluster, left)

        cluster.restart_shard(1)
        cluster.nodes[1].restart_coordinator.recover_everything()
        assert cluster.nodes[0].restart_coordinator is None
        # All 24 committed updates survive the torn checkpoint.
        with cluster.transaction(relations=["right"]) as txn:
            for i in range(8):
                assert right.lookup(txn, i)["balance"] == 106


class TestClusterDigestsIndependent:
    def test_survivor_digest_unchanged_by_peer_recovery(self, cluster):
        """Recovering shard 1 must not move shard 0's logical state."""
        left, right = load(cluster)
        cluster.recover_everything()
        before = cluster.digests()[0]
        cluster.crash_shard(1)
        cluster.restart_shard(1)
        cluster.recover_everything()
        assert cluster.digests()[0] == before


class TestTortureShardsAxis:
    def test_spec_validates_and_names_shards(self):
        with pytest.raises(ValueError, match="shards"):
            RoundSpec(1, "crash", shards=0)
        command = RoundSpec(3, "crash", shards=4).repro_command()
        assert "--shards 4" in command
        assert "--shards" not in RoundSpec(3, "crash").repro_command()

    def test_sharded_round_verifies(self):
        result = TortureHarness().run_round(RoundSpec(5, "crash", shards=2))
        assert result.shards == 2
        assert result.crashes_fired == 1 and result.point is not None
        assert result.committed > 0

    def test_sharded_fault_round_verifies(self):
        result = TortureHarness().run_round(RoundSpec(7, "fault", shards=3))
        assert result.shards == 3
        assert result.faults_fired >= 0


class TestMixedWorkloadKill:
    def test_kill_during_mixed_bank_traffic(self):
        """A seeded bank mix runs, shard 1 dies, survivors commit more
        local work, the dead shard restarts — conservation holds."""
        cluster = ShardedDatabase(shards=2, config=SystemConfig(**CONFIG))
        bank = ShardedBankWorkload(
            cluster, accounts_per_shard=8, cross_ratio=0.3, seed=9
        )
        bank.load()
        sched = Scheduler(cluster, max_attempts=100)
        bank.submit(sched, 16)
        assert all(r.committed for r in sched.run())

        cluster.crash_shard(1)
        # Shard 0 keeps taking local transfers while 1 is down.
        account0 = cluster.table(bank.account_name(0))
        with cluster.transaction(relations=[bank.account_name(0)]) as txn:
            row = account0.lookup(txn, 0)
            account0.update(txn, row.address, {"balance": row["balance"]})

        cluster.restart_shard(1)
        cluster.recover_everything()
        bank.check_invariants()
