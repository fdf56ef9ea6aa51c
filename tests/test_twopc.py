"""2PC edge cases: coordinator/participant crashes and in-doubt resolution.

The protocol's stable footprint is tiny — per-branch PREPARE records in
each node's SLB and one decision-table entry on the coordinator — so
every failure window reduces to "was the decision logged?".  These tests
park distributed transactions in each window with deterministic crash
points, kill nodes, and check that restart resolves every in-doubt
branch to the presumed-abort or logged-commit verdict.
"""

import pytest

from repro import SystemConfig
from repro.recovery import restore_after_checkpoint_media_failure
from repro.shard import DECISIONS_KEY, ShardedDatabase
from repro.sim.chaos import CRASH, ChaosEngine, ChaosPlan, ChaosRule, chaos
from repro.sim.faults import SimulatedCrash

ACCOUNT_SCHEMA = [("id", "int"), ("balance", "int")]


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
    c = ShardedDatabase(shards=2, config=small_config(), engine="sim")
    yield c
    c.close()


def load(cluster):
    """One 100-balance account per shard; returns the two handles."""
    left = cluster.create_relation("left", ACCOUNT_SCHEMA, "id", shard=0)
    right = cluster.create_relation("right", ACCOUNT_SCHEMA, "id", shard=1)
    with cluster.transaction(relations=["left"]) as txn:
        left.insert(txn, {"id": 0, "balance": 100})
    with cluster.transaction(relations=["right"]) as txn:
        right.insert(txn, {"id": 0, "balance": 100})
    return left, right


def transfer(cluster, left, right, amount=30):
    """One cross-shard transfer (raises whatever the commit path raises)."""
    with cluster.transaction(relations=["left", "right"]) as txn:
        row = left.lookup(txn, 0)
        left.update(txn, row.address, {"balance": row["balance"] - amount})
        row2 = right.lookup(txn, 0)
        right.update(txn, row2.address, {"balance": row2["balance"] + amount})


def balances(cluster, left, right):
    with cluster.transaction(relations=["left"]) as txn:
        a = left.lookup(txn, 0)["balance"]
    with cluster.transaction(relations=["right"]) as txn:
        b = right.lookup(txn, 0)["balance"]
    return a, b


def crash_at(point, after_visits=0):
    return ChaosEngine(
        ChaosPlan(0, (ChaosRule(point, CRASH, after_visits=after_visits),))
    )


class TestCoordinatorCrash:
    def test_crash_before_decision_presumes_abort(self, cluster):
        """Every branch prepared, coordinator dies before logging COMMIT:
        nothing was decided, so everyone — survivors immediately, the
        dead node at restart — resolves to abort."""
        left, right = load(cluster)
        with chaos(crash_at("shard.2pc.before-decision")):
            with pytest.raises(SimulatedCrash):
                transfer(cluster, left, right)
        # The coordinator (lowest shard id = 0) dies with its in-doubt
        # branch; the survivor settles immediately via presumed abort.
        cluster.crash_shard(0)
        assert cluster.nodes[1].db.twopc.snapshot()["prepared_aborts"] == 1
        assert cluster.twopc.pending_gtids() == []
        cluster.restart_shard(0)
        cluster.recover_everything()
        resolved = cluster.nodes[0].db.twopc.snapshot()
        assert resolved["in_doubt_found"] == 1
        assert resolved["in_doubt_aborted"] == 1
        assert resolved["in_doubt_committed"] == 0
        assert balances(cluster, left, right) == (100, 100)
        # Presumed abort left no stable trace on the coordinator.
        assert cluster.twopc.decision_table(0) == {}

    def test_crash_after_decision_commits_everywhere(self, cluster):
        """The decision hit stable memory: the crash happened before any
        branch ran phase 2, yet the transaction must commit on every
        shard — survivors driven by the crash sweep, the dead node by
        its restart's in-doubt resolution."""
        left, right = load(cluster)
        with chaos(crash_at("shard.2pc.after-decision")):
            with pytest.raises(SimulatedCrash):
                transfer(cluster, left, right)
        cluster.crash_shard(0)
        # Survivor's prepared branch was driven through phase 2.
        assert cluster.nodes[1].db.twopc.snapshot()["prepared_commits"] == 1
        cluster.restart_shard(0)
        cluster.recover_everything()
        resolved = cluster.nodes[0].db.twopc.snapshot()
        assert resolved["in_doubt_committed"] == 1
        assert balances(cluster, left, right) == (70, 130)
        # Every participant acked, so the decision entry was forgotten.
        assert cluster.twopc.decision_table(0) == {}


class TestParticipantCrash:
    def test_participant_in_doubt_commits_on_restart(self, cluster):
        """The coordinator committed (decision logged, its own branch in
        phase 2) but the participant died before moving its prepared
        chain: restart must find the decision and commit the branch."""
        left, right = load(cluster)
        # Visit 0 is the coordinator's own commit_prepared; visit 1 is
        # the participant's — crash exactly there.
        with chaos(crash_at("txn.commit-prepared.before-slb", after_visits=1)):
            with pytest.raises(SimulatedCrash):
                transfer(cluster, left, right)
        cluster.crash_shard(1)
        cluster.restart_shard(1)
        cluster.recover_everything()
        resolved = cluster.nodes[1].db.twopc.snapshot()
        assert resolved["in_doubt_found"] == 1
        assert resolved["in_doubt_committed"] == 1
        assert balances(cluster, left, right) == (70, 130)
        assert cluster.twopc.decision_table(0) == {}

    def test_whole_cluster_crash_resolves_with_coordinator_down(self, cluster):
        """Decision logged, then the whole cluster loses power.  The
        participant restarts *first*: its resolver reads the coordinator's
        decision table straight from stable memory while the coordinator
        node is still down."""
        left, right = load(cluster)
        with chaos(crash_at("shard.2pc.after-decision")):
            with pytest.raises(SimulatedCrash):
                transfer(cluster, left, right)
        cluster.crash()
        assert cluster.crashed_shards == [0, 1]
        # Participant first, coordinator still dark.
        cluster.restart_shard(1)
        cluster.nodes[1].recover_everything()
        assert cluster.nodes[1].db.twopc.snapshot()["in_doubt_committed"] == 1
        cluster.restart_shard(0)
        cluster.nodes[0].recover_everything()
        assert cluster.nodes[0].db.twopc.snapshot()["in_doubt_committed"] == 1
        assert balances(cluster, left, right) == (70, 130)
        assert cluster.twopc.decision_table(0) == {}


class TestMediaRestoreResolvesInDoubt:
    """A node that lost its checkpoint disk along with its memory comes
    back through the same sequence, in-doubt resolution included."""

    @pytest.mark.parametrize(
        "point,verdict,expected",
        [
            ("shard.2pc.before-decision", "abort", (100, 100)),
            ("shard.2pc.after-decision", "commit", (70, 130)),
        ],
    )
    def test_prepared_branch_resolved_like_restart(
        self, cluster, monkeypatch, point, verdict, expected
    ):
        left, right = load(cluster)
        with chaos(crash_at(point)):
            with pytest.raises(SimulatedCrash):
                transfer(cluster, left, right)
        cluster.crash()
        participant = cluster.nodes[1].db
        participant.checkpoint_disk.disk.destroy()
        resolver = participant.in_doubt_resolver
        acknowledged = []
        real_acknowledge = resolver.acknowledge
        monkeypatch.setattr(
            resolver,
            "acknowledge",
            lambda prepare, verdict: (
                acknowledged.append(verdict),
                real_acknowledge(prepare, verdict),
            ),
        )
        restore_after_checkpoint_media_failure(participant)
        assert participant.slb.prepared_txns() == []
        resolved = participant.twopc.snapshot()
        assert resolved["in_doubt_found"] == 1
        assert resolved["in_doubt_committed"] == (verdict == "commit")
        assert resolved["in_doubt_aborted"] == (verdict == "abort")
        assert acknowledged == [verdict]
        cluster.restart_shard(0)
        cluster.recover_everything()
        assert balances(cluster, left, right) == expected
        assert cluster.twopc.decision_table(0) == {}


class TestPrepareWindow:
    def test_crash_during_prepare_aborts_everywhere(self, cluster):
        """Dying inside a branch's prepare leaves at most a prepared
        chain on the first node and an active txn on the second; with no
        decision both resolve to abort."""
        left, right = load(cluster)
        with chaos(crash_at("txn.prepare.after-slb")):
            with pytest.raises(SimulatedCrash):
                transfer(cluster, left, right)
        cluster.crash()
        cluster.restart()
        cluster.recover_everything()
        totals = {
            sid: cluster.nodes[sid].db.twopc.snapshot() for sid in (0, 1)
        }
        assert totals[0]["in_doubt_aborted"] == 1
        # Node 1 never prepared — its branch was discarded as an
        # ordinary uncommitted transaction.
        assert totals[1]["in_doubt_found"] == 0
        assert balances(cluster, left, right) == (100, 100)


class TestDecisionTableLifecycle:
    def test_unacked_decision_survives_until_all_ack(self, cluster):
        left, right = load(cluster)
        with chaos(crash_at("txn.commit-prepared.before-slb", after_visits=1)):
            with pytest.raises(SimulatedCrash):
                transfer(cluster, left, right)
        # Coordinator acked its own branch; the dead participant has not.
        table = cluster.twopc.decision_table(0)
        assert len(table) == 1
        (entry,) = table.values()
        assert entry["verdict"] == "commit"
        assert entry["pending"] == [1]
        # Kill the participant first: the crash sweep cannot drive its
        # branch, so the entry must wait for that node's restart.
        cluster.crash_shard(1)
        assert cluster.twopc.decision_table(0) == table
        # Stable across the coordinator's own crash/restart.
        cluster.crash_shard(0)
        cluster.restart_shard(0)
        cluster.nodes[0].recover_everything()
        assert cluster.twopc.decision_table(0) == table
        # The participant's restart acks and clears it.
        cluster.crash_shard(1)
        cluster.restart_shard(1)
        cluster.nodes[1].recover_everything()
        assert cluster.twopc.decision_table(0) == {}
        assert balances(cluster, left, right) == (70, 130)

    def test_decisions_key_is_wellknown(self, cluster):
        assert (
            cluster.nodes[0].db.slb.get_well_known(DECISIONS_KEY) is None
        )
