"""Tests for the workload generators."""

import pytest

from repro import Database, SystemConfig
from repro.workloads import (
    DebitCreditWorkload,
    MixedWorkload,
    OperationMix,
    UniformPicker,
    ZipfPicker,
)


class TestDistributions:
    def test_uniform_covers_range(self):
        picker = UniformPicker(10, seed=1)
        seen = {picker.pick() for _ in range(500)}
        assert seen == set(range(10))

    def test_uniform_deterministic_per_seed(self):
        a = [UniformPicker(100, seed=7).pick() for _ in range(20)]
        b = [UniformPicker(100, seed=7).pick() for _ in range(20)]
        assert a == b

    def test_zipf_skews_to_low_ranks(self):
        picker = ZipfPicker(1000, theta=0.99, seed=3)
        picks = [picker.pick() for _ in range(3000)]
        hot = sum(1 for p in picks if p < 100)
        assert hot / len(picks) > 0.5  # top 10% absorbs most accesses

    def test_zipf_theta_zero_is_uniform(self):
        picker = ZipfPicker(10, theta=0.0, seed=5)
        seen = {picker.pick() for _ in range(500)}
        assert seen == set(range(10))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            UniformPicker(0)
        with pytest.raises(ValueError):
            ZipfPicker(0)
        with pytest.raises(ValueError):
            ZipfPicker(5, theta=-1)


class TestDebitCredit:
    @pytest.fixture()
    def workload(self):
        db = Database(SystemConfig(log_page_size=2048))
        wl = DebitCreditWorkload(
            db, branches=2, tellers_per_branch=2, accounts_per_branch=20, seed=1
        )
        wl.load()
        return wl

    def test_load_populates_bank(self, workload):
        with workload.db.transaction() as txn:
            assert workload.account_rel.count(txn) == 40
            assert workload.teller_rel.count(txn) == 4
            assert workload.branch_rel.count(txn) == 2

    def test_money_conservation(self, workload):
        initial = workload.total_balance()
        workload.run(25, delta=10)
        assert workload.total_balance() == initial + 25 * 10

    def test_history_appends(self, workload):
        workload.run(10)
        with workload.db.transaction() as txn:
            assert workload.history_rel.count(txn) == 10

    def test_conservation_across_crash(self, workload):
        from repro import RecoveryMode

        initial = workload.total_balance()
        workload.run(20, delta=5)
        db = workload.db
        db.crash()
        db.restart(RecoveryMode.EAGER)
        with db.transaction() as txn:
            total = sum(r["balance"] for r in db.table("account").scan(txn))
        assert total == initial + 20 * 5


class TestMixedWorkload:
    def test_runs_and_tracks_rows(self):
        db = Database(SystemConfig(log_page_size=2048))
        wl = MixedWorkload(db, initial_rows=50, ops_per_transaction=4, seed=2)
        wl.load()
        wl.run(20)
        assert wl.transactions_run == 20
        assert wl.operations_run == 80
        with db.transaction() as txn:
            assert wl.relation.count(txn) == wl.live_rows

    def test_insert_only_mix_grows(self):
        db = Database(SystemConfig(log_page_size=2048))
        wl = MixedWorkload(
            db,
            initial_rows=5,
            mix=OperationMix(update=0, insert=1, delete=0, lookup=0),
            seed=3,
        )
        wl.load()
        before = wl.live_rows
        wl.run(5)
        assert wl.live_rows == before + 5 * wl.ops_per_transaction

    def test_mix_normalisation(self):
        mix = OperationMix(update=2, insert=1, delete=1, lookup=0)
        weights = dict(mix.normalised())
        assert weights["update"] == pytest.approx(0.5)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_zero_mix_rejected(self):
        with pytest.raises(ValueError):
            OperationMix(0, 0, 0, 0).normalised()
