"""Tests for the capacity-planning (sizing) model."""

import pytest

from repro import SystemConfig
from repro.analysis import LoggingModel, SizingModel, WorkloadProfile
from repro.wal.slt import INFO_BLOCK_BYTES


@pytest.fixture()
def model():
    return SizingModel(SystemConfig())


def profile(**kwargs):
    defaults = dict(
        total_partitions=1000,
        active_partitions=50,
        transactions_per_second=500,
    )
    defaults.update(kwargs)
    return WorkloadProfile(**defaults)


class TestSltSizing:
    def test_paper_formula(self, model):
        """50 bytes per partition + one page buffer per active partition."""
        p = profile()
        expected = 1000 * INFO_BLOCK_BYTES + 50 * 8192
        assert model.slt_bytes(p) == expected

    def test_grows_with_active_set(self, model):
        assert model.slt_bytes(profile(active_partitions=100)) > model.slt_bytes(
            profile(active_partitions=10)
        )

    def test_info_blocks_dominate_for_cold_databases(self, model):
        cold = profile(total_partitions=100_000, active_partitions=1)
        assert model.slt_bytes(cold) == pytest.approx(
            100_000 * INFO_BLOCK_BYTES, rel=0.1
        )


class TestSlbSizing:
    def test_scales_with_concurrency(self, model):
        few = profile(concurrent_transactions=2)
        many = profile(concurrent_transactions=200)
        assert model.slb_bytes(many) > model.slb_bytes(few)

    def test_headroom_multiplies(self, model):
        p = profile()
        assert model.slb_bytes(p, headroom=4.0) == pytest.approx(
            2 * model.slb_bytes(p, headroom=2.0)
        )

    def test_saturation_detection(self, model):
        capacity = LoggingModel().transactions_per_second(4)
        below = profile(transactions_per_second=capacity * 0.5)
        above = profile(transactions_per_second=capacity * 1.5)
        assert not model.slb_saturated(below)
        assert model.slb_saturated(above)


class TestWindowSizing:
    def test_paper_floor_formula(self, model):
        p = profile(active_partitions=100)
        pages_per_partition = 1000 * 24 / 8192
        assert model.minimum_log_window_pages(p) == int(100 * pages_per_partition) + 1

    def test_larger_threshold_needs_larger_window(self):
        small = SizingModel(SystemConfig(update_count_threshold=500))
        large = SizingModel(SystemConfig(update_count_threshold=2000))
        p = profile()
        assert large.minimum_log_window_pages(p) > small.minimum_log_window_pages(p)

    def test_recommend_bundle(self, model):
        plan = model.recommend(profile())
        assert set(plan) == {
            "slt_bytes",
            "slb_bytes",
            "log_window_pages",
            "recovery_cpu_saturated",
        }
        assert plan["slt_bytes"] > 0
        assert not plan["recovery_cpu_saturated"]


class TestPlanIsSufficientInPractice:
    def test_recommended_sizes_run_the_workload(self):
        """A database configured from the plan sustains the profiled
        workload without stable-memory exhaustion or aged checkpoints."""
        from repro import Database
        from repro.workloads import MixedWorkload, OperationMix

        base = SystemConfig(log_page_size=1024, update_count_threshold=100)
        sizing = SizingModel(base)
        p = WorkloadProfile(
            total_partitions=20,
            active_partitions=10,
            transactions_per_second=100,
            records_per_transaction=10,
            concurrent_transactions=4,
        )
        plan = sizing.recommend(p)
        config = SystemConfig(
            log_page_size=1024,
            update_count_threshold=100,
            slb_capacity=max(256 * 1024, plan["slb_bytes"] + 128 * 1024),
            slt_capacity=max(512 * 1024, plan["slt_bytes"] * 2),
            log_window_pages=max(64, plan["log_window_pages"] * 4),
            log_window_grace_pages=16,
        )
        db = Database(config)
        workload = MixedWorkload(
            db,
            initial_rows=200,
            mix=OperationMix(update=1.0, insert=0, delete=0, lookup=0),
            ops_per_transaction=10,
            seed=5,
        )
        workload.load()
        workload.run(100)
        assert db.stats()["transactions_committed"] >= 100
