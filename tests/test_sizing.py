"""A database sized by the capacity plan runs the workload it was
planned for."""

from repro import Database, SystemConfig
from repro.workloads import MixedWorkload, OperationMix


class TestPlanIsSufficientInPractice:
    #: The section 2.3.3 / 3.3 sizes (examples/paper_analysis.py's
    #: arithmetic) for 20 partitions, 10 of them active, 100 txn/s of 10
    #: records, 4 open transactions, 1 KB pages and N_update 100.
    PLAN = {"slt_bytes": 11_240, "slb_bytes": 56_192, "log_window_pages": 24}

    def test_recommended_sizes_run_the_workload(self):
        """A database configured from the plan sustains the profiled
        workload without stable-memory exhaustion or aged checkpoints."""
        plan = self.PLAN
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
