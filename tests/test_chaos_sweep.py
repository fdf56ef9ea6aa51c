"""The chaos sweep: crash at every registered point, recover, verify.

This is the tentpole robustness check — the paper's central claim is that
recovery is exact no matter when the system dies, so the harness replays
a debit/credit workload once per (crash point, recovery mode) pair,
crashes at the armed point, restarts (retrying when the crash lands
inside restart itself), and asserts the recovered state is byte-identical
to the state committed at the crash (a verification failure raises).
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.sim.chaos import ChaosHarness, registered_crash_points
from repro.workloads.debit_credit import DebitCreditWorkload

#: Points that must fire somewhere in workload + restart for the sweep to
#: count as meaningful coverage (the ISSUE floor is 15).
MIN_FIRED_POINTS = 15

#: Points that can only fire while recovery itself is running.
RESTART_POINTS = {
    "restart.phase1.queue-reverted",
    "restart.phase1.log-drained",
    "restart.phase1.catalog-recovered",
    "restart.phase2.partition-recovered",
}



def sweep_config():
    return SystemConfig(
        log_page_size=512,
        update_count_threshold=16,
        log_window_pages=64,
        log_window_grace_pages=8,
    )


def make_scenario():
    """A loaded bank plus a workload runner sized so that page flushes,
    update-count checkpoints, acknowledgements, and archive pages all
    happen within the run."""
    db = Database(sweep_config())
    workload = DebitCreditWorkload(
        db,
        branches=2,
        tellers_per_branch=2,
        accounts_per_branch=25,
        seed=7,
    )
    workload.load()
    return db, lambda: workload.run(80)


@pytest.fixture(scope="module")
def harness():
    return ChaosHarness(make_scenario)


def test_registry_has_enough_points():
    points = registered_crash_points()
    assert len(points) >= 21
    assert RESTART_POINTS <= set(points)
    for name, description in points.items():
        assert description, f"{name} has no description"


def test_scenario_reaches_every_subsystem():
    """Sanity: the sweep scenario exercises flushes, checkpoints, and
    acknowledgements, so arming those points is meaningful."""
    db, run = make_scenario()
    run()
    assert db.recovery_processor.pages_flushed > 0
    assert db.checkpoints.checkpoints_taken > 0
    assert db.recovery_processor.archive_pages_written > 0


@pytest.mark.parametrize("mode", ["on-demand", "eager"])
def test_sweep_all_points(harness, mode):
    results = harness.sweep(modes=(mode,))
    fired = {run.point for run in results if run.fired}
    assert len(fired) >= MIN_FIRED_POINTS, (
        f"only {len(fired)} points fired in {mode} mode: {sorted(fired)}"
    )
    # Crash-during-recovery: restart-path points can only fire during the
    # recovery that follows the unconditional crash, and each such crash
    # must itself be recovered from.
    for run in results:
        if run.point in RESTART_POINTS and run.fired:
            assert run.nested_crashes >= 1, run.point
    assert {run.point for run in results if run.point in RESTART_POINTS and run.fired}


def test_commit_boundary_points_split_exactly(harness):
    """Crashing before the SLB list move loses the in-flight transaction;
    crashing after it keeps the transaction.  Both recover exactly."""
    before = harness.run_point("txn.commit.before-slb")
    after = harness.run_point("txn.commit.after-slb")
    assert before.fired and after.fired
    # the after-slb replay has durably committed one more transaction
    assert after.commits == before.commits + 1


def test_recovery_mode_is_resolved_not_guessed(harness):
    """A mode is a ``RecoveryMode`` value: a typo is refused instead of
    quietly sweeping on-demand, and the default sweep is every mode."""
    with pytest.raises(ValueError, match="egaer"):
        harness.run_point("txn.commit.before-slb", "egaer")
    runs = harness.sweep(points=["txn.commit.before-slb"])
    assert sorted(run.mode for run in runs) == sorted(m.value for m in RecoveryMode)
