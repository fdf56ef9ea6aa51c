"""The chaos sweep: crash at every registered point, recover, verify.

This is the tentpole robustness check — the paper's central claim is that
recovery is exact no matter when the system dies, so the sweep replays
a debit/credit workload once per (crash point, recovery mode) pair
through :func:`~repro.sim.chaos.crash_restart_verify`: it crashes at the
armed point, restarts (retrying when the crash lands inside restart
itself), and raises unless the recovered state is byte-identical to the
state committed at the crash.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.sim.chaos import (
    ChaosEngine,
    ChaosPlan,
    crash_restart_verify,
    registered_crash_points,
)
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


def crash_at(point, mode="on-demand"):
    """Crash a fresh replay at ``point``, recover in ``mode``, verify:
    the database, the engine and the restart attempts."""
    db, run = make_scenario()
    engine = ChaosEngine(ChaosPlan.crash_at(0, point))
    return db, engine, crash_restart_verify([db], run, engine, RecoveryMode(mode))


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
def test_sweep_all_points(mode):
    fired = set()
    for point in sorted(registered_crash_points()):
        _, engine, attempts = crash_at(point, mode)
        if engine.fired:
            fired.add(point)
            # Crash-during-recovery: restart-path points can only fire
            # during the recovery that follows the unconditional crash,
            # and each such crash must itself be recovered from.
            if point in RESTART_POINTS:
                assert attempts >= 2, point
    assert len(fired) >= MIN_FIRED_POINTS, (
        f"only {len(fired)} points fired in {mode} mode: {sorted(fired)}"
    )
    assert fired & RESTART_POINTS


def test_commit_boundary_points_split_exactly():
    """Crashing before the SLB list move loses the in-flight transaction;
    crashing after it keeps the transaction.  Both recover exactly."""
    before_db, before, _ = crash_at("txn.commit.before-slb")
    after_db, after, _ = crash_at("txn.commit.after-slb")
    assert before.fired and after.fired
    # the after-slb replay has durably committed one more transaction
    assert after_db.slb.commits == before_db.slb.commits + 1
