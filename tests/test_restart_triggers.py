"""Each rebuild a restart makes names what started it.

``db.stats()["restart"]["partitions"]`` holds one record per rebuilt
partition; its ``trigger`` is one of
:data:`~repro.recovery.restart.TRIGGERS` — the catalog restore of phase 1,
a transaction's touch, the pump's background sweep, an explicit request,
or a command closure's replay — and ``phases`` sums the simulated seconds
of the rebuilds by trigger: which restores were on the critical path.
``restore_histogram`` counts the same rebuilds by their seconds.
"""

import pytest

from repro import Database, RecoveryMode, SystemConfig
from repro.recovery.restart import RESTORE_BOUNDS_MS, TRIGGERS

ROWS = 200


def loaded(**config):
    db = Database(SystemConfig(log_page_size=1024, **config))
    rel = db.create_relation("t", [("k", "int"), ("v", "int")], primary_key="k")
    with db.transaction() as txn:
        for key in range(ROWS):
            rel.insert(txn, {"k": key, "v": key})
    return db, rel


def restarted(db):
    db.crash()
    db.restart(RecoveryMode.ON_DEMAND)
    return db.restart_coordinator


def new_triggers(db, since):
    """The triggers of the rebuilds after the first ``since``."""
    return [entry["trigger"] for entry in db.stats()["restart"]["partitions"][since:]]


def rebuilt(db):
    return len(db.stats()["restart"]["partitions"])


def check_phases(db):
    restart = db.stats()["restart"]
    phases = restart["phases"]
    assert tuple(phases) == TRIGGERS
    for trigger in TRIGGERS:
        assert phases[trigger] == pytest.approx(
            sum(e["seconds"] for e in restart["partitions"] if e["trigger"] == trigger)
        )
    return phases


def test_phase_one_rebuilds_the_catalog():
    db, _ = loaded()
    restarted(db)
    triggers = new_triggers(db, 0)
    assert triggers and set(triggers) == {"catalog"}
    phases = check_phases(db)
    assert phases["catalog"] > 0
    # phase 1 also drains the SLB and rebuilds the catalog's maps
    assert phases["catalog"] < db.stats()["restart"]["catalog_restore_seconds"]
    assert sum(phases.values()) == phases["catalog"]


def test_a_transaction_touching_a_missing_partition():
    db, rel = loaded()
    restarted(db)
    before = rebuilt(db)
    with db.transaction() as txn:
        assert rel.lookup(txn, 7)["v"] == 7
    triggers = new_triggers(db, before)
    assert triggers and set(triggers) == {"touch"}
    assert check_phases(db)["touch"] > 0


def test_the_background_sweep():
    db, _ = loaded()
    coordinator = restarted(db)
    before = rebuilt(db)
    assert coordinator.background_step() is not None
    assert new_triggers(db, before) == ["background"]
    assert check_phases(db)["background"] > 0


@pytest.mark.parametrize("how", ["recover_everything", "predeclared"])
def test_an_explicit_request(how):
    db, rel = loaded()
    coordinator = restarted(db)
    before = rebuilt(db)
    if how == "recover_everything":
        coordinator.recover_everything()
        assert coordinator.fully_recovered
    else:
        with db.transaction(relations=["t"]) as txn:
            assert rel.lookup(txn, 7)["v"] == 7
    triggers = new_triggers(db, before)
    assert triggers and set(triggers) == {"explicit"}
    assert check_phases(db)["explicit"] > 0


def test_a_command_closure_replay():
    db, rel = loaded(logging_mode="command")

    def bump(txn, key):
        row = rel.lookup(txn, key)
        rel.update(txn, row.address, {"v": row["v"] + 1})

    db.register_script("bump", bump, relations=["t"])
    for key in range(10):
        db.run_script("bump", key)
    coordinator = restarted(db)
    assert coordinator.closures
    before = rebuilt(db)
    with db.transaction() as txn:
        assert rel.lookup(txn, 3)["v"] == 4
    triggers = new_triggers(db, before)
    # the relation's partitions and its primary index's, replayed whole
    assert len(triggers) >= 2 and set(triggers) == {"closure"}
    assert check_phases(db)["closure"] > 0
    # an interleaved closure is timed once, on its first record
    seconds = [entry["seconds"] for entry in db.stats()["restart"]["partitions"][before:]]
    assert seconds[0] > 0 and seconds[1:] == [0.0] * (len(seconds) - 1)


def test_the_restore_histogram_counts_every_rebuild_once():
    db, _ = loaded()
    coordinator = restarted(db)
    coordinator.recover_everything()
    restart = db.stats()["restart"]
    histogram = restart["restore_histogram"]
    assert list(histogram) == [f"{ms}ms" for ms in RESTORE_BOUNDS_MS] + ["inf"]
    assert sum(histogram.values()) == restart["partitions_recovered"] > 1
    # each record alone lands in the one bucket its seconds belong to
    bounds = [ms / 1000 for ms in RESTORE_BOUNDS_MS] + [float("inf")]
    records = restart["partitions"]
    for entry in records:
        coordinator.partitions = [entry]
        (bucket,) = [i for i, count in enumerate(coordinator.restore_histogram().values()) if count]
        assert entry["seconds"] <= bounds[bucket]
        assert bucket == 0 or entry["seconds"] > bounds[bucket - 1]
    coordinator.partitions = records


@pytest.mark.parametrize(
    "seconds,bucket",
    [(0.0, "1ms"), (0.001, "1ms"), (0.0011, "2ms"), (0.05, "50ms"), (0.5, "500ms"),
     (0.51, "inf"), (30.0, "inf")],
)
def test_a_rebuild_at_a_bound_counts_under_it(seconds, bucket):
    db, _ = loaded()
    coordinator = restarted(db)
    coordinator.partitions = [{"trigger": "explicit", "seconds": seconds}]
    histogram = coordinator.restore_histogram()
    assert histogram[bucket] == 1 and sum(histogram.values()) == 1
