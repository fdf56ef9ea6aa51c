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
from repro.common.errors import NotResidentError
from repro.common.types import PartitionAddress
from repro.db.integrity import verify_integrity
from repro.index.linear_hash import LinearHashIndex
from repro.index.node_store import NodeStore
from repro.index.ttree import TTreeIndex
from repro.recovery.oracle import logical_digest
from repro.recovery.restart import RESTORE_BOUNDS_MS, TRIGGERS
from repro.sim.chaos import ChaosEngine, ChaosPlan, crash_restart_verify
from repro.storage.segment import Segment

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


# -- an index is restored partition by partition, as its probes reach them ------------------

#: Small partitions, so a few hundred keys spread each index over several.
SMALL = dict(log_page_size=1024, partition_size=4096)
KEYS = 600


def indexed(kind, **config):
    """A relation of ``KEYS`` rows under a ``kind`` primary index, and
    the index's descriptor."""
    db = Database(SystemConfig(**{**SMALL, **config}))
    rel = db.create_relation("t", [("k", "int"), ("v", "int")], primary_key="k",
                             primary_index=kind)
    with db.transaction() as txn:
        for key in range(KEYS):
            rel.insert(txn, {"k": key, "v": key})
    (name,) = db.catalog.relation("t").index_names
    return db, rel, db.catalog.index(name)


def partition_of(address):
    return PartitionAddress(address.segment, address.partition)


def store_trace(db, descriptor, operation):
    """Run ``operation`` with the index's store watched: the partitions of
    every component it loads, reads, writes or frees, and of every one it
    allocates."""
    store = db.index_object(descriptor, None).store
    reached, allocated = set(), set()

    def watch(name, into):
        method = getattr(store, name)

        def watched(address, *args, **kwargs):
            into.add(partition_of(address))
            return method(address, *args, **kwargs)

        setattr(store, name, watched)

    for name in ("load", "read", "write", "free"):
        watch(name, reached)
    allocate = store.allocate

    def watched_allocate(data):
        address = allocate(data)
        allocated.add(partition_of(address))
        return address

    store.allocate = watched_allocate
    try:
        operation()
    finally:
        for name in ("load", "read", "write", "free", "allocate"):
            delattr(store, name)
    return reached, allocated


def touch_rebuilds(db, since):
    """The partitions rebuilt for a touch among the events after the first
    ``since``."""
    return [
        entry["address"]
        for entry in list(db.events)[since:]
        if entry["event"] == "restart.rebuilt" and entry["trigger"] == "touch"
    ]


@pytest.mark.parametrize("kind", ["hash", "ttree"])
def test_a_probe_restores_only_the_index_partitions_it_reads(kind):
    """A primary-key lookup after an on-demand restart rebuilds the index
    partitions its probe reads — a hash index's anchor, directory chunk
    and bucket chain, a T-tree's root-to-leaf path — and the row's own
    partition, not the whole index segment."""
    key = 301
    db, rel, descriptor = indexed(kind)
    segment_id = descriptor.segment_id
    assert len(db.memory.segment(segment_id)) >= 4

    def probe():
        with db.transaction() as txn:
            return rel.lookup(txn, key)

    path, allocated = store_trace(db, descriptor, probe)
    row = probe()
    assert not allocated and 1 < len(path) < len(db.memory.segment(segment_id))
    if kind == "hash":
        assert partition_of(descriptor.anchor) in path
    restarted(db)
    since = len(db.events)
    assert probe() == row
    rebuilt_now = touch_rebuilds(db, since)
    assert sorted(rebuilt_now) == sorted(map(str, path | {partition_of(row.address)}))
    assert db.memory.segment(segment_id).missing_partitions()


def test_every_store_door_restores_a_missing_partition_first():
    """``NodeStore.load``, ``read``, ``write`` and ``free`` each reach a
    missing partition through ``restore`` before they read or change it;
    without one they raise ``NotResidentError``."""
    segment = Segment(1, "index", 4096)
    store = NodeStore(segment)
    addresses = [store.allocate(bytes([n]) * 1500) for n in range(4)]
    assert len({partition_of(a) for a in addresses}) == 4
    partitions = {p.address: p for p in segment.resident_partitions()}
    restored = []

    def restore(address):
        restored.append(address)
        segment.install(partitions[address])
        return partitions[address]

    segment.evict_all()
    with pytest.raises(NotResidentError):
        store.read(addresses[0])
    store = NodeStore(segment, restore=restore)
    assert store.load(addresses[0], lambda _, blob: blob) == bytes([0]) * 1500
    assert store.read(addresses[1]) == bytes([1]) * 1500
    store.write(addresses[2], b"new")
    assert partitions[partition_of(addresses[2])].read(addresses[2].offset) == b"new"
    store.free(addresses[3])
    assert addresses[3].offset not in dict(partitions[partition_of(addresses[3])].entities())
    assert restored == [partition_of(a) for a in addresses]
    assert segment.fully_resident


def _ttree_insert_rebalances(db, rel):
    with db.transaction() as txn:
        for key in range(KEYS, KEYS + 40):
            rel.insert(txn, {"k": key, "v": key})


def _ttree_delete_splices(db, rel):
    with db.transaction() as txn:
        for key in range(0, 60):
            rel.delete(txn, rel.lookup(txn, key).address)


def _hash_insert_splits(db, rel):
    with db.transaction() as txn:
        for key in range(KEYS, KEYS + 60):
            rel.insert(txn, {"k": key, "v": key})


#: Each index write: its index kind, and the methods (on their class) of
#: the structural change it must make.
INDEX_WRITES = {
    "ttree-insert-rebalances": (
        "ttree", _ttree_insert_rebalances, TTreeIndex, ("_rotate_left", "_rotate_right")
    ),
    "ttree-delete-splices": ("ttree", _ttree_delete_splices, NodeStore, ("free",)),
    "hash-insert-splits": ("hash", _hash_insert_splits, LinearHashIndex, ("_split_next",)),
}


def _counting(monkeypatch, owner, names):
    """Count calls of the methods ``names`` of class ``owner``."""
    calls = []
    for name in names:
        method = getattr(owner, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("write", list(INDEX_WRITES))
def test_an_index_write_restores_what_it_reaches_before_changing_it(write, monkeypatch):
    """An index write after an on-demand restart, with every partition it
    reads still missing, rebuilds each (by touch) before it changes it:
    after full recovery the database equals a twin that never crashed,
    and passes the integrity audit.  The partitions the write allocates
    in are restored up front, so both place new components alike."""
    kind, operation, owner, structural = INDEX_WRITES[write]
    twin, twin_rel, descriptor = indexed(kind)
    db, rel, _ = indexed(kind)
    calls = _counting(monkeypatch, owner, structural)
    reached, allocated = store_trace(twin, descriptor, lambda: operation(twin, twin_rel))
    assert calls, f"{write} made no {structural} change"
    left_missing = reached - allocated
    assert left_missing

    coordinator = restarted(db)
    coordinator.recover(a for a in coordinator._missing() if a not in left_missing)
    since = len(db.events)
    operation(db, rel)
    assert sorted(touch_rebuilds(db, since)) == sorted(map(str, left_missing))
    coordinator.recover_everything()
    assert logical_digest(db) == logical_digest(twin)
    assert verify_integrity(db) == []


@pytest.mark.parametrize("write", list(INDEX_WRITES))
def test_a_crash_inside_an_index_triggered_restore(write):
    """A crash at ``restart.phase2.partition-recovered`` in the rebuild an
    index write triggered — its partition the only one still missing —
    recovers to the digest the database had before the first crash."""
    kind, operation, _, _ = INDEX_WRITES[write]
    db, rel, descriptor = indexed(kind)
    expected = logical_digest(db)
    # the highest-numbered partition the write reads and allocates nothing in
    twin, twin_rel, _ = indexed(kind)
    reached, allocated = store_trace(twin, descriptor, lambda: operation(twin, twin_rel))
    target = max(reached - allocated)
    coordinator = restarted(db)
    coordinator.recover(a for a in coordinator._missing() if a != target)
    since = len(db.events)
    engine = ChaosEngine(ChaosPlan.crash_at(0, "restart.phase2.partition-recovered"))
    attempts = crash_restart_verify([db], lambda: operation(db, rel), engine,
                                    RecoveryMode.ON_DEMAND)
    assert attempts == 1 and [fire.point for fire in engine.fired] == [
        "restart.phase2.partition-recovered"
    ]
    assert touch_rebuilds(db, since)[0] == str(target)
    assert logical_digest(db) == expected
