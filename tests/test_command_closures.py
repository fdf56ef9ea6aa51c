"""One closure, three answers (docs/LOGGING.md).

A checkpoint of a partition whose relation has live commands escalates
to a copy of the commands' closure; restart replays a closure as one;
each command emits a barrier into every partition it declares.  For any
command sequence the three must name the same partitions, and those must
be the closure a brute-force fixpoint finds from the declarations.
"""

from hypothesis import given, settings, strategies as st

from repro import Database, RecoveryMode, SystemConfig
from repro.common.types import PartitionAddress
from repro.wal.records import split_by_owner

RELATIONS = ("a", "b", "c", "d")

declarations = st.lists(
    st.lists(st.sampled_from(RELATIONS), min_size=1, max_size=3, unique=True),
    min_size=1,
    max_size=6,
)


def build(declared, rows):
    """Four relations, ``d`` with a secondary index, loaded with
    ``rows[name]`` rows (small partitions, so some span several); one
    registered script per declared set, run command-logged in order.
    Returns the database and the barrier targets of each command."""
    db = Database(
        SystemConfig(
            partition_size=2048,
            log_page_size=1024,
            update_count_threshold=10_000,  # checkpoints only when asked for
            log_window_pages=256,
            log_window_grace_pages=0,
        )
    )
    for name in RELATIONS:
        relation = db.create_relation(
            name, [("id", "int"), ("v", "int"), ("pad", "str")], primary_key="id"
        )
        with db.transaction() as txn:
            for key in range(rows[name]):
                relation.insert(txn, {"id": key, "v": 0, "pad": "x" * 60})
    db.create_index("d_by_v", "d", "v")
    for names in {tuple(names) for names in declared}:

        def bump(txn, names=names):
            for name in names:
                relation = db.table(name)
                row = relation.lookup(txn, 0)
                relation.update(txn, row.address, {"v": row["v"] + 1})

        db.register_script("_".join(names), bump, relations=list(names))

    targets = []
    commit_command = db.slb.commit_command

    def spied(txn_id, build_records):
        def captured(csn):
            command, barriers = build_records(csn)
            targets.append(set(split_by_owner(b"".join(barriers))))
            return command, barriers

        return commit_command(txn_id, captured)

    db.slb.commit_command = spied
    for names in declared:
        db.run_script("_".join(names), logging="command", pump=False)
    db.slb.commit_command = commit_command
    return db, targets


def brute_force_closure(declared, relation):
    """Every relation reachable from ``relation`` through shared
    declarations, by fixpoint."""
    closure = {relation}
    grown = True
    while grown:
        grown = False
        for names in declared:
            if closure & set(names) and not set(names) <= closure:
                closure |= set(names)
                grown = True
    return closure


def partitions_of(db, relations):
    """Every catalogued partition of ``relations`` and of their indexes."""
    catalog = db.catalog
    descriptors = [
        *(catalog.relation(name) for name in relations),
        *(index for index in catalog.indexes() if index.relation_name in relations),
    ]
    return {
        PartitionAddress(descriptor.segment_id, number)
        for descriptor in descriptors
        for number in descriptor.partitions
    }


def resident(db):
    return {
        partition.address
        for segment in db.memory.segments()
        for partition in segment.resident_partitions()
    }


@settings(max_examples=12, deadline=None)
@given(
    declared=declarations,
    rows=st.fixed_dictionaries({name: st.integers(1, 45) for name in RELATIONS}),
    pick=st.integers(0, 3),
)
def test_escalation_replay_and_barriers_cover_one_closure(declared, rows, pick):
    db, targets = build(declared, rows)
    touched = sorted({name for names in declared for name in names})
    relation = touched[pick % len(touched)]
    closure = brute_force_closure(declared, relation)
    expected = partitions_of(db, closure)

    barriers = set().union(
        *(found for names, found in zip(declared, targets) if set(names) <= closure)
    )

    db.crash()
    coordinator = db.restart(RecoveryMode.ON_DEMAND)
    segment = db.catalog.relation(relation).segment_id
    before = resident(db)
    assert coordinator.replay_closure(segment)
    replayed = resident(db) - before

    copies = []
    copy = db.checkpoints.copy

    def spied(addresses, *args):
        copies.append(set(addresses))
        return copy(addresses, *args)

    db.checkpoints.copy = spied
    target = PartitionAddress(segment, min(db.catalog.relation(relation).partitions))
    bin_index = db.slt.bin_for_partition(target).bin_index
    db.slt.mark_for_checkpoint(bin_index, "test")
    db.checkpoint_queue.submit(target, bin_index, "test")
    assert db.checkpoints.process_pending() >= 1
    escalated = copies[0]

    assert escalated == replayed == barriers == expected
