"""Property-based tests on the WAL structures' core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, SystemConfig
from repro.common import EntityAddress, PartitionAddress
from repro.sim import StableMemory
from repro.storage import Partition
from repro.common.errors import LogError, StorageError
from repro.wal import (
    FieldPatch,
    HeapDelete,
    HeapPut,
    HeapReplace,
    IndexNodeFree,
    IndexNodeWrite,
    LogPage,
    StableLogBuffer,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
    decode_record,
)
from repro.wal.records import CommandBarrier, SweepMarker, replay_records
from repro.wal.slb import WELL_KNOWN_RESERVE

PADDR = PartitionAddress(3, 4)

OTHER = PartitionAddress(3, 5)


def record_strategy_over(offsets, handles):
    """All eleven REDO classes, for partition :data:`PADDR`, addressing
    the given entity offsets and heap handles."""
    header = (st.integers(1, 50), st.integers(0, 10))
    address = st.builds(EntityAddress, st.just(3), st.just(4), offsets)
    data = st.binary(max_size=64)
    return st.one_of(
        st.builds(TupleInsert, *header, address, data),
        st.builds(TupleUpdate, *header, address, data),
        st.builds(TupleDelete, *header, address),
        st.builds(FieldPatch, *header, address, st.integers(0, 100), st.binary(max_size=16)),
        st.builds(HeapPut, *header, st.just(PADDR), handles, data),
        st.builds(HeapReplace, *header, st.just(PADDR), handles, data),
        st.builds(HeapDelete, *header, st.just(PADDR), handles),
        st.builds(IndexNodeWrite, *header, address, data),
        st.builds(IndexNodeFree, *header, address),
        st.builds(CommandBarrier, *header, st.just(PADDR), st.integers(0, 9)),
        st.builds(SweepMarker, *header, st.just(PADDR), st.integers(0, 9)),
    )


record_strategy = record_strategy_over(st.integers(1, 1000), st.integers(1, 10_000))
#: Few addresses, all occupied to begin with, so sequences overwrite,
#: delete then reinsert, and patch or replace what an earlier record put
#: there — and now and then address something a delete took away.
colliding_records = st.lists(
    record_strategy_over(st.integers(1, 5), st.integers(1, 5)), max_size=30
).map(
    lambda records: [
        *(TupleInsert(1, 0, EntityAddress(3, 4, n), b"t" * 40) for n in range(1, 6)),
        *(HeapPut(1, 0, PADDR, n, b"h" * 8) for n in range(1, 6)),
        *records,
    ]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(record_strategy, max_size=30))
def test_log_page_roundtrip_property(records):
    """Any packed record sequence survives the page wire format."""
    page = LogPage(PADDR, records, embedded_directory=[1, 2, 3])
    decoded = LogPage.decode(page.encode())
    assert decoded.records == records
    assert decoded.embedded_directory == [1, 2, 3]
    assert decoded.partition == PADDR


def _outcome(run, partition):
    """What applying did: its result or the refusal, and the state left."""
    try:
        result = run(partition)
    except (LogError, StorageError) as exc:
        result = (type(exc), str(exc))
    return result, partition.to_bytes()


def _apply_decoded(body, partition):
    """The reference: build each record, then ``apply`` it."""
    count = pos = 0
    while pos < len(body):
        record, pos = decode_record(body, pos, partition.address)
        record.apply(partition)
        count += 1
    return count


@settings(max_examples=200, deadline=None)
@given(
    colliding_records,
    st.integers(0, 30),
    st.sampled_from(["whole", "truncated", "unknown-tag"]),
    st.integers(1, 12),
)
def test_replay_from_bytes_equals_decode_then_apply(records, repeated, damage, cut):
    """``replay_records`` over a compact body leaves the partition that
    decoding every record and applying it leaves, counts the same, and
    refuses the same malformed or inapplicable input at the same record."""
    # a crash may replay a prefix twice (page written but not yet noted)
    body = b"".join(r.encode(compact=True) for r in records[:repeated] + records)
    if damage == "truncated":
        body = body[:-cut]
    elif damage == "unknown-tag":
        body += b"\xff" * cut
    replayed = _outcome(lambda p: replay_records(body, p), Partition(PADDR, 64 * 1024))
    decoded = _outcome(lambda p: _apply_decoded(body, p), Partition(PADDR, 64 * 1024))
    assert replayed == decoded
    # and a page read back from disk goes the same way
    if damage == "whole":
        page = LogPage.decode(LogPage(PADDR, records[:repeated] + records).encode())
        assert _outcome(page.replay, Partition(PADDR, 64 * 1024)) == replayed


@settings(max_examples=40, deadline=None)
@given(colliding_records)
def test_page_of_another_partition_is_refused_before_any_record(records):
    """The owner check is made once per page, ahead of the first record."""
    built = LogPage(PADDR, records)
    for page in (built, LogPage.decode(built.encode())):
        other = Partition(OTHER, 64 * 1024)
        before = other.to_bytes()
        result, after = _outcome(page.replay, other)
        assert result[0] is LogError and "applied to" in result[1]
        assert after == before


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 12)), min_size=1, max_size=40
    )
)
def test_slb_commit_order_property(appends):
    """Records drain in commit order regardless of append interleaving."""
    slb = StableLogBuffer(
        StableMemory("slb", WELL_KNOWN_RESERVE + 1024 * 1024), block_size=128
    )
    open_txns: dict[int, int] = {}
    commit_sequence: list[int] = []
    sequence = 0
    expected: dict[int, list[int]] = {}
    for txn_id, count in appends:
        if txn_id not in open_txns:
            slb.open_chain(txn_id)
            open_txns[txn_id] = 0
            expected[txn_id] = []
        for _ in range(count):
            sequence += 1
            record = TupleInsert(
                txn_id, 0, EntityAddress(3, 4, sequence), b"p"
            )
            slb.append(txn_id, record)
            expected[txn_id].append(sequence)
    for txn_id in sorted(open_txns):
        slb.commit(txn_id)
        commit_sequence.append(txn_id)
    drained = slb.drain_committed()
    # grouped by transaction in commit order, in-order within each
    flat_expected = [
        offset for txn_id in commit_sequence for offset in expected[txn_id]
    ]
    assert [r.address.offset for r in drained] == flat_expected
    # all blocks freed once drained
    assert slb.used_blocks() == 0


@settings(max_examples=40, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete", "heap"]),
            st.integers(0, 30),
            st.binary(min_size=1, max_size=40),
        ),
        max_size=60,
    )
)
def test_partition_image_roundtrip_property(operations):
    """Checkpoint images reproduce any reachable partition state."""
    partition = Partition(PartitionAddress(1, 1), 64 * 1024)
    live_offsets: dict[int, int] = {}
    live_handles: list[int] = []
    for op, key, payload in operations:
        if op == "insert" and key not in live_offsets:
            live_offsets[key] = partition.insert(payload)
        elif op == "update" and key in live_offsets:
            partition.update(live_offsets[key], payload)
        elif op == "delete" and key in live_offsets:
            partition.delete(live_offsets.pop(key))
        elif op == "heap":
            live_handles.append(partition.heap.put(payload))
    restored = Partition.from_bytes(partition.to_bytes(), partition.address)
    assert list(restored.entities()) == list(partition.entities())
    assert restored.used_bytes == partition.used_bytes
    assert restored.next_offset == partition.next_offset
    for handle in live_handles:
        assert restored.heap.get(handle) == partition.heap.get(handle)
    # counters still aligned: the next operations agree
    assert restored.insert(b"post") == partition.insert(b"post")
    assert restored.heap.put(b"post") == partition.heap.put(b"post")


def test_slb_backpressure_stalls_and_recovers():
    """A tiny SLB forces the main CPU to stall while the recovery CPU
    drains — and the workload still completes correctly."""
    config = SystemConfig(
        slb_capacity=WELL_KNOWN_RESERVE + 8 * 1024,
        log_block_size=512,
        log_page_size=1024,
    )
    db = Database(config)
    rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
    # many small committed transactions, never pumped explicitly: their
    # chains pile up until the SLB fills and append_log must stall/drain
    for i in range(200):
        with db.transaction(pump=False) as txn:
            rel.insert(txn, {"id": i, "v": i})
    with db.transaction() as txn:
        assert rel.count(txn) == 200
    db.crash()
    db.restart()
    with db.transaction() as txn:
        assert db.table("t").count(txn) == 200
