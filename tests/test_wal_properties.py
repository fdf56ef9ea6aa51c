"""Property-based tests on the WAL structures' core invariants."""

import dataclasses
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, SystemConfig
from repro.common import EntityAddress, PartitionAddress
from repro.common.config import DiskParameters
from repro.sim import DuplexedDisk, SimulatedDisk, StableMemory, VirtualClock
from repro.storage import Partition
from repro.common.errors import LogError, StableMemoryFullError, StorageError
from repro.wal import (
    FieldPatch,
    HeapDelete,
    HeapPut,
    IndexNodeFree,
    IndexNodeWrite,
    LogDisk,
    LogPage,
    StableLogBuffer,
    StableLogTail,
    TupleDelete,
    TupleInsert,
    TupleUpdate,
)
from repro.wal.records import (
    CommandBarrier,
    SweepMarker,
    full_forms,
    replay_records,
    split_by_owner,
)
from repro.wal.slb import WELL_KNOWN_RESERVE
from tests import page_of, record_bytes
from tests.redo_model import model_apply

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
    page = page_of(PADDR, records, embedded_directory=[1, 2, 3])
    decoded = LogPage.decode(page.encode())
    assert decoded.body == b"".join(r.encode(compact=True) for r in records)
    assert decoded.embedded_directory == [1, 2, 3]
    assert decoded.partition == PADDR


OWNERS = st.sampled_from([PADDR, OTHER, PartitionAddress(0, 9)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(OWNERS, record_strategy), max_size=40))
def test_archive_split_undoes_full_forms_property(owned):
    """A mixed archive body — the full forms of several partitions'
    compact bodies, interleaved — splits back into each original body."""
    bodies: dict[PartitionAddress, bytes] = {}
    for owner, record in owned:
        bodies[owner] = bodies.get(owner, b"") + record.encode(compact=True)
    forms = {owner: iter(full_forms(body, owner)) for owner, body in bodies.items()}
    mixed = b"".join(next(forms[owner]) for owner, _ in owned)
    assert split_by_owner(mixed) == bodies
    # the records' own owner is PADDR: there a full form is the encoding
    assert [full for (owner, _), full in zip(owned, record_bytes(mixed, full=True)) if owner == PADDR] == [
        record.encode() for owner, record in owned if owner == PADDR
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(record_strategy, max_size=40))
def test_bin_bytes_are_the_page_body_property(records):
    """A bin sorts records straight into its partition's next page body:
    every sealed page carries the bin's bytes as they stood, the disk
    gives the same body back, and a checkpoint's reset returns the
    bytes of the records deposited since the last page."""
    slt = StableLogTail(StableMemory("slt", 1024 * 1024), SystemConfig(log_page_size=256))
    clock = VirtualClock()
    spindles = [SimulatedDisk(name, DiskParameters(), clock) for name in "ab"]
    log_disk = LogDisk(DuplexedDisk(*spindles), window_pages=1024, grace_pages=8)
    bin_index = slt.register_partition(PADDR)
    pending = []
    for record in (dataclasses.replace(r, bin_index=bin_index) for r in records):
        pending.append(record)
        if not slt.deposit(record.encode()):
            continue
        buffered = bytes(slt.bin(bin_index).buffer)
        assert buffered == b"".join(r.encode(compact=True) for r in pending)
        page = slt.seal_page(bin_index)
        assert page.body == buffered
        lsn = log_disk.append_page(page)
        slt.note_page_written(bin_index, lsn)
        assert log_disk.read_page(lsn, expected=PADDR).body == buffered
        assert slt.bin(bin_index).buffer == b"" and slt.bin(bin_index).buffer_bytes == 0
        pending = []
    assert slt.reset_after_checkpoint(bin_index) == b"".join(
        r.encode(compact=True) for r in pending
    )


def _outcome(run, partition):
    """What applying did: its result or the refusal, and the state left."""
    try:
        result = run(partition)
    except (LogError, StorageError) as exc:
        result = (type(exc), str(exc))
    return result, partition.to_bytes()


def _apply_objects(logged, body, partition):
    """The reference: each record through the reference model
    (``tests/redo_model.py``), in order, for the records ``body`` holds
    whole — then the refusal of what is left, a cut record or bytes no
    record class claims."""
    pos = 0
    for count, record in enumerate(logged):
        encoded = record.encode(compact=True)
        if pos == len(body):
            return count
        if pos + len(encoded) > len(body):
            fixed = len(encoded) - len(getattr(record, "data", b""))
            name = type(record).__name__
            if pos + fixed > len(body):
                raise LogError(f"truncated {name} record at {pos}")
            raise LogError(f"truncated {name} data at {pos + fixed}")
        model_apply(partition, record)
        pos += len(encoded)
    if pos < len(body):
        raise LogError(f"unknown log record tag {body[pos]} at {pos}")
    return len(logged)


def _stepped(replay, stops):
    """Run a cursor ``replay(partition, start, until)`` halt by halt
    through ``stops`` — each ``(tag, value)`` resumed where the last one
    halted — then to the end.  Succeeding returns ``None``."""

    def run(partition):
        position = 0
        for stop in stops:
            _, halt = replay(partition, position, stop)
            if halt is None:
                return None
            position = halt
        replay(partition, position, None)
        return None

    return run


@settings(max_examples=200, deadline=None)
@given(
    colliding_records,
    st.integers(0, 30),
    st.sampled_from(["whole", "truncated", "unknown-tag"]),
    st.integers(1, 12),
    st.lists(
        st.tuples(st.sampled_from([CommandBarrier.TAG, SweepMarker.TAG]), st.integers(0, 9)),
        max_size=12,
    ),
)
def test_replay_from_bytes_equals_decode_then_apply(records, repeated, damage, cut, stops):
    """``replay_records`` over a compact body leaves the partition that
    the reference model leaves applying each encoded record, counts the
    same, and refuses the same malformed or inapplicable input at the
    same record.
    As a cursor — halted at barriers and sweep markers, resumed from each
    halt — it walks the same records in the same order, so it leaves the
    same partition and refuses at the same record, whether the damage
    lies before or after a halt."""
    # a crash may replay a prefix twice (page written but not yet noted)
    logged = records[:repeated] + records
    body = b"".join(r.encode(compact=True) for r in logged)
    if damage == "truncated":
        body = body[:-cut]
    elif damage == "unknown-tag":
        body += b"\xff" * cut
    replayed = _outcome(lambda p: replay_records(body, p)[0], Partition(PADDR, 64 * 1024))
    decoded = _outcome(lambda p: _apply_objects(logged, body, p), Partition(PADDR, 64 * 1024))
    assert replayed == decoded
    refused = decoded[0] if isinstance(decoded[0], tuple) else None
    cursor = _stepped(lambda p, start, until: replay_records(body, p, start, until), stops)
    assert _outcome(cursor, Partition(PADDR, 64 * 1024)) == (refused, decoded[1])
    # and a page read back from disk goes the same way, as does the
    # page built from the records
    if damage == "whole":
        built = page_of(PADDR, logged)
        page = LogPage.decode(built.encode())
        assert _outcome(lambda p: page.replay(p)[0], Partition(PADDR, 64 * 1024)) == replayed
        for each in (page, built):
            assert _outcome(_stepped(each.replay, stops), Partition(PADDR, 64 * 1024)) == (
                refused,
                decoded[1],
            )


@settings(max_examples=40, deadline=None)
@given(colliding_records)
def test_page_of_another_partition_is_refused_before_any_record(records):
    """The owner check is made once per page, ahead of the first record."""
    built = page_of(PADDR, records)
    for page in (built, LogPage.decode(built.encode())):
        other = Partition(OTHER, 64 * 1024)
        before = other.to_bytes()
        result, after = _outcome(page.replay, other)
        assert result[0] is LogError and "applied to" in result[1]
        assert after == before


#: A small partition's records (its heap holds 140 bytes, 112 of them
#: taken) over a few keys, on top of short tuples and strings: half of
#: them put 40 bytes or more at a handle, so re-puts overflow the heap,
#: which a replay allows (it puts back what was there); patches run past
#: the tuples, updates and patches find entities and handles a delete
#: took away or never put there.
TIGHT = 560
_grow = (st.just(1), st.just(0), st.just(PADDR), st.integers(1, 5), st.binary(min_size=40))
_growing = st.builds(HeapPut, *_grow)
tight_records = st.lists(
    st.one_of(record_strategy_over(st.integers(1, 7), st.integers(1, 7)), _growing),
    max_size=40,
).map(
    lambda records: [
        *(TupleInsert(1, 0, EntityAddress(3, 4, n), b"t" * 4 * n) for n in range(1, 5)),
        *(HeapPut(1, 0, PADDR, n, b"h" * 8 * n) for n in range(1, 5)),
        *records,
    ]
)


def _fields(run, partition):
    """What applying did, field by field: its result or the refusal's
    type and message; the entities, the strings, both byte tallies, the
    next offset and the handle counter."""
    try:
        result = run(partition)
    except (LogError, StorageError) as exc:
        result = (type(exc), str(exc))
    heap = partition.heap
    return result, (
        dict(partition.entities()),
        {handle: heap.get(handle) for handle in heap.handles()},
        partition.used_bytes,
        partition.next_offset,
        heap.used_bytes,
        struct.unpack_from("<I", heap.to_bytes())[0],  # the image's next handle
    )


def _each(apply, logged):
    def run(partition):
        for record in logged:
            apply(partition, record)
        return len(logged)

    return run


@settings(max_examples=300, deadline=None)
@given(
    tight_records,
    st.integers(0, 40),
    st.sampled_from(["whole", "truncated", "unknown-tag"]),
    st.integers(1, 12),
    st.lists(
        st.tuples(st.sampled_from([CommandBarrier.TAG, SweepMarker.TAG]), st.integers(0, 9)),
        max_size=12,
    ),
)
def test_applier_matches_the_reference_model(records, repeated, damage, cut, stops):
    """The one applier against the per-class model, on a stream with a
    duplicate replay prefix, perhaps a damaged tail, walked whole or as a
    cursor halting at markers: the same fields after it, the same
    refusal at the same record.  Record objects applied one by one — the
    UNDO path — match the model too."""
    logged = records[:repeated] + records
    body = b"".join(r.encode(compact=True) for r in logged)
    if damage == "truncated":
        body = body[:-cut]
    elif damage == "unknown-tag":
        body += b"\xff" * cut
    model = _fields(lambda p: _apply_objects(logged, body, p), Partition(PADDR, TIGHT))
    assert _fields(lambda p: replay_records(body, p)[0], Partition(PADDR, TIGHT)) == model
    refused = model[0] if isinstance(model[0], tuple) else None
    cursor = _stepped(lambda p, start, until: replay_records(body, p, start, until), stops)
    assert _fields(cursor, Partition(PADDR, TIGHT)) == (refused, model[1])
    undo = _fields(_each(lambda p, r: r.apply(p), logged), Partition(PADDR, TIGHT))
    assert undo == _fields(_each(model_apply, logged), Partition(PADDR, TIGHT))


def test_a_duplicate_heap_put_replays_onto_an_over_full_heap():
    """A heap an aborted delete's UNDO left past its capacity takes a
    replayed ``HeapPut`` it already holds — or one that grows the string
    — as the entity area takes a replayed insert: uncapped, as the model
    does, by the page path and the UNDO path alike."""

    def over_full():
        partition = Partition(PADDR, TIGHT)
        for handle in (1, 2):
            partition.heap.put_at(handle, b"h" * 100)
        assert partition.heap.used_bytes > partition.heap.capacity_bytes
        assert partition.heap.free_bytes == 0
        return partition

    logged = [HeapPut(1, 0, PADDR, 1, b"h" * 100), HeapPut(1, 0, PADDR, 2, b"g" * 120)]
    body = b"".join(r.encode(compact=True) for r in logged)
    model = _fields(_each(model_apply, logged), over_full())
    assert model[0] == 2
    assert _fields(lambda p: replay_records(body, p)[0], over_full()) == model
    assert _fields(_each(lambda p, r: r.apply(p), logged), over_full()) == model


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
            record = TupleInsert(txn_id, 0, EntityAddress(3, 4, sequence), b"p").encode()
            slb.append(txn_id, record)
            expected[txn_id].append(record)
    for txn_id in sorted(open_txns):
        slb.commit(txn_id)
        commit_sequence.append(txn_id)
    drained = slb.drain_committed()
    # grouped by transaction in commit order, in-order within each
    assert drained == [
        record for txn_id in commit_sequence for record in expected[txn_id]
    ]
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
    restored = Partition.from_bytes(
        partition.to_bytes(), partition.address, partition.capacity_bytes
    )
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
        slb_capacity=WELL_KNOWN_RESERVE + 10 * 1024,
        log_block_size=512,
        log_page_size=1024,
    )
    db = Database(config)
    rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
    refusals = 0
    append = db.slb.append

    def counted(txn_id, record):
        nonlocal refusals
        try:
            append(txn_id, record)
        except StableMemoryFullError:
            refusals += 1  # _redo drains, then retries
            raise

    db.slb.append = counted
    # many small committed transactions, never pumped explicitly: their
    # chains pile up until the SLB fills and _redo must stall/drain
    for i in range(200):
        with db.transaction(pump=False) as txn:
            rel.insert(txn, {"id": i, "v": i})
    assert refusals >= 1
    with db.transaction() as txn:
        assert rel.count(txn) == 200
    db.crash()
    db.restart()
    with db.transaction() as txn:
        assert db.table("t").count(txn) == 200
