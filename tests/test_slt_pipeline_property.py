"""Property: the full SLT → log disk → rebuild pipeline is lossless.

Random committed record streams (varying sizes, multiple partitions) are
pushed through the real sorting/sealing/flushing machinery; rebuilding
each partition from its checkpoint-free log must equal applying the same
records directly.  This covers page-boundary effects, directory grouping,
and the compact page encoding in one sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.disk_queue import CheckpointDiskQueue
from repro.common import EntityAddress, PartitionAddress, SystemConfig
from repro.common.config import DiskParameters
from repro.recovery.redo import rebuild_partition_resilient
from repro.sim import DuplexedDisk, SimulatedDisk, StableMemory, VirtualClock
from repro.storage import Partition
from repro.wal import LogDisk, StableLogTail, TupleDelete, TupleInsert, TupleUpdate


def build_harness(directory_size):
    config = SystemConfig(
        log_page_size=256,
        log_directory_size=directory_size,
        log_window_pages=8192,
        log_window_grace_pages=64,
    )
    clock = VirtualClock()
    params = DiskParameters()
    log_disk = LogDisk(
        DuplexedDisk(
            SimulatedDisk("a", params, clock), SimulatedDisk("b", params, clock)
        ),
        window_pages=8192,
        grace_pages=64,
    )
    slt = StableLogTail(StableMemory("slt", 16 * 1024 * 1024), config)
    queue = CheckpointDiskQueue(SimulatedDisk("c", params, clock), 16)
    return config, slt, log_disk, queue


operation = st.tuples(
    st.integers(0, 2),  # partition choice
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(0, 40),  # key slot
    st.binary(min_size=1, max_size=90),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(operation, max_size=120), st.integers(1, 6))
def test_pipeline_rebuild_matches_direct_application(operations, directory_size):
    config, slt, log_disk, queue = build_harness(directory_size)
    partitions = [PartitionAddress(1, n + 1) for n in range(3)]
    bin_indexes = {p: slt.register_partition(p) for p in partitions}
    # reference partitions: direct application of the same operations
    reference = {p: Partition(p, config.partition_size) for p in partitions}
    offsets: dict[tuple[int, int], int] = {}
    next_offset: dict[int, int] = {0: 1, 1: 1, 2: 1}
    for part_idx, op, key, payload in operations:
        paddr = partitions[part_idx]
        ref = reference[paddr]
        slot = (part_idx, key)
        if op == "insert" and slot not in offsets:
            offset = next_offset[part_idx]
            next_offset[part_idx] += 1
            record = TupleInsert(
                1,
                bin_indexes[paddr],
                EntityAddress(paddr.segment, paddr.partition, offset),
                payload,
            )
            offsets[slot] = offset
        elif op == "update" and slot in offsets:
            record = TupleUpdate(
                1,
                bin_indexes[paddr],
                EntityAddress(paddr.segment, paddr.partition, offsets[slot]),
                payload,
            )
        elif op == "delete" and slot in offsets:
            record = TupleDelete(
                1,
                bin_indexes[paddr],
                EntityAddress(paddr.segment, paddr.partition, offsets[slot]),
            )
            del offsets[slot]
        else:
            continue
        record.apply(ref)
        # ... and through the real pipeline
        if slt.deposit(record):
            page = slt.seal_page(record.bin_index)
            lsn = log_disk.append_page(page)
            slt.note_page_written(record.bin_index, lsn)
    for paddr in partitions:
        rebuilt, _ = rebuild_partition_resilient(
            paddr, None, queue, log_disk, slt, config.partition_size
        )
        assert list(rebuilt.entities()) == list(reference[paddr].entities()), (
            f"{paddr} diverged (directory_size={directory_size})"
        )
        assert rebuilt.used_bytes == reference[paddr].used_bytes
