"""Ablation — the log page directory (sections 2.3.3 / 2.5.1).

Design choice under test: each partition bin keeps a directory of log
page LSNs, embedded into every Nth page, so recovery can read pages in
the order they were written.  The alternative the paper rejects is a
single backwards-linked chain, which forces reading *every* page before
the first record can be applied.

Measured here on the real structures: the number of reads needed before
forward streaming can begin ("backward reads"), as a function of the
directory size N, for a partition with a fixed number of log pages.
The paper's claim — about ``#pages / N`` — must hold, and a directory
sized at the page count must give zero.
"""

from repro.common import EntityAddress, PartitionAddress, SystemConfig
from repro.common.config import DiskParameters
from repro.recovery.redo import enumerate_log_pages
from repro.sim import DuplexedDisk, SimulatedDisk, StableMemory, VirtualClock
from repro.wal import LogDisk, StableLogTail, TupleInsert

PADDR = PartitionAddress(1, 1)
LOG_PAGES = 24
DIRECTORY_SIZES = [1, 2, 4, 8, 16, 24, 32]


def pump(directory_size: int) -> tuple[int, float]:
    """Write LOG_PAGES pages under one directory size; return
    (backward_reads, simulated_seconds_spent_walking)."""
    config = SystemConfig(
        log_page_size=256,
        log_directory_size=directory_size,
        log_window_pages=4096,
        log_window_grace_pages=64,
    )
    clock = VirtualClock()
    params = DiskParameters()
    log_disk = LogDisk(
        DuplexedDisk(
            SimulatedDisk("a", params, clock), SimulatedDisk("b", params, clock)
        ),
        window_pages=4096,
        grace_pages=64,
    )
    slt = StableLogTail(StableMemory("slt", 4 * 1024 * 1024), config)
    bin_index = slt.register_partition(PADDR)
    offset = 1
    for _ in range(LOG_PAGES):
        while True:
            record = TupleInsert(1, bin_index, EntityAddress(1, 1, offset), b"x" * 60).encode()
            offset += 1
            if slt.deposit(record):
                break
        page = slt.seal_page(bin_index)
        slt.note_page_written(bin_index, log_disk.append_page(page))
    walk_start = clock.now
    lsns, _, backward = enumerate_log_pages(slt.bin(bin_index), log_disk)
    assert lsns == list(range(LOG_PAGES))
    return backward, clock.now - walk_start


def bench_ablation_directory(benchmark, report):
    results = benchmark.pedantic(
        lambda: [(n, *pump(n)) for n in DIRECTORY_SIZES], rounds=1, iterations=1
    )
    lines = [
        f"{'directory N':>12} {'backward reads':>15} {'walk time':>11} "
        f"{'~pages/N':>9}"
    ]
    for n, backward, seconds in results:
        lines.append(
            f"{n:>12} {backward:>15} {seconds * 1000:>8.1f} ms "
            f"{LOG_PAGES / n:>9.1f}"
        )
    lines.append("")
    lines.append(
        f"(N=1 degenerates to the rejected backwards chain: every page "
        f"read before replay can start; N>={LOG_PAGES} reads pages "
        f"directly in write order)"
    )
    report(
        "Ablation — log page directory size (sections 2.3.3 / 2.5.1)", lines
    )
    backward_by_n = {n: backward for n, backward, _ in results}
    # the paper's #pages/N shape (within one group)
    for n in DIRECTORY_SIZES:
        assert abs(backward_by_n[n] - (LOG_PAGES - 1) // n) <= 1
    # chain-like behaviour at N=1, free at N>=pages
    assert backward_by_n[1] == LOG_PAGES - 1
    assert backward_by_n[24] == 0
    assert backward_by_n[32] == 0
    # monotone: larger directories never walk more
    ordered = [backward_by_n[n] for n in DIRECTORY_SIZES]
    assert ordered == sorted(ordered, reverse=True)
