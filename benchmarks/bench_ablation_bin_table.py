"""Ablation — bin table residency (section 2.3.3).

Design choice under test: the paper keeps a small permanent information
block (~50 B) in the Stable Log Tail for *every* partition, and
allocates the large page buffer only while a partition is *active*.  The
alternatives bracketing it:

* an entry only for active partitions — less stable RAM, but the bin
  index allocator runs on every activation/deactivation;
* a permanent page buffer for every partition — no allocator traffic,
  but stable RAM scales with the whole database.

Measured: stable-RAM footprint and allocator activations for a database
of P partitions of which A are concurrently active, under the three
policies (the paper's hybrid computed from the real SLT, the two
alternatives analytically from the same constants).
"""

from repro.common import EntityAddress, PartitionAddress, SystemConfig
from repro.sim import StableMemory
from repro.wal import StableLogTail, TupleInsert
from repro.wal.slt import INFO_BLOCK_BYTES

TOTAL_PARTITIONS = 400
ACTIVE_PARTITIONS = 40
CHECKPOINT_CYCLES = 5


def run_hybrid() -> dict:
    """The paper's policy, measured on the real Stable Log Tail."""
    config = SystemConfig(log_page_size=2048)
    stable = StableMemory("slt", 64 * 1024 * 1024)
    slt = StableLogTail(stable, config)
    for p in range(TOTAL_PARTITIONS):
        slt.register_partition(PartitionAddress(1, p + 1))
    baseline = stable.used_bytes
    activations = 0
    for _ in range(CHECKPOINT_CYCLES):
        for p in range(ACTIVE_PARTITIONS):
            bin_index = slt.bin_index_of(PartitionAddress(1, p + 1))
            slt.deposit(
                TupleInsert(1, bin_index, EntityAddress(1, p + 1, 1), b"x" * 24).encode()
            )
            activations += 1
        peak = stable.used_bytes
        for p in range(ACTIVE_PARTITIONS):
            bin_index = slt.bin_index_of(PartitionAddress(1, p + 1))
            slt.reset_after_checkpoint(bin_index)
    return {
        "policy": "hybrid (paper)",
        "stable_bytes": peak,
        "baseline_bytes": baseline,
        "allocator_events": activations,  # page-buffer alloc/free per cycle
    }


def analytic_policies(config: SystemConfig) -> list[dict]:
    page = config.log_page_size
    return [
        {
            "policy": "active-only entries",
            "stable_bytes": ACTIVE_PARTITIONS * (INFO_BLOCK_BYTES + page),
            "baseline_bytes": 0,
            "allocator_events": 2 * ACTIVE_PARTITIONS * CHECKPOINT_CYCLES,
        },
        {
            "policy": "permanent everything",
            "stable_bytes": TOTAL_PARTITIONS * (INFO_BLOCK_BYTES + page),
            "baseline_bytes": TOTAL_PARTITIONS * (INFO_BLOCK_BYTES + page),
            "allocator_events": 0,
        },
    ]


def bench_ablation_bin_table(benchmark, report):
    config = SystemConfig(log_page_size=2048)
    hybrid = benchmark.pedantic(run_hybrid, rounds=1, iterations=1)
    rows = [hybrid] + analytic_policies(config)
    lines = [
        f"{'policy':>24} {'peak stable RAM':>16} {'idle stable RAM':>16} "
        f"{'allocator events':>17}"
    ]
    for row in rows:
        lines.append(
            f"{row['policy']:>24} {row['stable_bytes']:>13,} B "
            f"{row['baseline_bytes']:>13,} B {row['allocator_events']:>17,}"
        )
    lines.append("")
    lines.append(
        f"({TOTAL_PARTITIONS} partitions, {ACTIVE_PARTITIONS} active, "
        f"{CHECKPOINT_CYCLES} checkpoint cycles, "
        f"{config.log_page_size}B page buffers, {INFO_BLOCK_BYTES}B info blocks)"
    )
    report("Ablation — bin table residency (section 2.3.3)", lines)

    by_policy = {row["policy"]: row for row in rows}
    permanent = by_policy["permanent everything"]
    active_only = by_policy["active-only entries"]
    # the hybrid's peak sits between the two extremes
    assert active_only["stable_bytes"] < hybrid["stable_bytes"]
    assert hybrid["stable_bytes"] < permanent["stable_bytes"]
    # idle footprint: hybrid pays only info blocks (~50B per partition,
    # plus the SLT's fixed well-known area)
    info_total = TOTAL_PARTITIONS * INFO_BLOCK_BYTES
    assert info_total <= hybrid["baseline_bytes"] <= info_total + 32 * 1024
    assert hybrid["baseline_bytes"] < permanent["baseline_bytes"] / 10
    # and avoids the bin-index churn of the active-only policy: its
    # permanent info blocks mean indexes are never reallocated
    assert permanent["allocator_events"] == 0
