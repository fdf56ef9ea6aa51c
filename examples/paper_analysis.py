#!/usr/bin/env python3
"""Regenerate the paper's Section 3 analysis: Table 2 and Graphs 1-3 as
text, straight from the executable models.

Run:  python examples/paper_analysis.py
"""

from repro import SystemConfig
from repro.analysis import CheckpointModel, LoggingModel, table1_rows, table2_rows
from repro.wal.slt import INFO_BLOCK_BYTES

KILOBYTE = 1024


def bar(value: float, scale: float, width: int = 40) -> str:
    filled = int(min(1.0, value / scale) * width)
    return "#" * filled


def print_table1() -> None:
    print("=" * 72)
    print("Table 1 — variable conventions")
    print("=" * 72)
    for letter, meaning in table1_rows():
        print(f"  {letter:<3} {meaning}")


def print_table2() -> None:
    print("\n" + "=" * 72)
    print("Table 2 — parameters (calculated rows evaluated)")
    print("=" * 72)
    for row in table2_rows():
        print("  " + row.formatted())


def print_graph1() -> None:
    print("\n" + "=" * 72)
    print("Graph 1 — logging capacity (records/second) vs log record size")
    print("=" * 72)
    record_sizes = [8, 16, 24, 32, 48, 64]
    page_sizes = [2 * KILOBYTE, 4 * KILOBYTE, 8 * KILOBYTE, 16 * KILOBYTE]
    series = LoggingModel.graph1_series(record_sizes, page_sizes)
    header = f"{'record size':>12} " + "".join(
        f"{p // KILOBYTE:>9}KB" for p in page_sizes
    )
    print(header)
    for i, size in enumerate(record_sizes):
        cells = "".join(f"{series[p][i][1]:>11,.0f}" for p in page_sizes)
        print(f"{size:>10} B {cells}")
    peak = series[16 * KILOBYTE][0][1]
    print("\n  shape:")
    for size in record_sizes:
        rate = series[8 * KILOBYTE][record_sizes.index(size)][1]
        print(f"  {size:>4} B |{bar(rate, peak)} {rate:,.0f}")


def print_graph2() -> None:
    print("\n" + "=" * 72)
    print("Graph 2 — max transaction rate vs record size, by records/txn")
    print("=" * 72)
    record_sizes = [8, 16, 24, 32, 48, 64]
    per_txn = [2, 4, 10, 20]
    series = LoggingModel.graph2_series(record_sizes, per_txn)
    print(f"{'record size':>12} " + "".join(f"{n:>8}/txn" for n in per_txn))
    for i, size in enumerate(record_sizes):
        cells = "".join(f"{series[n][i][1]:>12,.0f}" for n in per_txn)
        print(f"{size:>10} B {cells}")
    headline = LoggingModel().transactions_per_second(4)
    print(
        f"\n  headline: {headline:,.0f} debit/credit transactions/second at "
        f"4 x 24B records (paper: 'approximately 4,000')"
    )


def print_graph3() -> None:
    print("\n" + "=" * 72)
    print("Graph 3 — checkpoint frequency vs logging rate")
    print("=" * 72)
    rates = [2000.0, 5000.0, 10000.0, 15000.0]
    scenarios = [(1000, 1.0), (1000, 0.6), (1000, 0.0), (2000, 1.0), (2000, 0.6)]
    series = CheckpointModel.graph3_series(rates, scenarios)
    print(f"{'scenario':>24} " + "".join(f"{int(r):>9}/s" for r in rates))
    for (update_count, fraction), points in series.items():
        label = f"N={update_count}, {fraction:.0%} by count"
        cells = "".join(f"{cps:>11.2f}" for _, cps in points)
        print(f"{label:>24} {cells}")
    model = CheckpointModel()
    overhead = model.overhead_fraction(1000, 10, 0.6)
    print(
        f"\n  overhead check: at 10 records/txn and 60% count-triggers, "
        f"checkpoint transactions are {overhead:.1%} of the load "
        f"(paper: ~1.5%)"
    )


def print_sizing() -> None:
    print("\n" + "=" * 72)
    print("Capacity plan — stable memory & log window (sections 2.3.3 / 3.3)")
    print("=" * 72)
    config = SystemConfig()
    model = LoggingModel()  # Table 2: 24-byte records, 8 KB pages, N_update 1000
    drain = model.records_per_second
    print(f"{'scenario':>34} {'SLT':>10} {'SLB':>10} {'window':>8} {'sat?':>5}")
    scenarios = [  # partitions, active ones, txn/s, records per txn
        ("small (1k parts, 50 active)", 1_000, 50, 500, 4),
        ("medium (10k parts, 200 active)", 10_000, 200, 1_000, 4),
        ("large (100k parts, 1k active)", 100_000, 1_000, 3_000, 4),
        ("over capacity (10 rec/txn)", 10_000, 200, 3_000, 10),
    ]
    for label, partitions, active, rate, per_txn in scenarios:
        # section 2.3.3: ~50 bytes per partition, a page buffer per active one
        slt = partitions * INFO_BLOCK_BYTES + active * model.log_page_size
        # ten open chains of at least a block each, plus the committed
        # backlog of one drain interval; doubled for headroom
        produced = rate * per_txn
        chains = 10 * max(per_txn * model.log_record_size, config.log_block_size)
        slb = int(2 * (chains + min(produced, drain) * model.log_record_size))
        # section 3.3: N_update records of window per active partition
        window = int(active * model.pages_per_checkpoint) + 1
        print(
            f"{label:>34} {slt / 1024 / 1024:>8.1f}MB "
            f"{slb / 1024:>8.0f}KB {window:>8} "
            f"{'YES' if produced > drain else 'no':>5}"
        )
    print(
        "\n  ('sat?' = workload produces log records faster than the 1-MIPS\n"
        "  recovery CPU can sort them — the bottleneck check of section 3.2;\n"
        "  sizes land in the paper's 'tens of megabytes' stable-RAM budget)"
    )


def main() -> None:
    print_table1()
    print_table2()
    print_graph1()
    print_graph2()
    print_graph3()
    print_sizing()


if __name__ == "__main__":
    main()
