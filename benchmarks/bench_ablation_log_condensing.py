"""Ablation — condensing the log (section 2.3.3, point 3).

"Redundant address information may be stripped from the log records
before they are written to disk, thereby condensing the log."  Grouping
records by partition in the Stable Log Tail is what makes this possible:
a dedicated page's header names the partition once for every record on
it.

Measured on a real committed log stream: bytes per record in the full
wire format vs on dedicated pages, and the resulting log-disk savings.
"""

from repro import Database, SystemConfig
from repro.wal.log_disk import ARCHIVE_SEGMENT
from repro.wal.records import full_forms


def drive() -> dict:
    db = Database(SystemConfig(log_page_size=2048))
    rel = db.create_relation("t", [("id", "int"), ("v", "int")], primary_key="id")
    addrs = {}
    with db.transaction() as txn:
        for i in range(100):
            addrs[i] = rel.insert(txn, {"id": i, "v": 0})
    for round_ in range(10):
        with db.transaction(pump=False) as txn:
            for i in range(100):
                rel.update(txn, addrs[i], {"v": round_})
    db.recovery_processor.run_until_drained()
    full_bytes = 0
    compact_bytes = 0
    records = 0
    for lsn in db.log_disk.all_lsns():
        page = db.log_disk.read_page(lsn)
        if page.partition.segment in (ARCHIVE_SEGMENT, -2):
            continue
        full = full_forms(page.body, page.partition)
        full_bytes += sum(map(len, full))
        compact_bytes += len(page.body)
        records += len(full)
    return {
        "records": records,
        "full_bytes": full_bytes,
        "compact_bytes": compact_bytes,
        "savings": 1 - compact_bytes / full_bytes if full_bytes else 0.0,
    }


def bench_ablation_log_condensing(benchmark, report):
    result = benchmark.pedantic(drive, rounds=1, iterations=1)
    lines = [
        f"records on dedicated pages:   {result['records']:,}",
        f"full wire format:             {result['full_bytes']:,} bytes "
        f"({result['full_bytes'] / result['records']:.1f} B/record)",
        f"condensed (as written):       {result['compact_bytes']:,} bytes "
        f"({result['compact_bytes'] / result['records']:.1f} B/record)",
        f"log-disk savings:             {result['savings']:.1%}",
    ]
    report("Ablation — log condensing (section 2.3.3 point 3)", lines)
    assert result["records"] > 500
    # exactly 8 bytes of partition address stripped per record
    assert result["full_bytes"] - result["compact_bytes"] == 8 * result["records"]
    # double-digit savings at Table 2-ish record sizes
    assert result["savings"] > 0.10
