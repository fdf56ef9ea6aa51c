"""Ablation — commit protocol (section 1.2).

Design choice under test: REDO records go to stable RAM, so commit is
instant.  The rejected alternatives: synchronous WAL (force the log to
disk before releasing locks) and IMS FASTPATH group commit (precommit,
amortise the force over a group).

Reported: commit latency and maximum sustainable commit rate for the
three protocols at Table 2 parameters, plus the measured behaviour of the
real system (commit adds no log-disk I/O).
"""

from repro import Database
from repro.analysis import CommitProtocolModel


def bench_ablation_commit(benchmark, report):
    model = CommitProtocolModel()
    rows = benchmark(model.comparison, 1000.0)
    lines = [f"{'protocol':>20} {'commit latency':>15} {'max commit rate':>16}"]
    for row in rows:
        lines.append(
            f"{row['protocol']:>20} {row['commit_latency_s'] * 1000:>12.3f} ms "
            f"{row['max_commit_rate']:>13,.0f}/s"
        )
    # measured: the running system's commits force nothing to the log disk
    db = Database()
    rel = db.create_relation("t", [("id", "int")], primary_key="id")
    pages_before = db.log_disk.pages_written
    clock_before = db.clock.now
    with db.transactions.scope() as txn:
        rel.insert(txn, {"id": 1})
    commit_cost = db.clock.now - clock_before
    lines.append("")
    lines.append(
        f"measured (simulated system): one insert+commit took "
        f"{commit_cost * 1e6:.0f} us of simulated time and "
        f"{db.log_disk.pages_written - pages_before} log-disk writes"
    )
    report("Ablation — commit protocols (section 1.2)", lines)

    by_protocol = {row["protocol"]: row for row in rows}
    stable = by_protocol["stable-ram-instant"]
    group = by_protocol["group-commit"]
    sync = by_protocol["sync-wal"]
    # instant commit dominates on both axes
    assert stable["commit_latency_s"] < sync["commit_latency_s"] / 10
    assert stable["max_commit_rate"] > group["max_commit_rate"]
    # group commit trades latency for throughput over sync WAL
    assert group["max_commit_rate"] > sync["max_commit_rate"] * 10
    assert group["commit_latency_s"] > sync["commit_latency_s"]
    # and the real system's commit path touched no log disk
    assert db.log_disk.pages_written == pages_before
