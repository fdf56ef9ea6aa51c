#!/usr/bin/env python3
"""Losing the checkpoint disk: archive recovery from the full log history.

Section 2.6 notes the disk copy of the database is itself the archive
copy of the memory-resident primary — so what happens when *that* disk
dies?  Classical archive recovery: rebuild every partition from the
complete log history (the active log window plus the pages that slid off
it onto 'tape'), then cut fresh checkpoint images so ordinary crash
recovery works again.

Run:  python examples/media_failure.py
"""

from repro import Database, SystemConfig
from repro.db.monitor import status_page
from repro.recovery import restore_after_checkpoint_media_failure
from repro.workloads import DebitCreditWorkload


def main() -> None:
    config = SystemConfig(
        log_page_size=1024,
        update_count_threshold=100,
        log_window_pages=512,
        log_window_grace_pages=32,
    )
    db = Database(config)
    workload = DebitCreditWorkload(
        db, branches=2, tellers_per_branch=3, accounts_per_branch=60, seed=9
    )
    workload.load()
    workload.run(150, delta=10)
    expected_total = 2 * 60 * 1000 + 150 * 10
    print("bank loaded; 150 debit/credit transactions committed")
    print(f"checkpoints taken: {db.checkpoints.checkpoints_taken}")
    print(status_page(db.stats()))

    print("\n*** crash — AND the checkpoint disk is destroyed ***")
    db.crash()
    lost_images = db.checkpoint_disk.disk.destroy()
    print(f"checkpoint images lost: {lost_images}")

    totals = restore_after_checkpoint_media_failure(db)
    print("\narchive restore complete:")
    print(f"  partitions rebuilt from log history: {totals['partitions_rebuilt']}")
    print(f"  log pages scanned:                   {totals['pages_scanned']}")
    print(f"  records replayed:                    {totals['records_applied']}")

    with db.transaction() as txn:
        total = sum(row["balance"] for row in db.table("account").scan(txn))
    assert total == expected_total, (total, expected_total)
    print(f"  money conserved: total balance = {total}")

    # and the system is fully operational again, crash recovery included
    with db.transaction() as txn:
        account = db.table("account").lookup(txn, 0)
        db.table("account").update(
            txn, account.address, {"balance": account["balance"] + 1}
        )
    db.crash()
    db.restart()
    with db.transaction() as txn:
        print(
            "\nafter one more ordinary crash/restart, account 0 balance:",
            db.table("account").lookup(txn, 0)["balance"],
        )


if __name__ == "__main__":
    main()
