#!/usr/bin/env python3
"""Contended transfers: interleaved transactions, no-wait 2PL, retries.

The Stable Log Buffer removes the log-tail hot spot (each transaction
logs into its own block chain), so the remaining contention is honest
data contention: two transfers touching the same account collide on its
tuple lock.  The scheduler interleaves transfer scripts — round-robin on
the default engine — rolling back and retrying the loser of every
conflict, and the bank's money is conserved throughout — and through a
crash at the end.

Run:  python examples/concurrent_transfers.py
"""

import random

from repro import Database, RecoveryMode, SystemConfig
from repro.txn import Scheduler


def main() -> None:
    db = Database(SystemConfig(log_page_size=2048))
    accounts = db.create_relation(
        "accounts", [("id", "int"), ("balance", "int")], primary_key="id"
    )
    n_accounts = 10
    with db.transaction() as txn:
        for i in range(n_accounts):
            accounts.insert(txn, {"id": i, "balance": 1000})

    def make_transfer(src: int, dst: int, amount: int):
        def script(txn):
            row = db.table("accounts").lookup(txn, src)
            yield  # interleave point: another script may run here
            accounts.update(txn, row.address, {"balance": row["balance"] - amount})
            yield
            row2 = db.table("accounts").lookup(txn, dst)
            yield
            accounts.update(txn, row2.address, {"balance": row2["balance"] + amount})

        return script

    rng = random.Random(13)
    scheduler = Scheduler(db, max_attempts=50)
    transfers = 40
    for k in range(transfers):
        src = rng.randrange(n_accounts)
        dst = (src + rng.randrange(1, n_accounts)) % n_accounts
        scheduler.submit(make_transfer(src, dst, rng.randrange(1, 50)), name=f"t{k}")

    results = scheduler.run()
    committed = sum(1 for r in results if r.committed)
    retried = sum(1 for r in results if r.attempts > 1)
    print(f"{transfers} transfer scripts interleaved:")
    print(f"  committed:            {committed}")
    print(f"  lock conflicts seen:  {scheduler.conflicts}")
    print(f"  scripts that retried: {retried}")
    print(f"  max attempts needed:  {max(r.attempts for r in results)}")

    with db.transaction() as txn:
        total = sum(r["balance"] for r in accounts.scan(txn))
    print(f"  total money:          {total} (expected {n_accounts * 1000})")
    assert total == n_accounts * 1000

    db.crash()
    db.restart(RecoveryMode.EAGER)
    with db.transaction() as txn:
        total = sum(r["balance"] for r in db.table("accounts").scan(txn))
    print(f"  total after crash:    {total}")
    assert total == n_accounts * 1000
    print("serialisable under contention, durable through the crash")


if __name__ == "__main__":
    main()
