"""``python -m repro`` — a guided demonstration of the recovery system.

Runs a debit/credit bank, crashes it, performs two-phase recovery, and
prints the status page at each stage.  A quick way to see the
whole system move without writing any code.
"""

from __future__ import annotations

import argparse

from repro import Database, RecoveryMode, SystemConfig
from repro.db.monitor import status_page
from repro.workloads import DebitCreditWorkload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Demonstrate the Lehman/Carey MM-DBMS recovery system.",
    )
    parser.add_argument(
        "--transactions", type=int, default=200,
        help="debit/credit transactions to run before the crash (default 200)",
    )
    parser.add_argument(
        "--accounts", type=int, default=500,
        help="accounts in the bank (default 500)",
    )
    parser.add_argument(
        "--eager", action="store_true",
        help="recover everything before the first transaction (full reload)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload random seed"
    )
    args = parser.parse_args(argv)

    config = SystemConfig(
        log_page_size=2048,
        update_count_threshold=200,
        log_window_pages=2048,
        log_window_grace_pages=64,
    )
    db = Database(config)
    workload = DebitCreditWorkload(
        db,
        branches=4,
        tellers_per_branch=5,
        accounts_per_branch=max(1, args.accounts // 4),
        skew_theta=0.8,
        seed=args.seed,
    )
    print(f"loading bank ({workload.accounts} accounts) and running "
          f"{args.transactions} debit/credit transactions...")
    workload.load()
    workload.run(args.transactions, delta=10)
    print()
    print(status_page(db.stats()))

    print("\n*** crash: main memory lost; stable RAM and disks survive ***\n")
    db.crash()
    mode = RecoveryMode.EAGER if args.eager else RecoveryMode.ON_DEMAND
    start = db.clock.now
    coordinator = db.restart(mode)
    with db.transaction(pump=False) as txn:
        row = db.table("account").lookup(txn, 0)
    first = db.clock.now - start
    print(f"restart mode: {mode.value}")
    print(f"first transaction completed {first * 1000:.1f} ms (simulated) "
          f"after the crash; account 0 balance = {row['balance']}")
    while not coordinator.fully_recovered:
        coordinator.background_step()
    print(f"background recovery finished at "
          f"{(db.clock.now - start) * 1000:.1f} ms\n")
    print(status_page(db.stats()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
