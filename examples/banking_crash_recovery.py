#!/usr/bin/env python3
"""Banking under fire: debit/credit traffic, a crash, and the two restart
strategies side by side.

This is the scenario that motivates the paper's partition-level recovery:
after a crash, a debit/credit transaction only needs *its* account,
teller and branch partitions — it should not wait for the history table
and every cold account to reload.

The script runs Gray's debit/credit workload, crashes the system, then
measures (in simulated 1987-hardware seconds):

* time until the first transaction can run under ON_DEMAND recovery
  (catalogs + touched partitions only), versus
* time until the first transaction under EAGER recovery (full reload —
  the Hagmann-style database-level baseline).

Run:  python examples/banking_crash_recovery.py
"""

from repro import Database, RecoveryMode, SystemConfig
from repro.workloads import DebitCreditWorkload


def build_and_run_bank(seed: int) -> tuple[Database, DebitCreditWorkload]:
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
        accounts_per_branch=250,
        skew_theta=0.8,  # hot accounts, like a real branch
        seed=seed,
    )
    workload.load()
    workload.run(300, delta=10)
    return db, workload


def main() -> None:
    print("loading bank and running 300 debit/credit transactions...")
    db, workload = build_and_run_bank(seed=42)
    expected_total = 4 * 250 * 1000 + 300 * 10
    print(f"  committed: {db.stats()['transactions_committed']} transactions")
    print(f"  checkpoints taken during normal processing: "
          f"{db.checkpoints.checkpoints_taken}")
    print(f"  log pages written: {db.log_disk.pages_written}")

    # ---- crash, recover on demand ----------------------------------------------
    db.crash()
    print("\n*** crash ***")
    start = db.clock.now
    db.restart(RecoveryMode.ON_DEMAND)
    catalogs_done = db.clock.now
    workload_account = 17
    with db.transaction(pump=False) as txn:
        row = db.table("account").lookup(txn, workload_account)
    first_txn_done = db.clock.now
    print("on-demand restart:")
    print(f"  catalogs ready after     {(catalogs_done - start) * 1000:9.2f} ms")
    print(f"  first lookup done after  {(first_txn_done - start) * 1000:9.2f} ms")
    print(f"  account {workload_account} balance: {row['balance']}")
    on_demand_first = first_txn_done - start

    # background recovery finishes the rest
    coordinator = db.restart_coordinator
    steps = 0
    while not coordinator.fully_recovered:
        coordinator.background_step()
        steps += 1
    background_done = db.clock.now
    print(f"  background recovery:     {steps} partitions, complete after "
          f"{(background_done - start) * 1000:9.2f} ms")
    with db.transaction() as txn:
        total = sum(r["balance"] for r in db.table("account").scan(txn))
    assert total == expected_total, (total, expected_total)
    print(f"  money conserved: total balance = {total}")

    # ---- same crash, full-reload baseline --------------------------------------------
    print("\nrebuilding identical bank for the full-reload baseline...")
    db2, _ = build_and_run_bank(seed=42)
    db2.crash()
    start2 = db2.clock.now
    db2.restart(RecoveryMode.EAGER)
    with db2.transaction(pump=False) as txn:
        db2.table("account").lookup(txn, workload_account)
    eager_first = db2.clock.now - start2
    print("full-reload restart:")
    print(f"  first lookup done after  {eager_first * 1000:9.2f} ms")

    print("\nsummary (simulated 1987 hardware):")
    print(f"  partition-level time-to-first-transaction: "
          f"{on_demand_first * 1000:9.2f} ms")
    print(f"  database-level  time-to-first-transaction: "
          f"{eager_first * 1000:9.2f} ms")
    print(f"  speedup: {eager_first / on_demand_first:6.1f}x")


if __name__ == "__main__":
    main()
