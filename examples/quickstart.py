#!/usr/bin/env python3
"""Quickstart: create a database, run transactions, crash it, recover.

Demonstrates the public API end to end:

* DDL — relations with int/str fields, hash and T-Tree indexes;
* DML — insert / update / delete / lookup / scan inside transactions;
* instant commit (no log-disk I/O on the commit path);
* abort with UNDO;
* crash and two-phase recovery.

Run:  python examples/quickstart.py
"""

from repro import Database, RecoveryMode
from repro.db.monitor import status_page


def main() -> None:
    db = Database()

    # --- DDL ----------------------------------------------------------------
    accounts = db.create_relation(
        "accounts",
        [("id", "int"), ("balance", "int"), ("owner", "str")],
        primary_key="id",
        primary_index="hash",
    )
    db.create_index("accounts_by_balance", "accounts", "balance", kind="ttree")

    # --- transactions ---------------------------------------------------------
    with db.transaction() as txn:
        alice = accounts.insert(txn, {"id": 1, "balance": 1200, "owner": "alice"})
        accounts.insert(txn, {"id": 2, "balance": 300, "owner": "bob"})
        accounts.insert(txn, {"id": 3, "balance": 300, "owner": "carol"})

    with db.transaction() as txn:
        accounts.update(txn, alice, {"balance": 1100})

    # an exception inside the scope rolls everything back
    try:
        with db.transaction() as txn:
            accounts.update(txn, alice, {"balance": -1})
            raise RuntimeError("client-side validation failed")
    except RuntimeError:
        pass

    with db.transaction() as txn:
        row = accounts.lookup(txn, 1)
        print(f"alice's balance after commit+abort: {row['balance']}")
        assert row["balance"] == 1100

        same_balance = accounts.lookup_by(txn, "accounts_by_balance", 300)
        print("accounts with balance 300:", sorted(r["owner"] for r in same_balance))

    print("\nstatus before crash:")
    print(status_page(db.stats()))

    # --- crash and recover ------------------------------------------------------
    print("\n*** simulated crash: main memory lost ***")
    db.crash()
    coordinator = db.restart(RecoveryMode.ON_DEMAND)
    print(
        f"catalogs restored in {coordinator.catalog_restore_seconds * 1000:.2f} ms "
        f"(simulated); transaction processing is already available"
    )

    with db.transaction() as txn:
        table = db.table("accounts")
        row = table.lookup(txn, 1)  # triggers on-demand partition recovery
        print(f"alice after recovery: balance={row['balance']} owner={row['owner']}")
        assert row["balance"] == 1100
        assert table.count(txn) == 3

    while not coordinator.fully_recovered:
        coordinator.background_step()
    print("background recovery complete; database fully resident again")


if __name__ == "__main__":
    main()
