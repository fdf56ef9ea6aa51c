"""Gray's debit/credit workload (the ET1/TP1 ancestor of TPC-A).

Section 3.2 uses "Gray's debit/credit transaction" — roughly four log
records per transaction — as the reference point for the 4,000
transactions-per-second capacity claim.  The workload here is the
classical shape: update one account, its teller, its branch, and append a
history record.

The schema is deliberately lean (all-int accounts) so a debit/credit
transaction produces log traffic close to the paper's four-record
assumption plus index-component records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.distributions import UniformPicker, ZipfPicker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class DebitCreditWorkload:
    """Builds the bank schema and runs debit/credit transactions."""

    def __init__(
        self,
        db: "Database",
        *,
        branches: int = 2,
        tellers_per_branch: int = 5,
        accounts_per_branch: int = 100,
        skew_theta: float = 0.0,
        seed: int = 0,
        keep_history: bool = True,
    ):
        self.db = db
        self.branches = branches
        self.tellers = branches * tellers_per_branch
        self.accounts = branches * accounts_per_branch
        self.keep_history = keep_history
        self._account_addr: dict[int, object] = {}
        self._teller_addr: dict[int, object] = {}
        self._branch_addr: dict[int, object] = {}
        self._history_id = 0
        if skew_theta > 0:
            self._picker = ZipfPicker(self.accounts, skew_theta, seed)
        else:
            self._picker = UniformPicker(self.accounts, seed)
        self.transactions_run = 0

    # -- setup --------------------------------------------------------------------

    def load(self) -> None:
        """Create and populate the four relations."""
        db = self.db
        self.branch_rel = db.create_relation(
            "branch", [("bid", "int"), ("balance", "int")], primary_key="bid"
        )
        self.teller_rel = db.create_relation(
            "teller",
            [("tid", "int"), ("bid", "int"), ("balance", "int")],
            primary_key="tid",
        )
        self.account_rel = db.create_relation(
            "account",
            [("aid", "int"), ("bid", "int"), ("balance", "int")],
            primary_key="aid",
        )
        if self.keep_history:
            self.history_rel = db.create_relation(
                "history",
                [("hid", "int"), ("aid", "int"), ("delta", "int")],
                primary_key="hid",
            )
        with db.transaction() as txn:
            for bid in range(self.branches):
                self._branch_addr[bid] = self.branch_rel.insert(
                    txn, {"bid": bid, "balance": 0}
                )
            for tid in range(self.tellers):
                self._teller_addr[tid] = self.teller_rel.insert(
                    txn, {"tid": tid, "bid": tid % self.branches, "balance": 0}
                )
            for aid in range(self.accounts):
                self._account_addr[aid] = self.account_rel.insert(
                    txn, {"aid": aid, "bid": aid % self.branches, "balance": 1000}
                )

    # -- one transaction -------------------------------------------------------------

    def script(self, aid: int, hid: int | None = None, delta: int = 10):
        """The one statement of a debit/credit on account ``aid``, as a
        replayable script (:mod:`repro.txn.scheduler`).  ``hid`` is the
        history row's id: a concurrent caller fixes it at submission; left
        ``None`` the next one is minted when the body reaches the insert."""
        tid = aid % self.tellers
        bid = aid % self.branches

        def body(txn):
            account = self.account_rel.read(txn, self._account_addr[aid])
            yield
            self.account_rel.update(
                txn, self._account_addr[aid], {"balance": account["balance"] + delta}
            )
            yield
            teller = self.teller_rel.read(txn, self._teller_addr[tid])
            self.teller_rel.update(
                txn, self._teller_addr[tid], {"balance": teller["balance"] + delta}
            )
            yield
            branch = self.branch_rel.read(txn, self._branch_addr[bid])
            self.branch_rel.update(
                txn, self._branch_addr[bid], {"balance": branch["balance"] + delta}
            )
            if self.keep_history:
                yield
                self.history_rel.insert(
                    txn,
                    {
                        "hid": self.next_history_id() if hid is None else hid,
                        "aid": aid,
                        "delta": delta,
                    },
                )

        return body

    def next_history_id(self) -> int:
        """Mint the id of the next history row."""
        self._history_id += 1
        return self._history_id

    def run_transaction(self, delta: int = 10, *, pump: bool = True) -> int:
        """One debit/credit: returns the account id touched."""
        aid = self._picker.pick()
        with self.db.transaction(pump=pump) as txn:
            for _ in self.script(aid, delta=delta)(txn):
                pass
        self.transactions_run += 1
        return aid

    def run(self, transactions: int, delta: int = 10, *, pump: bool = True) -> None:
        for _ in range(transactions):
            self.run_transaction(delta, pump=pump)

    # -- invariant ---------------------------------------------------------------------

    def total_balance(self) -> int:
        """Money conservation check: accounts total = initial + all deltas."""
        with self.db.transaction() as txn:
            return sum(row["balance"] for row in self.account_rel.scan(txn))

    def check_invariants(self) -> None:
        """Assert that the committed debit/credits (of the default delta,
        10) are atomic across the four relations, from the database's
        state alone — so it holds after any recovery: with ``C`` history
        rows, accounts total ``1000·N + 10·C`` and tellers and branches
        ``10·C`` each."""
        db = self.db

        def total(name: str) -> int:
            with db.transaction() as txn:
                return sum(row["balance"] for row in db.table(name).scan(txn))

        with db.transaction() as txn:
            hids = [row["hid"] for row in db.table("history").scan(txn)]
        if len(hids) != len(set(hids)):
            raise AssertionError("recovered history holds duplicate ids")
        commits = len(hids)
        for name, expected in (
            ("account", 1000 * self.accounts + 10 * commits),
            ("teller", 10 * commits),
            ("branch", 10 * commits),
        ):
            actual = total(name)
            if actual != expected:
                raise AssertionError(
                    f"recovered {name} total {actual} != expected {expected} "
                    f"({commits} committed debit/credits survived)"
                )
