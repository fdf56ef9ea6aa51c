"""A router-aware bank workload for sharded clusters.

Each shard owns an ``account<k>`` relation and a one-row ``ledger<k>``
relation (both pinned to shard *k*), so the placement is explicit and
the conservation law is checkable **per shard**:

    sum(balances on shard k) == accounts * INITIAL_BALANCE + incoming_k - outgoing_k

where the ledger row's ``incoming``/``outgoing`` counters are updated
inside the same (distributed) transaction that moves the money.  Local
transfers route to one shard and run unchanged on that node; cross-shard
transfers declare both shards' relations and commit via 2PC.  Globally
``sum(incoming) == sum(outgoing)``, so total money is conserved across
the cluster no matter how many shards crash and recover in between.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.sharded import ShardedDatabase
    from repro.txn.scheduler import Scheduler

ACCOUNT_SCHEMA = [("aid", "int"), ("balance", "int")]
LEDGER_SCHEMA = [("lid", "int"), ("incoming", "int"), ("outgoing", "int")]
#: Every account's opening balance.
INITIAL_BALANCE = 1000


class ShardedBankWorkload:
    """Builds the per-shard bank schema and generates transfer scripts."""

    def __init__(
        self,
        cluster: "ShardedDatabase",
        *,
        accounts_per_shard: int = 16,
        cross_ratio: float = 0.1,
        seed: int = 0,
    ):
        if not 0.0 <= cross_ratio <= 1.0:
            raise ValueError("cross_ratio must be within [0, 1]")
        self.cluster = cluster
        self.accounts_per_shard = accounts_per_shard
        self.cross_ratio = cross_ratio
        self._rng = random.Random(seed)
        self._script_seq = 0

    # -- naming -------------------------------------------------------------------

    def account_name(self, shard: int) -> str:
        return f"account{shard}"

    def ledger_name(self, shard: int) -> str:
        return f"ledger{shard}"

    # -- setup --------------------------------------------------------------------

    def load(self) -> None:
        """Create and populate every shard's relations (explicit pins)."""
        cluster = self.cluster
        for shard in range(cluster.shards):
            account = cluster.create_relation(
                self.account_name(shard), ACCOUNT_SCHEMA, "aid", shard=shard
            )
            ledger = cluster.create_relation(
                self.ledger_name(shard), LEDGER_SCHEMA, "lid", shard=shard
            )
            with cluster.transaction(
                relations=[self.account_name(shard), self.ledger_name(shard)]
            ) as txn:
                for aid in range(self.accounts_per_shard):
                    account.insert(txn, {"aid": aid, "balance": INITIAL_BALANCE})
                ledger.insert(txn, {"lid": 0, "incoming": 0, "outgoing": 0})

    # -- scripts ------------------------------------------------------------------

    def local_transfer_script(
        self, shard: int, src: int, dst: int, amount: int
    ):
        """Move ``amount`` between two accounts on one shard."""
        account = self.cluster.table(self.account_name(shard))

        def script(txn):
            row = account.lookup(txn, src)
            yield
            account.update(txn, row.address, {"balance": row["balance"] - amount})
            yield
            row2 = account.lookup(txn, dst)
            yield
            account.update(txn, row2.address, {"balance": row2["balance"] + amount})

        return script

    def cross_transfer_script(
        self, src_shard: int, dst_shard: int, src: int, dst: int, amount: int
    ):
        """Move ``amount`` across shards, ledgering both sides."""
        src_account = self.cluster.table(self.account_name(src_shard))
        src_ledger = self.cluster.table(self.ledger_name(src_shard))
        dst_account = self.cluster.table(self.account_name(dst_shard))
        dst_ledger = self.cluster.table(self.ledger_name(dst_shard))

        def script(txn):
            row = src_account.lookup(txn, src)
            yield
            src_account.update(
                txn, row.address, {"balance": row["balance"] - amount}
            )
            out = src_ledger.lookup(txn, 0)
            src_ledger.update(
                txn, out.address, {"outgoing": out["outgoing"] + amount}
            )
            yield
            row2 = dst_account.lookup(txn, dst)
            dst_account.update(
                txn, row2.address, {"balance": row2["balance"] + amount}
            )
            inc = dst_ledger.lookup(txn, 0)
            dst_ledger.update(
                txn, inc.address, {"incoming": inc["incoming"] + amount}
            )

        return script

    def next_script(self) -> tuple[object, list[str], str]:
        """One generated transfer: ``(script, declared relations, name)``."""
        rng = self._rng
        self._script_seq += 1
        name = f"xfer-{self._script_seq}"
        amount = rng.randint(1, 9)
        shards = self.cluster.shards
        cross = shards > 1 and rng.random() < self.cross_ratio
        if cross:
            src_shard, dst_shard = rng.sample(range(shards), 2)
            src = rng.randrange(self.accounts_per_shard)
            dst = rng.randrange(self.accounts_per_shard)
            script = self.cross_transfer_script(
                src_shard, dst_shard, src, dst, amount
            )
            relations = [
                self.account_name(src_shard),
                self.ledger_name(src_shard),
                self.account_name(dst_shard),
                self.ledger_name(dst_shard),
            ]
        else:
            shard = rng.randrange(shards)
            src, dst = rng.sample(range(self.accounts_per_shard), 2)
            script = self.local_transfer_script(shard, src, dst, amount)
            relations = [self.account_name(shard)]
        return script, relations, name

    def submit(self, scheduler: "Scheduler", transactions: int) -> None:
        """Queue ``transactions`` generated transfers on the cluster's
        scheduler, each routed by its declared relations."""
        for _ in range(transactions):
            script, relations, name = self.next_script()
            scheduler.submit(script, name=name, begin=partial(self.cluster.begin, relations))

    # -- invariants ---------------------------------------------------------------

    def shard_totals(self, shard: int) -> dict:
        """One shard's balances and ledger counters (full-residency read)."""
        cluster = self.cluster
        account = cluster.table(self.account_name(shard))
        ledger = cluster.table(self.ledger_name(shard))
        with cluster.transaction(
            relations=[self.account_name(shard), self.ledger_name(shard)]
        ) as txn:
            balances = sum(row["balance"] for row in account.scan(txn))
            row = ledger.lookup(txn, 0)
            return {
                "balances": balances,
                "incoming": row["incoming"],
                "outgoing": row["outgoing"],
            }

    def check_invariants(self) -> dict:
        """Assert per-shard and global conservation; return the totals."""
        expected_base = self.accounts_per_shard * INITIAL_BALANCE
        totals = {}
        for shard in range(self.cluster.shards):
            t = self.shard_totals(shard)
            expected = expected_base + t["incoming"] - t["outgoing"]
            if t["balances"] != expected:
                raise AssertionError(
                    f"shard {shard} conservation broken: balances "
                    f"{t['balances']} != {expected_base} + {t['incoming']} "
                    f"- {t['outgoing']}"
                )
            totals[shard] = t
        grand = sum(t["balances"] for t in totals.values())
        if grand != expected_base * self.cluster.shards:
            raise AssertionError(
                f"global conservation broken: {grand} != "
                f"{expected_base * self.cluster.shards}"
            )
        incoming = sum(t["incoming"] for t in totals.values())
        outgoing = sum(t["outgoing"] for t in totals.values())
        if incoming != outgoing:
            raise AssertionError(
                f"ledger mismatch: incoming {incoming} != outgoing {outgoing}"
            )
        return totals
