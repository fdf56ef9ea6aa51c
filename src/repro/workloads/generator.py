"""A generic mixed-operation workload driver.

Used by the checkpoint and recovery benchmarks to produce controlled
update streams over a configurable number of partitions with configurable
skew — the knobs that determine the paper's checkpoint-trigger mix
(section 3.3) and post-crash working set (section 3.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.workloads.distributions import UniformPicker, ZipfPicker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database
    from repro.txn.transaction import Transaction


@dataclass(frozen=True)
class OperationMix:
    """Relative operation weights (need not sum to one)."""

    update: float = 0.8
    insert: float = 0.1
    delete: float = 0.05
    lookup: float = 0.05

    def normalised(self) -> list[tuple[str, float]]:
        total = self.update + self.insert + self.delete + self.lookup
        if total <= 0:
            raise ValueError("operation mix must have positive total weight")
        return [
            ("update", self.update / total),
            ("insert", self.insert / total),
            ("delete", self.delete / total),
            ("lookup", self.lookup / total),
        ]


class MixedWorkload:
    """Drives a single ``items`` relation with a keyed operation mix."""

    def __init__(
        self,
        db: "Database",
        *,
        initial_rows: int = 500,
        mix: OperationMix | None = None,
        skew_theta: float = 0.0,
        ops_per_transaction: int = 5,
        seed: int = 0,
        primary_index: str = "hash",
    ):
        self.db = db
        self.mix = mix if mix is not None else OperationMix()
        self.ops_per_transaction = ops_per_transaction
        self.primary_index = primary_index
        self._rng = random.Random(seed)
        self._next_key = initial_rows
        self._live: dict[int, object] = {}
        self._initial_rows = initial_rows
        if skew_theta > 0:
            self._picker = ZipfPicker(max(initial_rows, 1), skew_theta, seed)
        else:
            self._picker = UniformPicker(max(initial_rows, 1), seed)
        self.operations_run = 0
        self.transactions_run = 0

    def load(self) -> None:
        self.relation = self.db.create_relation(
            "items",
            [("key", "int"), ("value", "int"), ("payload", "str")],
            primary_key="key",
            primary_index=self.primary_index,
        )
        with self.db.transaction() as txn:
            for key in range(self._initial_rows):
                self._live[key] = self.relation.insert(
                    txn, {"key": key, "value": 0, "payload": f"row-{key}"}
                )

    def _pick_live_key(self) -> int | None:
        if not self._live:
            return None
        for _ in range(8):
            key = self._picker.pick()
            if key in self._live:
                return key
        return self._rng.choice(sorted(self._live))

    def run_transaction(self, *, pump: bool = True) -> None:
        weights = self.mix.normalised()
        with self.db.transaction(pump=pump) as txn:
            for _ in range(self.ops_per_transaction):
                op = self._choose(weights)
                self._run_op(txn, op)
                self.operations_run += 1
        self.transactions_run += 1

    def _choose(self, weights: list[tuple[str, float]]) -> str:
        point = self._rng.random()
        cumulative = 0.0
        for name, weight in weights:
            cumulative += weight
            if point < cumulative:
                return name
        return weights[-1][0]

    def _run_op(self, txn: "Transaction", op: str) -> None:
        if op == "insert" or (op != "lookup" and not self._live):
            key = self._next_key
            self._next_key += 1
            self._live[key] = self.relation.insert(
                txn, {"key": key, "value": 0, "payload": f"row-{key}"}
            )
            return
        key = self._pick_live_key()
        if key is None:
            return
        address = self._live[key]
        if op == "update":
            self.relation.update(
                txn, address, {"value": self._rng.randrange(1_000_000)}
            )
        elif op == "delete":
            self.relation.delete(txn, address)
            del self._live[key]
        else:  # lookup
            self.relation.read(txn, address)

    def run(self, transactions: int, *, pump: bool = True) -> None:
        for _ in range(transactions):
            self.run_transaction(pump=pump)

    @property
    def live_rows(self) -> int:
        return len(self._live)
