"""The five workloads of the host-time benchmark.

Each workload turns ``--seed`` into a fixed list of operations *before*
anything is timed; the program under test sees only those operations.
Under ``SimEngine`` operation *i* is therefore the same work in every
repeat, which is what lets the benchmark keep per-operation minima.

A workload owns four things: its schema and batched load (``setup``), its
timed operations grouped into segments (a crash epilogue follows every
segment), the one user transaction run right after a restart
(``first_txn``), and its conservation invariant (``check``).  Every
operation verifies what it read; a wrong answer raises :class:`WrongResult`
and is counted as a failed operation.

Why these five, and which layers each one bypasses, is in README.md.
"""

from __future__ import annotations

import bisect
import random

from repro import Database

#: Rows per loading transaction.  The stock loaders insert a whole table in
#: one transaction, which overruns the 2 MB Stable Log Buffer at 10 000
#: rows (README.md, findings); the benchmark loads in batches instead.
LOAD_BATCH_ROWS = 250

PAD = "p" * 40


class WrongResult(Exception):
    """An operation returned something other than the expected rows."""


class DeliberateAbort(Exception):
    """Raised inside a transaction scope to force a clean UNDO abort."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongResult(message)


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def load_rows(db: Database, relation, rows: list[dict], key: str) -> dict:
    """Insert ``rows`` in batches; returns ``{key value: entity address}``."""
    addresses = {}
    for start in range(0, len(rows), LOAD_BATCH_ROWS):
        with db.transaction() as txn:
            for row in rows[start : start + LOAD_BATCH_ROWS]:
                addresses[row[key]] = relation.insert(txn, row)
    return addresses


def scan_column(db: Database, relation_name: str, key: str, value: str) -> dict:
    with db.transaction() as txn:
        return {row[key]: row[value] for row in db.table(relation_name).scan(txn)}


class ZipfRanks:
    """Seeded Zipf ranks over ``range(n)`` by inverse CDF (rank 0 hottest).

    The benchmark's own picker, not ``repro.workloads.distributions``: a
    later change to the program must not change the benchmark's inputs."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        total = 0.0
        cdf = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**theta
            cdf.append(total)
        self._cdf = [value / total for value in cdf]
        self._rng = rng

    def pick(self) -> int:
        return bisect.bisect_left(self._cdf, self._rng.random())


def split(ops: list, parts: int) -> list[list]:
    """``ops`` cut into ``parts`` consecutive segments of near-equal length."""
    bounds = [round(len(ops) * part / parts) for part in range(parts + 1)]
    return [ops[low:high] for low, high in zip(bounds, bounds[1:])]


def exact_mix(rng: random.Random, count: int, mix: tuple[tuple[str, float], ...]) -> list[str]:
    """``count`` operation kinds in the exact proportions of ``mix``, in
    seeded order — so the seed moves keys around, never the amount of work."""
    kinds: list[str] = []
    for kind, share in mix[1:]:
        kinds.extend([kind] * round(count * share))
    kinds.extend([mix[0][0]] * (count - len(kinds)))
    rng.shuffle(kinds)
    return kinds


class Workload:
    """Interface; see the module docstring."""

    name = ""
    #: Crash epilogues per run: the timed operations are cut into this many
    #: segments so the restart metrics are medians, not single samples.
    RESTARTS = 5
    #: The reference kernel (reference.py) is timed before every this-many
    #: timed operations: about every 40-50 ms of the workload's own work.
    PROBE_EVERY = 100

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        #: Timed operations; a crash epilogue follows each segment.
        self.segments: list[list] = []
        #: Per segment, the ``(relation, key, field, value)`` the first
        #: transaction after that segment's restart must read back.
        self.probes: list[tuple[str, int, str, int]] = []

    def setup(self, db: Database) -> None:
        raise NotImplementedError

    def execute(self, db: Database, op) -> bool:
        """Run one timed operation; True when it committed, False when it
        was a deliberate abort that rolled back."""
        raise NotImplementedError

    def first_txn(self, db: Database, restart_index: int) -> None:
        """The one user transaction between restart and full recovery."""
        relation, key, field, value = self.probes[restart_index]
        with db.transaction() as txn:
            row = db.table(relation).lookup(txn, key)
        expect(row is not None and row[field] == value, f"{relation}[{key}].{field}")

    def check(self, db: Database) -> list[str]:
        """Conservation invariant; returns the problems found."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# debit_credit
# ---------------------------------------------------------------------------


class DebitCredit(Workload):
    """Gray's debit/credit: update account, teller, branch; append history."""

    name = "debit_credit"
    BRANCHES = 4
    TELLERS = 40
    INITIAL_BALANCE = 1000

    def __init__(self, seed: int, scale: float):
        super().__init__(seed)
        self.accounts = scaled(10_000, scale)
        ops = [
            (self.rng.randrange(self.accounts), self.rng.randint(-99, 99), hid)
            for hid in range(1, scaled(5_000, scale) + 1)
        ]
        self.segments = split(ops, self.RESTARTS)
        self.total_delta = sum(delta for _, delta, _ in ops)
        self.balances = {aid: self.INITIAL_BALANCE for aid in range(self.accounts)}
        for segment in self.segments:
            for aid, delta, _ in segment:
                self.balances[aid] += delta
            self.probes.append(("account", aid, "balance", self.balances[aid]))

    def setup(self, db: Database) -> None:
        self.branch = db.create_relation(
            "branch", [("bid", "int"), ("balance", "int")], primary_key="bid"
        )
        self.teller = db.create_relation(
            "teller", [("tid", "int"), ("bid", "int"), ("balance", "int")], primary_key="tid"
        )
        self.account = db.create_relation(
            "account", [("aid", "int"), ("bid", "int"), ("balance", "int")], primary_key="aid"
        )
        self.history = db.create_relation(
            "history", [("hid", "int"), ("aid", "int"), ("delta", "int")], primary_key="hid"
        )
        branches = self.BRANCHES
        self.branch_at = load_rows(
            db, self.branch, [{"bid": b, "balance": 0} for b in range(branches)], "bid"
        )
        self.teller_at = load_rows(
            db,
            self.teller,
            [{"tid": t, "bid": t % branches, "balance": 0} for t in range(self.TELLERS)],
            "tid",
        )
        self.account_at = load_rows(
            db,
            self.account,
            [
                {"aid": a, "bid": a % branches, "balance": self.INITIAL_BALANCE}
                for a in range(self.accounts)
            ],
            "aid",
        )

    def execute(self, db: Database, op) -> bool:
        aid, delta, hid = op
        account_at = self.account_at[aid]
        teller_at = self.teller_at[aid % self.TELLERS]
        branch_at = self.branch_at[aid % self.BRANCHES]
        with db.transaction() as txn:
            row = self.account.read(txn, account_at)
            self.account.update(txn, account_at, {"balance": row["balance"] + delta})
            row = self.teller.read(txn, teller_at)
            self.teller.update(txn, teller_at, {"balance": row["balance"] + delta})
            row = self.branch.read(txn, branch_at)
            self.branch.update(txn, branch_at, {"balance": row["balance"] + delta})
            self.history.insert(txn, {"hid": hid, "aid": aid, "delta": delta})
        return True

    def check(self, db: Database) -> list[str]:
        problems = []
        if scan_column(db, "account", "aid", "balance") != self.balances:
            problems.append("account balances differ from the applied deltas")
        for name, key in (("teller", "tid"), ("branch", "bid")):
            total = sum(scan_column(db, name, key, "balance").values())
            if total != self.total_delta:
                problems.append(f"{name} balances sum to {total}, expected {self.total_delta}")
        history = scan_column(db, "history", "hid", "delta")
        if len(history) != sum(map(len, self.segments)) or sum(history.values()) != self.total_delta:
            problems.append("history does not hold one row per committed transaction")
        return problems


# ---------------------------------------------------------------------------
# point_read and crash_restart share the items relation
# ---------------------------------------------------------------------------


class Items(Workload):
    """``items(k hash PK, grp T-tree secondary, v, pad)``, ten rows a group."""

    ROWS_PER_GROUP = 10

    def __init__(self, seed: int, scale: float):
        super().__init__(seed)
        self.groups = scaled(400, scale)
        self.rows = self.groups * self.ROWS_PER_GROUP
        self.values = {k: (k * 7) % 1000 for k in range(self.rows)}

    def setup(self, db: Database) -> None:
        self.items = db.create_relation(
            "items",
            [("k", "int"), ("grp", "int"), ("v", "int"), ("pad", "str")],
            primary_key="k",
        )
        # the index exists before the load: a create_index backfill is one
        # transaction and overruns the SLB just as the stock loaders do
        db.create_index("items_by_grp", "items", "grp", kind="ttree")
        load_rows(
            db,
            self.items,
            [
                {"k": k, "grp": k % self.groups, "v": self.values[k], "pad": PAD}
                for k in range(self.rows)
            ],
            "k",
        )

    def check(self, db: Database) -> list[str]:
        if scan_column(db, "items", "k", "v") != self.values:
            return ["items.v differs from the applied updates"]
        return []


class PointRead(Items):
    """Read-only: 90 % PK lookup, 8 % secondary lookup, 2 % 5-group range."""

    name = "point_read"
    PROBE_EVERY = 128
    RANGE_GROUPS = 5
    MIX = (("lookup", 0.90), ("by_grp", 0.08), ("range", 0.02))

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        spans = {
            "lookup": self.rows,
            "by_grp": self.groups,
            "range": self.groups - self.RANGE_GROUPS + 1,
        }
        kinds = exact_mix(self.rng, scaled(8_000, scale), self.MIX)
        ops = [(kind, self.rng.randrange(spans[kind])) for kind in kinds]
        self.segments = split(ops, self.RESTARTS)
        for _ in range(self.RESTARTS):
            k = self.rng.randrange(self.rows)
            self.probes.append(("items", k, "v", self.values[k]))

    def execute(self, db: Database, op) -> bool:
        kind, key = op
        items = self.items
        if kind == "lookup":
            with db.transaction() as txn:
                row = items.lookup(txn, key)
            expect(row is not None and row["v"] == self.values[key], f"lookup({key})")
        elif kind == "by_grp":
            with db.transaction() as txn:
                rows = items.lookup_by(txn, "items_by_grp", key)
            expect(
                sorted(row["k"] for row in rows)
                == list(range(key, self.rows, self.groups)),
                f"lookup_by(grp={key})",
            )
        else:
            high = key + self.RANGE_GROUPS - 1
            with db.transaction() as txn:
                rows = list(items.range_by(txn, "items_by_grp", key, high))
            groups = [row["grp"] for row in rows]
            expect(
                len(rows) == self.RANGE_GROUPS * self.ROWS_PER_GROUP
                and groups == sorted(groups)
                and groups[0] == key
                and groups[-1] == high,
                f"range_by(grp {key}..{high})",
            )
        return True


class CrashRestart(Items):
    """Ten cycles of single-row updates, each ended by a crash and restart."""

    name = "crash_restart"
    RESTARTS = 10
    PROBE_EVERY = 256

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        for _ in range(self.RESTARTS):
            segment = []
            for _ in range(scaled(400, scale)):
                k = self.rng.randrange(self.rows)
                self.values[k] = self.rng.randrange(1_000_000)
                segment.append((k, self.values[k]))
            self.segments.append(segment)
            self.probes.append(("items", k, "v", self.values[k]))  # the last acknowledged commit

    def execute(self, db: Database, op) -> bool:
        k, value = op
        with db.transaction() as txn:
            row = self.items.lookup(txn, k)
            self.items.update(txn, row.address, {"v": value})
        return True


# ---------------------------------------------------------------------------
# mixed_churn
# ---------------------------------------------------------------------------


class MixedChurn(Workload):
    """``MixedWorkload``'s operation mix on a T-tree primary key, Zipf
    keys, five operations a transaction, every 20th transaction aborted."""

    name = "mixed_churn"
    #: Restart time here is a sawtooth (log depth since each hot partition's
    #: last checkpoint), so it takes more samples for a steady median.
    RESTARTS = 10
    PROBE_EVERY = 24
    OPS_PER_TXN = 5
    ABORT_EVERY = 20
    MIX = (("update", 0.50), ("insert", 0.20), ("delete", 0.15), ("lookup", 0.15))

    def __init__(self, seed: int, scale: float):
        super().__init__(seed)
        self.initial_rows = scaled(4_000, scale)
        zipf = ZipfRanks(self.initial_rows, 0.99, self.rng)
        values = {key: 0 for key in range(self.initial_rows)}
        live = sorted(values)  # Zipf rank r picks the r-th smallest live key
        next_key = self.initial_rows
        txns = scaled(1_400, scale)
        kinds = iter(exact_mix(self.rng, txns * self.OPS_PER_TXN, self.MIX))
        for segment in split(list(range(1, txns + 1)), self.RESTARTS):
            ops = []
            for number in segment:
                abort = number % self.ABORT_EVERY == 0
                saved = (dict(values), list(live)) if abort else None
                steps = []
                for _ in range(self.OPS_PER_TXN):
                    kind = next(kinds)
                    if abort and kind == "insert":
                        # rolling back an insert trips a recovery bug of the
                        # program about one seed in thirteen (README.md,
                        # findings); a workload must not fail, so a doomed
                        # transaction updates instead
                        kind = "update"
                    if kind == "insert":
                        key, next_key = next_key, next_key + 1
                        values[key] = 0
                        live.append(key)
                        steps.append(("insert", key, 0))
                        continue
                    position = zipf.pick() % len(live)
                    key = live[position]
                    if kind == "update":
                        values[key] = self.rng.randrange(1_000_000)
                        steps.append(("update", key, values[key]))
                    elif kind == "delete":
                        del live[position]
                        steps.append(("delete", key, values.pop(key)))
                    else:
                        steps.append(("lookup", key, values[key]))
                if saved is not None:
                    values, live = saved
                ops.append((abort, steps))
            self.segments.append(ops)
            self.probes.append(("items", live[0], "value", values[live[0]]))
        self.values = values

    @staticmethod
    def _payload(key: int, value: int) -> str:
        return f"row-{key}-{value:07d}-" + "p" * 96

    def setup(self, db: Database) -> None:
        self.items = db.create_relation(
            "items",
            [("key", "int"), ("value", "int"), ("payload", "str")],
            primary_key="key",
            primary_index="ttree",
        )
        load_rows(
            db,
            self.items,
            [
                {"key": key, "value": 0, "payload": self._payload(key, 0)}
                for key in range(self.initial_rows)
            ],
            "key",
        )

    def execute(self, db: Database, op) -> bool:
        abort, steps = op
        items = self.items
        try:
            with db.transaction() as txn:
                for kind, key, value in steps:
                    if kind == "insert":
                        items.insert(
                            txn,
                            {"key": key, "value": value, "payload": self._payload(key, value)},
                        )
                        continue
                    row = items.lookup(txn, key)
                    expect(row is not None, f"key {key} is missing")
                    if kind == "update":
                        items.update(
                            txn,
                            row.address,
                            {"value": value, "payload": self._payload(key, value)},
                        )
                    elif kind == "delete":
                        expect(row["value"] == value, f"value of {key} before delete")
                        items.delete(txn, row.address)
                    else:
                        expect(row["value"] == value, f"value of {key}")
                if abort:
                    raise DeliberateAbort
        except DeliberateAbort:
            return False
        return True

    def check(self, db: Database) -> list[str]:
        if scan_column(db, "items", "key", "value") != self.values:
            return ["items differ from the committed operations (an abort leaked?)"]
        return []


# ---------------------------------------------------------------------------
# scripted_command
# ---------------------------------------------------------------------------


class ScriptedCommand(Workload):
    """Registered scripts run under command logging, round-robin over four
    relations; restart re-executes the live command suffix."""

    name = "scripted_command"
    PROBE_EVERY = 64
    RELATIONS = 4
    PAIRS = 6

    def __init__(self, seed: int, scale: float):
        super().__init__(seed)
        self.rows = scaled(1_000, scale)
        self.values = [{key: 0 for key in range(self.rows)} for _ in range(self.RELATIONS)]
        ops = []
        for call in range(scaled(1_000, scale)):
            relation = call % self.RELATIONS
            start = self.rng.randrange(self.rows)
            delta = self.rng.randint(1, 9)
            for offset in range(self.PAIRS):
                self.values[relation][(start + offset) % self.rows] += delta
            ops.append((relation, start, delta))
        self.segments = [ops]  # one restart: it re-executes every live command
        self.probes = [(f"r{relation}", start, "v", self.values[relation][start])]

    def setup(self, db: Database) -> None:
        rows = self.rows
        for index in range(self.RELATIONS):
            relation = db.create_relation(
                f"r{index}", [("id", "int"), ("v", "int"), ("pad", "str")], primary_key="id"
            )
            load_rows(
                db,
                relation,
                [{"id": key, "v": 0, "pad": "x" * 48} for key in range(rows)],
                "id",
            )

            def bump(txn, start, count, delta, relation=relation):
                for offset in range(count):
                    row = relation.lookup(txn, (start + offset) % rows)
                    value = row["v"] + delta
                    relation.update(
                        txn, row.address, {"v": value, "pad": f"{value:06d}" + "y" * 42}
                    )

            db.register_script(f"bump_r{index}", bump, relations=[relation.name])

    def execute(self, db: Database, op) -> bool:
        relation, start, delta = op
        db.run_script(f"bump_r{relation}", start, self.PAIRS, delta, logging="command")
        return True

    def check(self, db: Database) -> list[str]:
        return [
            f"r{index}.v differs from the executed scripts"
            for index in range(self.RELATIONS)
            if scan_column(db, f"r{index}", "id", "v") != self.values[index]
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (DebitCredit, PointRead, MixedChurn, CrashRestart, ScriptedCommand)
}
