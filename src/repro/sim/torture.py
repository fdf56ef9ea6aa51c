"""The torture harness: seeded randomized chaos rounds.

The chaos sweep (``tests/test_chaos_sweep.py``) proves exact recovery
for every crash point on one scripted workload.  This module attacks the
claim with interleavings the sweep does not reach.  Each **round** runs
interleaved debit/credit scripts under a randomly generated
:class:`~repro.sim.chaos.ChaosPlan` (a crash rule, or transient I/O
faults into the duplex retry loops), then crashes, restarts, and checks
the recovered state.  A ``mixed``
round runs :class:`~repro.workloads.generator.MixedWorkload` instead, on
a T-tree primary key: updates, inserts, deletes and lookups, with every
:data:`MIXED_ABORT_EVERY`-th transaction inserting rows and then
aborting.  A ``media`` round runs the bank round, then destroys the
checkpoint disk before its restart and restores from the log history
(:func:`~repro.recovery.media.restore_after_checkpoint_media_failure`,
paper section 2.6); its crash rounds crash inside that restore, and an
ordinary restart, whose partitions take the ``history`` source, follows.
An ``overload`` round is the bank round on an SLB its pool runs dry: a
full SLB stalls a log write for a drain, or aborts its transaction.

Everything in a round derives from one integer seed: the plan, the
workload skew, the interleaving.  A failing round raises
:class:`TortureFailure` carrying the exact command line that replays it.

Verification is layered:

* **Exact digest** — the one oracle
  (:func:`~repro.recovery.oracle.committed_digests`), read at the crash:
  memory with every uncommitted transaction's UNDO applied is what every
  database of the round must recover to, byte for byte, mid-pool or not,
  with :func:`~repro.db.integrity.verify_integrity` finding nothing.
  :func:`~repro.sim.chaos.crash_restart_verify` runs it, as for the sweep;
  a media round passes ``media=True``, and since the restore images every
  partition afresh, compares the digest without checkpoint slots.
* **Bank invariants** — after any recovery, committed debit/credit
  transactions must be atomic across all four relations: with ``C``
  history rows, accounts total ``1000·N + 10·C`` and tellers and
  branches each total ``10·C``.  This checks what the committed history
  means, which no equality between two states can.  A ``mixed`` round
  checks instead that no row an aborted transaction inserted survived.
* **Recovery stability** — recovering, crashing again with no new work,
  and recovering again must reproduce the identical digest (recovery is
  a fixed point): :func:`~repro.sim.chaos.crash_restart_verify` again,
  with nothing to run and nothing injected.
* **Log order** — after each recovery, every partition's REDO stream
  holds its transactions in commit order
  (:func:`~repro.recovery.oracle.log_order_violations`), which no digest
  shows when two transactions wrote the same bytes; and so does every
  conflict between the committed transactions of the round's lock history
  (:func:`_record_history`, :func:`~repro.recovery.oracle.serialization_violations`).
* **Fault accounting** — every injected transient fault must be counted
  by the retry layer, and plans keep per-rule fires within the retry
  budget, so a round with faults must see zero ``MediaFailure``
  escalations.

A crash round first runs its seed with nothing injected, then crashes at
a registered crash point that run passed and at one of its passages,
each drawn uniformly, so every crash round fires (a media round draws
from what the dry run's restore passed).  After a batch the
command line lists the registered crash points no round passed.

Run from the command line::

    python -m repro.sim.torture --seed 7 --rounds 3 \
        --kinds crash fault --log rounds.jsonl
    python -m repro.sim.torture --seed 300 --rounds 3 --workload mixed
    python -m repro.sim.torture --seed 400 --rounds 3 --media
    python -m repro.sim.torture --seed 500 --rounds 3 --workload overload
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.config import SystemConfig
from repro.common.errors import ReproError, StableMemoryFullError
from repro.db.database import Database, RecoveryMode
from repro.recovery.oracle import log_order_violations, logical_digest
from repro.recovery.oracle import serialization_violations
from repro.sim.chaos import (
    ChaosEngine,
    ChaosPlan,
    ChaosRule,
    crash_restart_verify,
    registered_crash_points,
)
from repro.sim.clock import host_now
from repro.txn.scheduler import Scheduler
from repro.workloads.debit_credit import DebitCreditWorkload
from repro.workloads.generator import MixedWorkload, OperationMix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.sharded_bank import ShardedBankWorkload

#: The round kinds (the action the generated plan injects).
KINDS = ("crash", "fault")

#: What a round runs: ``bank`` — debit/credit scripts, or routed
#: transfers on a cluster; ``mixed`` — :class:`MixedWorkload` on one node;
#: ``overload`` — the bank, its SLB left ``OVERLOAD_SLB_BLOCKS`` free blocks.
WORKLOADS = ("bank", "mixed", "overload")
OVERLOAD_SLB_BLOCKS = 3

#: The transient-fault sites a fault plan draws from (``tests/test_torture.py``
#: pins them to the live registry).
FAULT_POINTS = (
    "checkpoint.image.read",
    "checkpoint.image.write",
    "log-disk.read",
    "log-disk.write",
)

#: Concurrent scripts per round.
POOL_SCRIPTS = 16

#: A ``mixed`` round: its rows, its transactions (each of
#: ``MIXED_OPS`` operations), and every how-many-th of them inserts
#: :data:`MIXED_DOOMED_ROWS` rows with string payloads of
#: ``MIXED_DOOMED_PAYLOAD`` bytes and then aborts.
MIXED_ROWS = 48
MIXED_TRANSACTIONS = 24
MIXED_OPS = 4
MIXED_ABORT_EVERY = 4
MIXED_DOOMED_ROWS = 3
MIXED_DOOMED_PAYLOAD = 160
MIXED_MIX = OperationMix(update=0.5, insert=0.2, delete=0.15, lookup=0.15)

#: Sized like the chaos sweep's scenario: small pages and a tight window
#: so a short workload still crosses checkpoints and window slides, and
#: 4 KB partitions so every round's inserts grow segments (``growth.*``).
ROUND_CONFIG = dict(
    partition_size=4096,
    log_page_size=512,
    log_window_pages=64,
    log_window_grace_pages=8,
    update_count_threshold=16,
)


class TortureFailure(ReproError):
    """A round's recovered state failed verification (or a round died on
    an unexpected error).  The message carries the reproducing command."""


@dataclass(frozen=True)
class RoundSpec:
    """Everything that determines one round."""

    seed: int
    kind: str
    #: ``shards > 1`` runs the round against a ShardedDatabase cluster
    #: (whole-cluster crash, per-shard bank invariants) instead of a
    #: single node.
    shards: int = 1
    workload: str = "bank"
    #: Destroy the checkpoint disk before the restart and restore from the
    #: log history (a single-node bank round).
    media: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown round kind {self.kind!r}; expected {KINDS}")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; expected {WORKLOADS}")
        if self.workload != "bank" and self.shards > 1:
            raise ValueError(f"a {self.workload} round runs on one node")
        if self.media and (self.workload != "bank" or self.shards > 1):
            raise ValueError("a media round is a single-node bank round")

    def repro_command(self) -> str:
        command = (
            f"PYTHONPATH=src python -m repro.sim.torture --seed {self.seed} "
            f"--rounds 1 --kinds {self.kind}"
        )
        if self.shards > 1:
            command += f" --shards {self.shards}"
        if self.workload != "bank":
            command += f" --workload {self.workload}"
        if self.media:
            command += " --media"
        return command


@dataclass
class RoundResult:
    """Outcome of one verified round."""

    seed: int
    kind: str
    #: Committed transactions that survived recovery: debit/credits on a
    #: single bank node, else the SLB's tally of every commit (routed
    #: transfers on a sharded round, the mixed workload's transactions
    #: and its segment growth).
    committed: int
    crashes_fired: int
    faults_fired: int
    restart_attempts: int
    #: A crash round's drawn crash point and the passage of it that
    #: crashed (1 = the first); ``None`` in a fault round.
    point: str | None
    visit: int | None
    digest: str
    host_seconds: float
    shards: int = 1
    workload: str = "bank"
    media: bool = False
    #: An overload round's log writes a drain let through, and those it did not.
    back_pressure: int = 0
    exhausted: int = 0

    def to_json(self) -> dict:
        record = dict(self.__dict__)
        if self.workload == "bank":
            del record["workload"]  # the record every bank round has always had
        if not self.media:
            del record["media"]
        if self.workload != "overload":
            del record["back_pressure"], record["exhausted"]
        return record


def build_plan(
    spec: RoundSpec,
    rng: random.Random,
    hits: dict[str, int],
    before: dict[str, int] | None = None,
) -> ChaosPlan:
    """Generate the round's injection plan from its seed.

    A crash plan draws from ``hits``, the passages the round's dry run
    counted (:meth:`ChaosEngine.hits`): first a registered crash point
    among those it passed, uniformly, so rare points get as many draws as
    the commit path, then one of that point's passages, uniformly.  With
    ``before`` — a media round's passages ahead of its restore — it draws
    only from the passages after them, counted on from there.  A fault
    plan ignores both.  Pure function of ``(spec, rng state, hits,
    before)``: the same seed always yields the same plan, which is what
    makes a failed round replayable.
    """
    if spec.kind == "crash":
        before = before or {}
        crash_points = registered_crash_points()
        own = {name: count - before.get(name, 0) for name, count in hits.items()}
        passed = sorted(name for name, count in own.items() if count and name in crash_points)
        if not passed:
            raise ValueError(f"seed {spec.seed}: the dry run passed no registered crash point")
        point = rng.choice(passed)
        visit = before.get(point, 0) + rng.randint(1, own[point])
        return ChaosPlan.crash_at(spec.seed, point, after_visits=visit - 1)
    rules: list[ChaosRule] = []
    for point in rng.sample(FAULT_POINTS, k=rng.randint(1, 2)):
        # max_fires stays within the default retry budget so every
        # burst is absorbed; the escalation boundary has its own
        # dedicated tests (tests/test_transient_io.py).
        rules.append(
            ChaosRule(
                point=point,
                action="fault",
                probability=rng.uniform(0.4, 1.0),
                after_visits=rng.randint(0, 4),
                max_fires=rng.randint(1, 4),
            )
        )
    return ChaosPlan(spec.seed, tuple(rules))


def _build_cluster(spec: RoundSpec, config: SystemConfig) -> ShardedBankWorkload:
    # Imported here: a single-node round does not load the cluster code.
    from repro.shard import ShardedDatabase
    from repro.workloads.sharded_bank import ShardedBankWorkload

    cluster = ShardedDatabase(shards=spec.shards, config=config)
    return ShardedBankWorkload(cluster, accounts_per_shard=16, cross_ratio=0.25, seed=spec.seed)


def _record_history(db: Database) -> tuple[list, list]:
    """Wrap the instance's ``locks.acquire`` and ``slb.commit`` (every mode's
    commit point, before the locks release): the granted ``(txn id,
    resource, mode)`` and the committed ids, in order."""
    grants: list = []
    commits: list = []
    acquire, commit = db.locks.acquire, db.slb.commit

    def recorded_acquire(txn_id, resource, mode) -> bool:
        granted = acquire(txn_id, resource, mode)
        if granted:
            grants.append((txn_id, resource, mode))
        return granted

    def recorded_commit(txn_id, *args) -> None:
        commit(txn_id, *args)
        commits.append(txn_id)

    db.locks.acquire, db.slb.commit = recorded_acquire, recorded_commit  # type: ignore
    return grants, commits


def _overload(db: Database) -> Counter:
    """Leave ``db``'s drained SLB room for :data:`OVERLOAD_SLB_BLOCKS` more
    blocks, and count the SLB's refusals of a log write and the drains
    (``stalls``): each stall follows a first refusal and retries, so the
    refusals past the stalls are the retries that failed too."""
    db.engine.drain_log()
    memory = db.slb_memory
    memory.capacity_bytes = memory.used_bytes + OVERLOAD_SLB_BLOCKS * db.config.log_block_size
    tally: Counter = Counter(stalls=0, refusals=0)
    append, drain_log = db.slb.append, db.engine.drain_log

    def counted_append(txn_id: int, record: bytes) -> None:
        try:
            append(txn_id, record)
        except StableMemoryFullError:
            tally["refusals"] += 1
            raise

    def counted_drain() -> int:
        tally["stalls"] += 1
        return drain_log()

    db.slb.append, db.engine.drain_log = counted_append, counted_drain  # type: ignore
    return tally


class _DeliberateAbort(Exception):
    """Raised inside a mixed round's doomed transaction to abort it."""


def _run_mixed(workload: MixedWorkload) -> None:
    """A mixed round's transactions, in order: the workload's mix, and
    every :data:`MIXED_ABORT_EVERY`-th one inserting rows (keys below
    zero, which no other transaction uses) that its abort takes back."""
    db, relation = workload.db, workload.relation
    for number in range(1, MIXED_TRANSACTIONS + 1):
        if number % MIXED_ABORT_EVERY:
            workload.run_transaction()
            continue
        try:
            with db.transaction() as txn:
                for row in range(MIXED_DOOMED_ROWS):
                    key = -(number * MIXED_DOOMED_ROWS + row)
                    # long enough that the last of them grows the segment
                    payload = f"doomed-{key}-".ljust(MIXED_DOOMED_PAYLOAD, "x")
                    relation.insert(txn, {"key": key, "value": number, "payload": payload})
                raise _DeliberateAbort
        except _DeliberateAbort:
            pass


class TortureHarness:
    """Runs and verifies seeded chaos rounds."""

    def __init__(self) -> None:
        #: Every point some round of this harness passed (the reach report).
        self.passed: set[str] = set()

    def run_round(self, spec: RoundSpec) -> RoundResult:
        started = host_now()
        try:
            result = self._run_round_inner(spec)
        except TortureFailure as exc:
            raise TortureFailure(
                f"{exc}; reproduce with: {spec.repro_command()}"
            ) from exc
        except Exception as exc:
            raise TortureFailure(
                f"torture round seed={spec.seed} kind={spec.kind} "
                f"shards={spec.shards} workload={spec.workload} failed: {exc!r}; "
                f"reproduce with: {spec.repro_command()}"
            ) from exc
        result.host_seconds = host_now() - started
        return result

    def unreached(self) -> list[str]:
        """The registered crash points no round of this harness passed."""
        return sorted(set(registered_crash_points()) - self.passed)

    def _run_round_inner(self, spec: RoundSpec) -> RoundResult:
        """One round: a crash round's dry run, then the workload under the
        plan through one crash, restart and exact check, then the other
        checks — over every database of the round, one node or a
        cluster's (routed transfers, whole-cluster crash, per-shard
        conservation)."""
        rng = random.Random(spec.seed)
        recovery_mode = rng.choice([RecoveryMode.EAGER, RecoveryMode.ON_DEMAND])
        pool_seed = rng.getrandbits(64)
        hits: dict[str, int] = {}
        before: dict[str, int] | None = None
        if spec.kind == "crash":
            dry = ChaosEngine(ChaosPlan(spec.seed))
            _, _, _, before, _ = self._play(spec, dry, recovery_mode, pool_seed)
            hits = dry.hits()
            self.passed.update(hits)
        injector = ChaosEngine(build_plan(spec, rng, hits, before))
        workload, dbs, restart_attempts, _, overload = self._play(
            spec, injector, recovery_mode, pool_seed
        )
        self.passed.update(injector.hits())
        if isinstance(workload, MixedWorkload):
            self._check_no_doomed_row(workload)
        else:
            try:
                workload.check_invariants()
            except AssertionError as exc:
                raise TortureFailure(str(exc)) from exc
        digests = [logical_digest(db) for db in dbs]
        self._check_recovery_stability(dbs, recovery_mode)
        self._check_fault_accounting(dbs, injector)
        if spec.shards > 1:
            # The SLB's commit tally is stable: it survives the crash.
            committed = sum(db.slb.commits for db in dbs)
            digest = "|".join(f"{sid}:{d[:16]}" for sid, d in enumerate(digests))
        else:
            committed = (
                dbs[0].slb.commits if spec.workload == "mixed" else self._count_history(dbs[0])
            )
            digest = digests[0]
        crash = injector.plan.rules[0] if spec.kind == "crash" else None
        exhausted = overload["refusals"] - overload["stalls"]
        return RoundResult(
            seed=spec.seed,
            kind=spec.kind,
            committed=committed,
            crashes_fired=injector.crashes_fired,
            faults_fired=injector.faults_fired,
            restart_attempts=restart_attempts,
            point=crash.point if crash else None,
            visit=crash.after_visits + 1 if crash else None,
            digest=digest,
            host_seconds=0.0,
            shards=spec.shards,
            workload=spec.workload,
            media=spec.media,
            back_pressure=overload["stalls"] - exhausted,
            exhausted=exhausted,
        )

    def _play(
        self,
        spec: RoundSpec,
        injector: ChaosEngine,
        recovery_mode: RecoveryMode,
        pool_seed: int,
    ) -> tuple[
        DebitCreditWorkload | ShardedBankWorkload | MixedWorkload,
        list[Database],
        int,
        dict[str, int] | None,
        Counter,
    ]:
        """Build and load the round's databases, queue its scripts (a
        single node's accounts drawn from ``pool_seed``), then run them
        under ``injector`` through one power failure, restart, exact check
        and log-order check (:func:`~repro.sim.chaos.crash_restart_verify`;
        in-doubt 2PC branches resolve against the stable decision tables
        during each node's restart).  A mixed round runs its transactions
        in order instead of a script pool; a media round restores from the
        log history instead of restarting, and its fourth element is the
        passages ``injector`` counted before the restore, once the pool
        returned (``None`` for any other round); the fifth, an overload
        round's :func:`_overload`."""
        config = SystemConfig(**ROUND_CONFIG)
        power_fail: Callable[[], None] | None = None
        overload: Counter = Counter()
        workload: DebitCreditWorkload | ShardedBankWorkload | MixedWorkload
        if spec.workload == "mixed":
            dbs = [Database(config)]
            workload = MixedWorkload(
                dbs[0],
                initial_rows=MIXED_ROWS,
                mix=MIXED_MIX,
                ops_per_transaction=MIXED_OPS,
                seed=pool_seed,
                primary_index="ttree",
            )
            workload.load()
            pool: Callable[[], object] = lambda: _run_mixed(workload)
        elif spec.shards > 1:
            workload = _build_cluster(spec, config)
            workload.load()
            dbs = workload.cluster.nodes
            scheduler = Scheduler(workload.cluster, max_attempts=500)
            workload.submit(scheduler, POOL_SCRIPTS)
            pool, power_fail = scheduler.run, workload.cluster.crash
        else:
            dbs = [Database(config)]
            workload = DebitCreditWorkload(
                dbs[0], branches=2, tellers_per_branch=2, accounts_per_branch=25,
                seed=spec.seed,
            )
            workload.load()
            if spec.workload == "overload":
                overload = _overload(dbs[0])
            scheduler = Scheduler(dbs[0], max_attempts=500)
            # a fresh stream per play: the dry run and the crash run submit alike
            accounts = random.Random(pool_seed)
            for i in range(POOL_SCRIPTS):
                aid = accounts.randrange(workload.accounts)
                scheduler.submit(
                    workload.script(aid, workload.next_history_id()), name=f"torture-{i}"
                )
            pool = scheduler.run
        before: dict[str, int] = {}

        def run() -> None:
            pool()
            before.update(injector.hits())

        histories = tuple(_record_history(db) for db in dbs)
        attempts = crash_restart_verify(
            dbs, run, injector, recovery_mode, power_fail=power_fail, media=spec.media
        )
        self._check_commit_order(dbs, histories)
        return workload, dbs, attempts, before if spec.media else None, overload

    # -- checks ---------------------------------------------------------------

    def _check_no_doomed_row(self, workload: MixedWorkload) -> None:
        """An aborted transaction's inserts (negative keys) are all gone."""
        with workload.db.transaction() as txn:
            doomed = sorted(row["key"] for row in workload.relation.scan(txn) if row["key"] < 0)
        if doomed:
            raise TortureFailure(f"rows of aborted inserts survived: keys {doomed}")

    def _count_history(self, db: Database) -> int:
        with db.transaction() as txn:
            return sum(1 for _ in db.table("history").scan(txn))

    def _check_commit_order(self, dbs: list[Database], histories: tuple = ()) -> None:
        problems = [
            f"database {number}: {problem}"
            for number, db in enumerate(dbs)
            for problem in log_order_violations(db)
        ]
        if problems:
            raise TortureFailure(f"log order broken: {'; '.join(problems)}")
        problems = [
            f"database {number}: {problem}"
            for number, (grants, commits) in enumerate(histories)
            for problem in serialization_violations(grants, commits)
        ]
        if problems:
            raise TortureFailure(f"conflicts out of commit order: {'; '.join(problems)}")

    def _check_recovery_stability(self, dbs: list[Database], mode: RecoveryMode) -> None:
        """Recovery must be a fixed point on every database of the round:
        crash again with no new work, recover, and land on the digests the
        first recovery left, with logs still in commit order."""
        crash_restart_verify(dbs, lambda: None, ChaosEngine(ChaosPlan(0)), mode)
        self._check_commit_order(dbs)

    def _check_fault_accounting(
        self, dbs: list[Database], injector: ChaosEngine
    ) -> None:
        stats = [
            db.stats()["transient_io"][side] for db in dbs for side in ("log", "checkpoint")
        ]
        counted = sum(s["read_faults"] + s["write_faults"] for s in stats)
        if counted != injector.faults_fired:
            raise TortureFailure(
                f"retry layers counted {counted} transient faults but the "
                f"plan injected {injector.faults_fired}"
            )
        escalations = sum(s["read_escalations"] + s["write_escalations"] for s in stats)
        if escalations:
            raise TortureFailure(
                f"{escalations} transient faults escalated to MediaFailure "
                f"despite per-rule fires within the retry budget"
            )

    # -- batches --------------------------------------------------------------

    def run_rounds(
        self,
        seeds: list[int],
        kinds: tuple[str, ...] = KINDS,
        shards: int = 1,
        on_result=None,
        workload: str = "bank",
        media: bool = False,
    ) -> list[RoundResult]:
        """Run every (seed, kind) combination; the first failure raises
        with its reproducing seed, so a returned list means all passed (an
        overload batch only if it saw both endings of a full SLB)."""
        results = []
        for seed in seeds:
            for kind in kinds:
                result = self.run_round(RoundSpec(seed, kind, shards, workload, media))
                if on_result is not None:
                    on_result(result)
                results.append(result)
        drained = sum(r.back_pressure for r in results)
        if workload == "overload" and not (drained and sum(r.exhausted for r in results)):
            raise TortureFailure(f"overload seeds {seeds} never both drained and aborted")
        return results


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="Seeded chaos torture rounds against the recovery system."
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--rounds", type=int, default=3, help="seeds per kind")
    parser.add_argument(
        "--kinds", nargs="+", choices=KINDS, default=list(KINDS)
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run each round against a cluster of this many shard nodes",
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOADS,
        default="bank",
        help="what each round runs (mixed: one node, T-tree key, aborted inserts; "
        "overload: the bank on an SLB the pool runs dry)",
    )
    parser.add_argument(
        "--media",
        action="store_true",
        help="destroy the checkpoint disk before each restart and restore from the log",
    )
    parser.add_argument(
        "--log", default=None, help="append one JSON line per round here"
    )
    args = parser.parse_args(argv)

    import repro.shard  # noqa: F401 - registers the 2PC points for the reach report

    log_file = open(args.log, "a", encoding="utf-8") if args.log else None
    harness = TortureHarness()

    def report(result: RoundResult) -> None:
        line = result.to_json()
        if log_file is not None:
            log_file.write(json.dumps(line) + "\n")
            log_file.flush()
        topology = "" if result.shards == 1 else f" shards={result.shards}"
        if result.workload != "bank":
            topology += f" workload={result.workload}"
        if result.media:
            topology += " media"
        crash = "" if result.point is None else f" at {result.point} visit {result.visit}"
        print(
            f"round seed={result.seed} kind={result.kind}"
            f"{topology} ok: {result.committed} commits, "
            f"{result.crashes_fired} crashes{crash} / {result.faults_fired} faults"
        )

    try:
        harness.run_rounds(
            seeds=[args.seed + i for i in range(args.rounds)],
            kinds=tuple(args.kinds),
            shards=args.shards,
            on_result=report,
            workload=args.workload,
            media=args.media,
        )
    except TortureFailure as failure:
        if log_file is not None:
            log_file.write(json.dumps({"failure": str(failure)}) + "\n")
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        if log_file is not None:
            log_file.close()
    print(f"all {args.rounds * len(args.kinds)} rounds passed")
    # Informational: a registered point no round passed is one this batch
    # never tests.
    print(f"crash points no round passed: {', '.join(harness.unreached()) or 'none'}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
