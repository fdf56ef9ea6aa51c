"""The torture harness: seeded randomized chaos rounds.

The chaos *sweep* proves exact recovery for every crash point under the
cooperative schedule.  This module attacks the claim the sweep cannot
reach: real thread interleavings.  Each **round** runs a concurrent
debit/credit workload — on :class:`~repro.engine.threaded.ThreadedEngine`
worker threads genuinely interleave — under a randomly generated
:class:`~repro.sim.chaos.ChaosPlan` (crash rules, latency jitter through
the ``realtime_scale`` bridges, transient I/O faults into the duplex
retry loops), then crashes, restarts, and checks the recovered state.

Everything random in a round derives from one integer seed: the plan,
the workload skew, the latency scales.  A failing round raises
:class:`TortureFailure` carrying the exact command line that replays it.

Verification is layered to stay honest about thread nondeterminism:

* **Exact digest** — a sequential tail of transactions runs under a
  :class:`~repro.recovery.oracle.RecoveryVerifier`; after crash +
  restart the recovered digest must be byte-identical to the digest at
  the last durable commit.  (Digest-at-commit is only well defined while
  a single thread mutates, hence the quiesced tail.)
* **Bank invariants** — after any recovery, committed debit/credit
  transactions must be atomic across all four relations: with ``C``
  history rows, accounts total ``1000·N + 10·C`` and tellers and
  branches each total ``10·C``.  This catches a torn transaction even
  when the crash landed mid-pool where no digest can be recorded.
* **Recovery stability** — recovering, crashing again with no new work,
  and recovering again must reproduce the identical digest (recovery is
  a fixed point).
* **Fault accounting** — every injected transient fault must be counted
  by the retry layer, and plans keep per-rule fires within the retry
  budget, so a round with faults must see zero ``MediaFailure``
  escalations.

Run from the command line::

    python -m repro.sim.torture --seed 7 --rounds 3 --engine threaded \
        --workers 4 --kinds crash latency fault --log rounds.jsonl
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.db.database import Database, RecoveryMode
from repro.engine import SimEngine, ThreadedEngine
from repro.recovery.oracle import RecoveryVerifier, logical_digest
from repro.sim.chaos import (
    ChaosEngine,
    ChaosPlan,
    ChaosRule,
    chaos,
    install_latency,
    registered_crash_points,
    registered_fault_points,
    remove_latency,
    restart_until_recovered,
)
from repro.sim.clock import host_now
from repro.sim.faults import SimulatedCrash
from repro.txn.scheduler import Scheduler
from repro.workloads.debit_credit import DebitCreditWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard import ShardedDatabase, ShardedScheduler
    from repro.workloads.sharded_bank import ShardedBankWorkload

#: The three round kinds (what the generated plan emphasises).
KINDS = ("crash", "latency", "fault")

#: Concurrent scripts per round / sequential tail transactions.
POOL_SCRIPTS = 16
TAIL_TRANSACTIONS = 10

#: Sized like the chaos sweep's scenario: small pages and a tight window
#: so a short workload still crosses checkpoints and window slides, and
#: 4 KB partitions so every round's inserts grow segments (``growth.*``).
ROUND_CONFIG = dict(
    partition_size=4096,
    log_page_size=512,
    update_count_threshold=16,
    log_window_pages=64,
    log_window_grace_pages=8,
)


class TortureFailure(ReproError):
    """A round's recovered state failed verification (or a round died on
    an unexpected error).  The message carries the reproducing command."""


@dataclass(frozen=True)
class RoundSpec:
    """Everything that determines one round."""

    seed: int
    kind: str
    engine: str = "threaded"
    workers: int = 4
    #: ``shards > 1`` runs the round against a ShardedDatabase cluster
    #: (whole-cluster crash, per-shard bank invariants) instead of a
    #: single node.
    shards: int = 1
    #: Run the round with background condensing enabled, so the condense
    #: crash points and the shadow-image restart path sit in the blast
    #: radius (docs/CONDENSING.md).
    condense: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown round kind {self.kind!r}; expected {KINDS}")
        if self.engine not in ("sim", "threaded"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")

    def repro_command(self) -> str:
        command = (
            f"PYTHONPATH=src python -m repro.sim.torture --seed {self.seed} "
            f"--rounds 1 --kinds {self.kind} --engine {self.engine} "
            f"--workers {self.workers}"
        )
        if self.shards > 1:
            command += f" --shards {self.shards}"
        if self.condense:
            command += " --condense"
        return command


@dataclass
class RoundResult:
    """Outcome of one verified round."""

    seed: int
    kind: str
    engine: str
    workers: int
    #: Committed transactions that survived recovery (debit/credits on a
    #: single node, scheduler-routed transfers on a sharded round).
    committed: int
    crashes_fired: int
    faults_fired: int
    latency_fired: int
    restart_attempts: int
    #: Which checks ran: "digest" (exact tail digest) or "invariants"
    #: (the crash landed mid-pool, before a digest could be recorded).
    verified_by: str
    digest: str
    host_seconds: float
    shards: int = 1
    condense: bool = False

    def to_json(self) -> dict:
        return dict(self.__dict__)


def build_plan(spec: RoundSpec, rng: random.Random) -> ChaosPlan:
    """Generate the round's injection plan from its seed.

    Pure function of ``(spec, rng state)``: the same seed always yields
    the same plan, which is what makes a failed round replayable.
    """
    crash_points = sorted(registered_crash_points())
    fault_points = sorted(registered_fault_points())
    rules: list[ChaosRule] = []
    if spec.kind == "crash":
        prefix = None
        if spec.engine == "threaded":
            prefix = rng.choice([None, None, "repro-txn-worker", "repro-restore"])
        rules.append(
            ChaosRule(
                point=rng.choice(crash_points),
                action="crash",
                after_visits=rng.randint(0, 12),
                thread_prefix=prefix,
            )
        )
    if spec.kind == "fault":
        for point in rng.sample(fault_points, k=rng.randint(1, 2)):
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
    # Every kind gets background latency so worker threads reorder; the
    # "latency" kind simply makes it the whole story.
    latency_rules = 3 if spec.kind == "latency" else 1
    for point in rng.sample(crash_points + fault_points, k=latency_rules):
        rules.append(
            ChaosRule(
                point=point,
                action="latency",
                probability=rng.uniform(0.2, 0.6),
                max_fires=None,
                latency_range=(0.00005, 0.0008),
            )
        )
    return ChaosPlan(spec.seed, tuple(rules))


def _build_cluster(
    spec: RoundSpec, config: SystemConfig
) -> tuple[ShardedBankWorkload, ShardedScheduler]:
    # Imported here: importing registers the 2PC crash points, and a plan
    # is drawn from the registered set — a single-node round's must not
    # depend on the cluster code being loaded.
    from repro.shard import ShardedDatabase, ShardedScheduler
    from repro.workloads.sharded_bank import ShardedBankWorkload

    cluster = ShardedDatabase(
        shards=spec.shards, config=config, engine=spec.engine, workers=spec.workers
    )
    bank = ShardedBankWorkload(cluster, accounts_per_shard=16, cross_ratio=0.25, seed=spec.seed)
    return bank, ShardedScheduler(cluster, max_attempts=500)


class TortureHarness:
    """Runs and verifies seeded chaos rounds."""

    def run_round(self, spec: RoundSpec) -> RoundResult:
        started = host_now()
        try:
            result = self._run_round_inner(spec)
        except TortureFailure as exc:
            raise TortureFailure(
                f"{exc}; reproduce with: {spec.repro_command()}"
            ) from exc
        except BaseException as exc:
            raise TortureFailure(
                f"torture round seed={spec.seed} kind={spec.kind} "
                f"engine={spec.engine} workers={spec.workers} failed: {exc!r}; "
                f"reproduce with: {spec.repro_command()}"
            ) from exc
        result.host_seconds = host_now() - started
        return result

    def _run_round_inner(self, spec: RoundSpec) -> RoundResult:
        """One round: workload under the plan, power failure, restart,
        the layered checks — over every database of the round, one node
        or a cluster's (routed transfers, whole-cluster crash, per-shard
        conservation)."""
        rng = random.Random(spec.seed)
        config = SystemConfig(**ROUND_CONFIG, condense_enabled=spec.condense)
        cluster: ShardedDatabase | None = None
        workload: DebitCreditWorkload | ShardedBankWorkload
        scheduler: Scheduler | ShardedScheduler
        #: The exact-digest tail's transaction; none on a cluster, where no
        #: one digest is defined while several nodes commit.
        tail: Callable[[], object] | None = None
        if spec.shards > 1:
            bank, routed = _build_cluster(spec, config)
            workload, scheduler, cluster = bank, routed, bank.cluster
            dbs = [node.db for node in bank.cluster.nodes]
            submit = partial(bank.submit, routed, POOL_SCRIPTS)
        else:
            engine = SimEngine() if spec.engine == "sim" else ThreadedEngine(spec.workers)
            dbs = [Database(config, engine=engine)]
            workload = DebitCreditWorkload(
                dbs[0], branches=2, tellers_per_branch=2, accounts_per_branch=25,
                seed=spec.seed,
            )
            scheduler = Scheduler(dbs[0], max_attempts=500)
            submit = partial(self._submit_debit_credits, scheduler, workload, rng)
            tail = workload.run_transaction
        try:
            workload.load()
            injector = ChaosEngine(build_plan(spec, rng))
            self._install_latency(dbs, injector, rng)
            recovery_mode = rng.choice([RecoveryMode.EAGER, RecoveryMode.ON_DEMAND])
            verifier: RecoveryVerifier | None = None
            with chaos(injector):
                try:
                    # Phase 1 — concurrent stress under the plan.
                    submit()
                    scheduler.run()
                    if tail is not None:
                        # Phase 2 — quiesce, then an exactly-verifiable
                        # sequential tail (single mutator, digest per commit).
                        dbs[0].pump()
                        verifier = RecoveryVerifier(dbs[0])
                        for _ in range(TAIL_TRANSACTIONS):
                            tail()
                except SimulatedCrash:
                    pass
                # Phase 3 — power failure, then come back (restart-path
                # rules may crash recovery itself; the latch bounds the
                # retries; in-doubt 2PC branches resolve against the stable
                # decision tables during each node's restart).
                if cluster is not None:
                    cluster.crash()
                elif not dbs[0].crashed:
                    dbs[0].crash()
                restart_attempts = restart_until_recovered(dbs, recovery_mode)
            if verifier is not None:
                verifier.detach()
                verifier.verify()
            try:
                workload.check_invariants()
            except AssertionError as exc:
                raise TortureFailure(str(exc)) from exc
            if cluster is not None and cluster.twopc.pending_gtids():
                raise TortureFailure(
                    f"recovery left distributed txns in flight: "
                    f"{cluster.twopc.pending_gtids()}"
                )
            digests = [logical_digest(db) for db in dbs]
            self._check_recovery_stability(dbs, recovery_mode, digests)
            self._check_fault_accounting(dbs, injector)
            if cluster is not None:
                # The SLB's commit tally is stable: it survives the crash.
                committed = sum(db.slb.commits for db in dbs)
                digest = "|".join(f"{sid}:{d[:16]}" for sid, d in enumerate(digests))
            else:
                committed = self._count_history(dbs[0])
                digest = digests[0]
        finally:
            for db in dbs:
                remove_latency(db)
                db.close()
        return RoundResult(
            seed=spec.seed,
            kind=spec.kind,
            engine=spec.engine,
            workers=spec.workers,
            committed=committed,
            crashes_fired=injector.crashes_fired,
            faults_fired=injector.faults_fired,
            latency_fired=injector.latency_fired,
            restart_attempts=restart_attempts,
            verified_by="invariants" if verifier is None else "digest",
            digest=digest,
            host_seconds=0.0,
            shards=spec.shards,
            condense=spec.condense,
        )

    # -- phases ---------------------------------------------------------------

    def _install_latency(
        self, dbs: list[Database], injector: ChaosEngine, rng: random.Random
    ) -> None:
        """One seeded pair of bridge scales, on every database of the round."""
        disk_scale = rng.uniform(0.002, 0.01)
        cpu_scale = rng.uniform(1.0, 8.0)
        for db in dbs:
            install_latency(
                db,
                injector,
                disk_scale=disk_scale,
                cpu_scale=cpu_scale,
                jitter=(0.0, 0.0005),
            )

    def _submit_debit_credits(
        self, scheduler: Scheduler, workload: DebitCreditWorkload, rng: random.Random
    ) -> None:
        for i in range(POOL_SCRIPTS):
            aid = rng.randrange(workload.accounts)
            # the id is minted here, not in the body, so the tail mints
            # fresh ones whether or not every pool script committed
            scheduler.submit(
                workload.script(aid, workload.next_history_id()), name=f"torture-{i}"
            )

    # -- checks ---------------------------------------------------------------

    def _count_history(self, db: Database) -> int:
        with db.transaction() as txn:
            return sum(1 for _ in db.table("history").scan(txn))

    def _check_recovery_stability(
        self, dbs: list[Database], mode: RecoveryMode, digests: list[str]
    ) -> None:
        """Recovery must be a fixed point on every database of the round:
        crash again with no new work, recover, and land on byte-identical
        digests."""
        for db in dbs:
            db.crash()
        restart_until_recovered(dbs, mode)
        again = [logical_digest(db) for db in dbs]
        if again != digests:
            changed = [
                f"{i}: {b[:16]}… != first {a[:16]}…"
                for i, (a, b) in enumerate(zip(digests, again))
                if a != b
            ]
            raise TortureFailure(
                f"recovery is not stable: second recovery digest of database "
                f"{'; '.join(changed)}"
            )

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
        engine: str = "threaded",
        workers: int = 4,
        shards: int = 1,
        condense: bool = False,
        on_result=None,
    ) -> list[RoundResult]:
        """Run every (seed, kind) combination; the first failure raises
        with its reproducing seed, so a returned list means all passed."""
        results = []
        for seed in seeds:
            for kind in kinds:
                result = self.run_round(
                    RoundSpec(seed, kind, engine, workers, shards, condense)
                )
                if on_result is not None:
                    on_result(result)
                results.append(result)
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
    parser.add_argument("--engine", choices=("sim", "threaded"), default="threaded")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run each round against a cluster of this many shard nodes",
    )
    parser.add_argument(
        "--condense",
        action="store_true",
        help="enable background condensing for every round, putting the "
        "condense crash points and the shadow-image restart path in play "
        "(docs/CONDENSING.md)",
    )
    parser.add_argument(
        "--log", default=None, help="append one JSON line per round here"
    )
    args = parser.parse_args(argv)

    log_file = open(args.log, "a", encoding="utf-8") if args.log else None
    harness = TortureHarness()

    def report(result: RoundResult) -> None:
        line = result.to_json()
        if log_file is not None:
            log_file.write(json.dumps(line) + "\n")
            log_file.flush()
        topology = "" if result.shards == 1 else f" shards={result.shards}"
        if result.condense:
            topology += " condense"
        print(
            f"round seed={result.seed} kind={result.kind} "
            f"engine={result.engine}{topology} ok: {result.committed} commits, "
            f"{result.crashes_fired} crashes / {result.faults_fired} faults "
            f"/ {result.latency_fired} latency fires, "
            f"verified by {result.verified_by}"
        )

    try:
        harness.run_rounds(
            seeds=[args.seed + i for i in range(args.rounds)],
            kinds=tuple(args.kinds),
            engine=args.engine,
            workers=args.workers,
            shards=args.shards,
            condense=args.condense,
            on_result=report,
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
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
