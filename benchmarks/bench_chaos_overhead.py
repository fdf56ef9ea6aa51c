"""Experiment CH — the chaos machinery's hot-path budget.

The crash-point hooks (`repro.sim.chaos.crash_point`) and the CRC32
frames on stable blocks (`repro.common.checksum`) live permanently on
the paths Graph 2 models — commit, the sorting step, the page flush,
the checkpoint.  That is only acceptable if, with no injector active,
their combined cost is a rounding error on a transaction.

Shape requirement: disabled crash points plus checksum sealing add less
than 5 % to the measured wall-clock cost of a debit/credit transaction
(the live system behind the Graph-2 transaction-rate artefact).  Note
that in *simulated* time the machinery is exactly free — hooks charge no
Table 2 instructions — so Graph 2's modelled 4,000 txn/s headline is
untouched by construction; this benchmark bounds the real-world cost of
keeping the hooks compiled in.

Also measured (reported, not budgeted): the transient-fault hooks on the
duplex I/O retry loops, and the *plan-dispatch* path — a
:class:`~repro.sim.chaos.ChaosEngine` armed with rules for some other
point, pricing what every unrelated hook passage pays while a plan is
live.  Results land in ``benchmarks/results/BENCH_chaos_overhead.json`` for CI artifacts.
"""

import json
import time

from repro import Database, SystemConfig
from repro.common.checksum import open_frame, seal_frame
from repro.sim.chaos import (
    LATENCY,
    ChaosEngine,
    ChaosPlan,
    ChaosRule,
    chaos,
    crash_point,
    fault_point,
    registered_crash_points,
)
from repro.workloads.debit_credit import DebitCreditWorkload

OVERHEAD_BUDGET = 0.05
TRANSACTIONS = 400

from _results import results_path

RESULTS_PATH = results_path("BENCH_chaos_overhead.json")


def _config():
    return SystemConfig(
        log_page_size=512,
        update_count_threshold=16,
        log_window_pages=64,
        log_window_grace_pages=8,
    )


def _bank(db):
    workload = DebitCreditWorkload(
        db, branches=2, tellers_per_branch=2, accounts_per_branch=25, seed=11
    )
    workload.load()
    return workload


def _best_of(runs, fn, *args):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_chaos_overhead(benchmark, report):
    # -- cost of one disabled hook (the permanent tax) -------------------
    hook_iterations = 200_000

    def hooks():
        for _ in range(hook_iterations):
            crash_point("txn.commit.after-slb")

    hook_cost = _best_of(5, hooks) / hook_iterations

    # -- cost of one disabled fault hook (duplex retry loops) ------------
    def fault_hooks():
        for _ in range(hook_iterations):
            fault_point("log-disk.write")

    fault_hook_cost = _best_of(5, fault_hooks) / hook_iterations

    # -- cost of a hook passage while a plan is *armed* ------------------
    # The engine's rules target a different point, so this prices the
    # dispatch miss (the passage counted under the engine's mutex) that
    # every unrelated hook pays for the whole time a ChaosPlan is live.
    other_point = next(
        name
        for name in sorted(registered_crash_points())
        if name != "txn.commit.after-slb"
    )
    engine = ChaosEngine(
        ChaosPlan(seed=7, rules=(ChaosRule(other_point, LATENCY, probability=0.5),))
    )
    with chaos(engine):
        dispatch_cost = _best_of(5, hooks) / hook_iterations

    # -- cost of one checksum frame on a log-page-sized payload ----------
    payload = b"\xa5" * _config().log_page_size
    frame_iterations = 20_000

    def frames():
        for _ in range(frame_iterations):
            open_frame(seal_frame(payload))

    frame_cost = _best_of(5, frames) / frame_iterations

    # -- how many of each does one transaction actually incur? -----------
    # An engine with no rules counts every hook passage without
    # injecting (its upkeep is why counting and timing are separate
    # runs).  Frames sealed = duplexed log writes + archive pages +
    # checkpoint images, read straight off the system counters.
    counting_db = Database(_config())
    counting_workload = _bank(counting_db)
    counter = ChaosEngine(ChaosPlan(seed=0))
    with chaos(counter):
        counting_workload.run(TRANSACTIONS)
    hooks_per_txn = sum(counter.hits().values()) / TRANSACTIONS
    processor = counting_db.recovery_processor
    frames_per_txn = (
        processor.pages_flushed
        + processor.archive_pages_written
        + counting_db.checkpoints.checkpoints_taken
    ) / TRANSACTIONS

    # -- measured wall-clock transaction cost, machinery in place --------
    def run_workload():
        db = Database(_config())
        workload = _bank(db)
        start = time.perf_counter()
        workload.run(TRANSACTIONS)
        return (time.perf_counter() - start) / TRANSACTIONS

    txn_cost = benchmark(run_workload)

    chaos_cost = hooks_per_txn * hook_cost + frames_per_txn * frame_cost
    overhead = chaos_cost / txn_cost
    # Same per-transaction accounting with a live (non-matching) plan: the
    # counted dispatch miss replaces the bare None check on every hook.
    armed_cost = hooks_per_txn * dispatch_cost + frames_per_txn * frame_cost
    armed_overhead = armed_cost / txn_cost
    report(
        "Chaos machinery — hot-path overhead budget",
        [
            f"disabled crash_point hook   {hook_cost * 1e9:10,.1f} ns/call",
            f"disabled fault_point hook   {fault_hook_cost * 1e9:10,.1f} ns/call",
            f"armed-plan dispatch miss    {dispatch_cost * 1e9:10,.1f} ns/call",
            f"seal+open 512 B frame       {frame_cost * 1e9:10,.1f} ns/frame",
            f"hooks per transaction       {hooks_per_txn:10.2f}",
            f"frames per transaction      {frames_per_txn:10.2f}",
            f"transaction wall cost       {txn_cost * 1e6:10,.1f} us",
            f"chaos cost per transaction  {chaos_cost * 1e6:10,.3f} us",
            "",
            f"overhead: {overhead:.3%} of transaction cost "
            f"(budget {OVERHEAD_BUDGET:.0%}) — hooks stay on the hot path; "
            f"{armed_overhead:.3%} with a non-matching plan armed",
        ],
    )

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "benchmark": "chaos_overhead",
                "transactions": TRANSACTIONS,
                "hook_cost_ns": hook_cost * 1e9,
                "fault_hook_cost_ns": fault_hook_cost * 1e9,
                "armed_dispatch_cost_ns": dispatch_cost * 1e9,
                "frame_cost_ns": frame_cost * 1e9,
                "hooks_per_txn": hooks_per_txn,
                "frames_per_txn": frames_per_txn,
                "txn_cost_us": txn_cost * 1e6,
                "overhead": overhead,
                "armed_overhead": armed_overhead,
                "budget": OVERHEAD_BUDGET,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert hooks_per_txn > 0, "workload never passed an instrumented transition"
    assert frames_per_txn > 0, "workload never sealed a stable block"
    assert overhead < OVERHEAD_BUDGET, (
        f"chaos machinery costs {overhead:.2%} per transaction, "
        f"over the {OVERHEAD_BUDGET:.0%} budget"
    )
