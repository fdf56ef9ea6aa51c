"""Experiment SA — the static analyzer's whole-tree time budget.

repro-check runs on every pre-commit and as a blocking CI job, so its
cost is paid dozens of times a day.  The whole-program flow rules
(RC07 and RC10) parse every file and build a project-wide call graph and
a CFG with dominance per function — all of which must stay cheap enough
that nobody is tempted to skip the hook.

Shape requirement: one full run over ``src/`` **and** ``tools/`` with
all seven rules (RC02–RC07 and RC10) completes in under :data:`TIME_BUDGET_SECONDS` wall-clock
seconds, and the tree is clean (the acceptance criterion the CI job
enforces).  Per-rule timings land in ``benchmarks/results/BENCH_repro_check.json`` so a
rule that regresses is identifiable from the CI artifact alone.
"""

import json
import time
from pathlib import Path

from tools.repro_check.engine import run

from _results import results_path

TIME_BUDGET_SECONDS = 10.0

REPO = Path(__file__).resolve().parent.parent
RESULTS_PATH = results_path("BENCH_repro_check.json")


def bench_repro_check(benchmark, report):
    def analyze():
        start = time.perf_counter()
        result = run([REPO / "src", REPO / "tools"], timing=True)
        return result, time.perf_counter() - start

    result, wall = benchmark(analyze)

    timings = dict(sorted(result.timings.items(), key=lambda kv: -kv[1]))
    report(
        "repro-check — whole-tree analyzer budget",
        [
            f"{label:12s} {seconds * 1e3:10,.1f} ms"
            for label, seconds in timings.items()
        ]
        + [
            "",
            f"findings: {len(result.findings)}   parse errors: {len(result.errors)}",
            f"calls resolved/unresolved: "
            f"{result.flow_stats.get('calls_resolved', 0)}/"
            f"{result.flow_stats.get('calls_unresolved', 0)}",
            f"wall clock: {wall:.2f}s (budget {TIME_BUDGET_SECONDS:.0f}s)",
        ],
    )

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "benchmark": "repro_check",
                "wall_seconds": wall,
                "budget_seconds": TIME_BUDGET_SECONDS,
                "findings": len(result.findings),
                "errors": len(result.errors),
                "flow_stats": result.flow_stats,
                "rule_timings_seconds": {
                    k: round(v, 4) for k, v in timings.items()
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert result.errors == [], result.errors
    assert result.findings == [], [f.render() for f in result.findings]
    assert wall < TIME_BUDGET_SECONDS, (
        f"whole-tree repro-check took {wall:.2f}s, "
        f"over the {TIME_BUDGET_SECONDS:.0f}s budget"
    )
