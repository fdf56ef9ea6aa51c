"""Exact Python call counts for the host benchmark's five workloads.

Runs each workload of ``benchmarks/host/workloads.py`` once, untimed, on a
default :class:`~repro.Database`: its set-up, then every timed operation
in order with no crash between segments, then one crash epilogue (crash,
on-demand restart, the first transaction, full recovery).  The operations
and the epilogue run under :func:`sys.setprofile`, and the tool prints
their Python function calls (``"call"`` profile events, generator
resumptions included) per transaction and per restart, in total, in
``repro``'s own code, and by ``repro`` package (``other`` is the standard
library and the workload's own code), and the partitions the epilogue
had rebuilt when its first transaction committed.  Set-up is not
counted.  ``--by function`` also prints the :data:`TOP_FUNCTIONS`
functions that make the most calls per transaction, each with its
package.

A count has no noise: two runs of one tree give the same numbers, on any
host with the same Python minor version.  It is a proxy for host time,
not a claim; ``benchmarks/host/run.py`` still measures the time.

``--profile`` adds, after every count, two timed runs of each workload's
operations on a fresh database: one untraced, one under :mod:`cProfile`.
It prints the traced run's self time per transaction (µs, a function's
own time without its callees') by ``repro`` package and for the
:data:`TOP_FUNCTIONS` functions with the most, labelled *traced* with
its overhead, the traced run's wall time over the untraced run's: a
profiler inflates a function's time by its calls, so read shares, not
absolute µs.  Without it nothing is timed.

    PYTHONPATH=src python -m tools.callcount              # all five
    PYTHONPATH=src python -m tools.callcount --check      # and the ceilings
    PYTHONPATH=src python -m tools.callcount --by function
    PYTHONPATH=src python -m tools.callcount --profile    # and traced self µs
    PYTHONPATH=src python -m tools.callcount --scale 0.02 --json
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import sys
import time
from collections import Counter
from pathlib import Path

_HOST = Path(__file__).resolve().parents[1] / "benchmarks" / "host"

#: The run the recorded counts come from: seed and scale (a fifth of a
#: full run: 1 000 ``debit_credit`` transactions).
SEED = 1987
SCALE = 0.2

#: Calls per transaction in ``repro``'s own code no workload may exceed
#: (``--check``, at ``SCALE``; :data:`RESTART_CEILINGS` per restart).
#: They leave out ``other``, whose count moves with the standard
#: library's patch release.  Measured on CPython 3.11.7 at 260.74, 83.19,
#: 485.43, 94.51 and 446.75; each ceiling leaves about 1 % for a change
#: that has to add a call.  The totals, ``other`` included, were 267.90
#: on ``debit_credit`` (the forward path's target is 260), 86.12 on
#: ``point_read`` and 504.19 on ``mixed_churn`` (target 480).
CEILINGS = {
    "debit_credit": 263.4,
    "point_read": 84.0,
    "mixed_churn": 490.3,
    "crash_restart": 95.5,
    "scripted_command": 451.2,
}

#: The same for the crash epilogue's calls in ``repro``'s own code, per
#: restart: measured at 2 647, 1 219, 1 846, 1 289 and 14 644, with about
#: 1 % over each.
RESTART_CEILINGS = {
    "debit_credit": 2674,
    "point_read": 1231,
    "mixed_churn": 1864,
    "crash_restart": 1302,
    "scripted_command": 14790,
}

#: Partitions the crash epilogue has rebuilt when its first transaction
#: has committed (the catalog's, the ones that transaction touched, and
#: what its pump restored): exact, so each ceiling is the count itself.
FIRST_TXN_CEILINGS = {
    "debit_credit": 4,
    "point_read": 4,
    "mixed_churn": 4,
    "crash_restart": 4,
    "scripted_command": 5,
}

#: The functions ``--by function`` prints per workload.
TOP_FUNCTIONS = 20


def _workloads() -> dict:
    if str(_HOST) not in sys.path:
        sys.path.insert(0, str(_HOST))
    from workloads import WORKLOADS

    return WORKLOADS


def _package(filename: str) -> str:
    """``repro.<package>`` of a source file, or ``other``."""
    parts = Path(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 2 < len(parts):
            return parts[index + 1]
        return "repro"
    return "other"


class _Profile:
    """Counts ``call`` events per code object while installed."""

    def __init__(self):
        self.codes: Counter = Counter()

    def __enter__(self) -> "_Profile":
        codes = self.codes

        def profile(frame, event, arg):
            if event == "call":
                codes[frame.f_code] += 1

        sys.setprofile(profile)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)

    def by_package(self) -> Counter:
        packages: Counter = Counter()
        for code, calls in self.codes.items():
            packages[_package(code.co_filename)] += calls
        return packages

    def by_function(self) -> list:
        """``[package, "module.qualname", calls]``, most calls first."""
        functions: Counter = Counter()
        for code, calls in self.codes.items():
            functions[_function_name(code)] += calls
        ranked = sorted(functions.items(), key=lambda item: (-item[1], item[0]))
        return [[package, name, calls] for (package, name), calls in ranked]


def _function_name(code) -> tuple[str, str]:
    """``(package, "module.qualname")`` of a code object."""
    qualname = getattr(code, "co_qualname", code.co_name)  # 3.11 and later
    return _package(code.co_filename), f"{Path(code.co_filename).stem}.{qualname}"


def _operations(name: str, scale: float):
    """``name``'s workload, a fresh default database with its set-up done,
    and its operations in order."""
    from repro import Database

    workload = _workloads()[name](SEED, scale)
    db = Database()
    workload.setup(db)
    gc.collect()
    return workload, db, [op for segment in workload.segments for op in segment]


def count(name: str, *, scale: float = SCALE) -> dict:
    """One workload's calls: ``{"transactions", "per_txn", "per_restart",
    "first_txn_partitions", "functions"}``, each per-unit entry
    ``{"total", "repro", package: calls}``; ``functions`` is
    :meth:`_Profile.by_function` over every transaction, not per
    transaction."""
    from repro import RecoveryMode

    workload, db, operations = _operations(name, scale)
    execute = workload.execute
    with _Profile() as forward:
        for op in operations:
            execute(db, op)
    with _Profile() as restart:
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        # the last segment's probe: the value the run ended with
        workload.first_txn(db, len(workload.segments) - 1)
        first_txn_partitions = coordinator.partitions_recovered
        coordinator.recover_everything()
    db.close()
    return {
        "transactions": len(operations),
        "per_txn": _per_unit(forward.by_package(), len(operations)),
        "per_restart": _per_unit(restart.by_package(), 1),
        "first_txn_partitions": first_txn_partitions,
        "functions": forward.by_function(),
    }


def traced(name: str, *, scale: float = SCALE) -> dict:
    """One workload's operations run twice, each on a fresh database: once
    untraced, once under cProfile.  ``{"overhead", "self_us_per_txn",
    "functions"}``: the traced wall time over the untraced one, the self
    µs per transaction by package as :func:`_per_unit` gives them, and
    ``[package, "module.qualname", self µs]`` over every transaction,
    most first (a C function is ``other``, named as cProfile names it)."""
    walls = []
    profiler = cProfile.Profile()
    for profile in (None, profiler):
        workload, db, operations = _operations(name, scale)
        execute = workload.execute
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        for op in operations:
            execute(db, op)
        if profile is not None:
            profile.disable()
        walls.append(time.perf_counter() - start)
        db.close()
    functions: Counter = Counter()
    for entry in profiler.getstats():
        code = entry.code
        key = ("other", code) if isinstance(code, str) else _function_name(code)
        functions[key] += entry.inlinetime * 1e6
    packages: Counter = Counter()
    for (package, _), micros in functions.items():
        packages[package] += micros
    ranked = sorted(functions.items(), key=lambda item: (-item[1], item[0]))
    return {
        "overhead": round(walls[1] / walls[0], 2),
        "self_us_per_txn": _per_unit(packages, len(operations)),
        "functions": [[package, function, micros] for (package, function), micros in ranked],
    }


def _per_unit(packages: Counter, units: int) -> dict:
    shares = {name: round(calls / units, 2) for name, calls in packages.most_common()}
    total = sum(packages.values())
    return {
        "total": round(total / units, 2),
        "repro": round((total - packages["other"]) / units, 2),
        **shares,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--json", action="store_true", help="one JSON object per workload")
    parser.add_argument(
        "--check", action="store_true", help="exit 1 when a workload exceeds its ceiling"
    )
    parser.add_argument(
        "--by", choices=("package", "function"), default="package",
        help=f"function: also the top {TOP_FUNCTIONS} functions per transaction",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also a traced (cProfile) run: self µs per transaction, and its overhead",
    )
    args = parser.parse_args(argv)
    if args.check and args.scale != SCALE:
        parser.error(f"--check holds the ceilings recorded at --scale {SCALE}")
    # every count first: a timed run fills caches the next count would fill
    results = {name: count(name, scale=args.scale) for name in _workloads()}
    if args.profile:
        for name, result in results.items():
            result["traced"] = traced(name, scale=args.scale)
    over = []
    for name, result in results.items():
        per_txn = result["per_txn"]
        if args.by == "package":
            result.pop("functions", None)
        if args.json:
            print(json.dumps({"workload": name, **result}))
        else:
            print(
                f"{name}: {per_txn['total']:.2f} calls/txn ({per_txn['repro']:.2f} in repro) "
                f"over {result['transactions']} transactions, "
                f"{result['per_restart']['total']:.0f} calls/restart, "
                f"{result['first_txn_partitions']} partitions rebuilt by the first commit"
            )
            print("  per txn: " + ", ".join(
                f"{package} {calls:.2f}"
                for package, calls in per_txn.items()
                if package not in ("total", "repro")
            ))
            for package, function, calls in result.get("functions", [])[:TOP_FUNCTIONS]:
                print(f"  {calls / result['transactions']:8.2f}  {package:<12} {function}")
            if "traced" in result:
                _print_traced(result["traced"], result["transactions"])
        per_restart = result["per_restart"]["repro"]
        if args.check and per_txn["repro"] > CEILINGS[name]:
            over.append(
                f"{name}: {per_txn['repro']:.2f} repro calls/txn > ceiling {CEILINGS[name]:g}"
            )
        if args.check and per_restart > RESTART_CEILINGS[name]:
            over.append(
                f"{name}: {per_restart:.0f} repro calls/restart > ceiling "
                f"{RESTART_CEILINGS[name]}"
            )
        if args.check and result["first_txn_partitions"] > FIRST_TXN_CEILINGS[name]:
            over.append(
                f"{name}: {result['first_txn_partitions']} partitions rebuilt by the first "
                f"commit > ceiling {FIRST_TXN_CEILINGS[name]}"
            )
    for line in over:
        print(f"OVER CEILING {line}", file=sys.stderr)
    return 1 if over else 0


def _print_traced(traced: dict, units: int) -> None:
    self_us = traced["self_us_per_txn"]
    print(
        f"  traced (cProfile, {traced['overhead']:.2f}x the untraced wall time): "
        f"self {self_us['total']:.2f} µs/txn ({self_us['repro']:.2f} in repro)"
    )
    print("  traced self µs per txn: " + ", ".join(
        f"{package} {micros:.2f}"
        for package, micros in self_us.items()
        if package not in ("total", "repro")
    ))
    for package, function, micros in traced["functions"][:TOP_FUNCTIONS]:
        print(f"  {micros / units:8.2f} µs  {package:<12} {function}")


if __name__ == "__main__":
    sys.exit(main())
