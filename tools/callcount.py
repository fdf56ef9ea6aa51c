"""Exact Python call counts for the host benchmark's five workloads.

Runs each workload of ``benchmarks/host/workloads.py`` once, untimed, on a
default :class:`~repro.Database`: its set-up, then every timed operation
in order with no crash between segments, then one crash epilogue (crash,
on-demand restart, the first transaction, full recovery).  The operations
and the epilogue run under :func:`sys.setprofile`, and the tool prints
their Python function calls (``"call"`` profile events, generator
resumptions included) per transaction and per restart, in total, in
``repro``'s own code, and by ``repro`` package (``other`` is the standard
library and the workload's own code).  Set-up is not counted.  ``--by
function`` also prints the :data:`TOP_FUNCTIONS` functions that make the
most calls per transaction, each with its package.

A count has no noise: two runs of one tree give the same numbers, on any
host with the same Python minor version.  It is a proxy for host time,
not a claim; ``benchmarks/host/run.py`` still measures the time.

    PYTHONPATH=src python -m tools.callcount              # all five
    PYTHONPATH=src python -m tools.callcount --check      # and the ceilings
    PYTHONPATH=src python -m tools.callcount --by function
    PYTHONPATH=src python -m tools.callcount --scale 0.02 --json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from pathlib import Path

_HOST = Path(__file__).resolve().parents[1] / "benchmarks" / "host"

#: The run the recorded counts come from: seed and scale (a fifth of a
#: full run: 1 000 ``debit_credit`` transactions).
SEED = 1987
SCALE = 0.2

#: Calls per transaction in ``repro``'s own code no workload may exceed
#: (``--check``, at ``SCALE``; :data:`RESTART_CEILINGS` per restart).  They leave out ``other``, whose count moves
#: with the standard library's patch release.  Measured on CPython 3.11.7
#: at 302.14, 83.19, 580.09, 106.51 and 469.18; each ceiling leaves about
#: 1 % for a change that has to add a call.  The totals, ``other``
#: included, were 309.30 on ``debit_credit`` (the forward path's target is
#: 430), 86.12 on ``point_read`` and 598.85 on ``mixed_churn`` (target 700).
CEILINGS = {
    "debit_credit": 305.2,
    "point_read": 84.0,
    "mixed_churn": 586.0,
    "crash_restart": 107.6,
    "scripted_command": 474.0,
}

#: The same for the crash epilogue's calls in ``repro``'s own code, per
#: restart: measured at 2 708, 1 247, 1 889, 1 320 and 15 297, with about
#: 1 % over each.
RESTART_CEILINGS = {
    "debit_credit": 2735,
    "point_read": 1260,
    "mixed_churn": 1910,
    "crash_restart": 1335,
    "scripted_command": 15450,
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
            qualname = getattr(code, "co_qualname", code.co_name)  # 3.11 and later
            name = f"{Path(code.co_filename).stem}.{qualname}"
            functions[_package(code.co_filename), name] += calls
        ranked = sorted(functions.items(), key=lambda item: (-item[1], item[0]))
        return [[package, name, calls] for (package, name), calls in ranked]


def count(name: str, *, scale: float = SCALE) -> dict:
    """One workload's calls: ``{"transactions", "per_txn", "per_restart",
    "functions"}``, each per-unit entry ``{"total", "repro", package:
    calls}``; ``functions`` is :meth:`_Profile.by_function` over every
    transaction, not per transaction."""
    from repro import Database, RecoveryMode

    workload = _workloads()[name](SEED, scale)
    db = Database()
    workload.setup(db)
    gc.collect()
    operations = [op for segment in workload.segments for op in segment]
    execute = workload.execute
    with _Profile() as forward:
        for op in operations:
            execute(db, op)
    with _Profile() as restart:
        db.crash()
        coordinator = db.restart(RecoveryMode.ON_DEMAND)
        # the last segment's probe: the value the run ended with
        workload.first_txn(db, len(workload.segments) - 1)
        coordinator.recover_everything()
    db.close()
    return {
        "transactions": len(operations),
        "per_txn": _per_unit(forward.by_package(), len(operations)),
        "per_restart": _per_unit(restart.by_package(), 1),
        "functions": forward.by_function(),
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
    args = parser.parse_args(argv)
    if args.check and args.scale != SCALE:
        parser.error(f"--check holds the ceilings recorded at --scale {SCALE}")
    over = []
    for name in _workloads():
        result = count(name, scale=args.scale)
        per_txn = result["per_txn"]
        if args.by == "package":
            result.pop("functions", None)
        if args.json:
            print(json.dumps({"workload": name, **result}))
        else:
            print(
                f"{name}: {per_txn['total']:.2f} calls/txn ({per_txn['repro']:.2f} in repro) "
                f"over {result['transactions']} transactions, "
                f"{result['per_restart']['total']:.0f} calls/restart"
            )
            print("  per txn: " + ", ".join(
                f"{package} {calls:.2f}"
                for package, calls in per_txn.items()
                if package not in ("total", "repro")
            ))
            for package, function, calls in result.get("functions", [])[:TOP_FUNCTIONS]:
                print(f"  {calls / result['transactions']:8.2f}  {package:<12} {function}")
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
    for line in over:
        print(f"OVER CEILING {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
