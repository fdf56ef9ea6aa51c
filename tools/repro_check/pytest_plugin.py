"""pytest plugin: ``--lock-audit`` — dynamic lock-order auditing.

Runs the whole test session with the
:class:`repro.concurrency.audit.LockOrderRecorder` installed, so every
lock and latch acquisition made by every test feeds one global
lock-order graph.  At session end the plugin reports:

* **lock-order cycles** — two code paths somewhere in the suite acquired
  ordering nodes in opposite orders (a latent deadlock, even if no test
  schedule happened to interleave them fatally);
* **latches held across crash points** — section 2.5's rule: a latch
  holder that can die leaves the protected structure wedged;
* lock-acquired-under-latch tallies (informational: a lock-manager call
  inside a latch stretches its critical section).

Cycles or latch-crash violations fail the session (exit status 1) even
when every individual test passed.

Two cross-checks close the loop with the static analysis (PR 7):

* **baseline gate** — the observed edge set (normalised: ``relation:N``
  collapses to ``relation:*``) is diffed against the committed
  ``tools/repro_check/baselines/lock_order.json``; a *new* edge fails
  the session until the baseline is deliberately regenerated, so lock
  -ordering changes are always a reviewed decision;
* **static subset** (``--lock-audit-static-check``) — every observed
  edge must appear in the static lock-order graph RC09 builds over
  ``src/``.  A dynamic edge the static analyzer cannot see means the
  analyzer has a resolution hole; static-only edges are merely
  "orderings untested by tier-1" and are reported as info.

Ownership state (who holds what) is reset between tests because txn ids
restart per test database; the ordering *graph* accumulates across the
whole session — that cross-test union is the point of the audit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[2]
_DEFAULT_BASELINE = Path(__file__).resolve().parent / "baselines" / "lock_order.json"
_REGEN_COMMAND = (
    "PYTHONPATH=src python -m pytest -q --lock-audit --lock-audit-update-baseline"
)


def pytest_addoption(parser):
    group = parser.getgroup("repro-check")
    group.addoption(
        "--lock-audit",
        action="store_true",
        default=False,
        help="record every lock/latch acquisition and fail the session on "
        "lock-order cycles or latches held across crash points",
    )
    group.addoption(
        "--lock-audit-baseline",
        default=str(_DEFAULT_BASELINE),
        metavar="PATH",
        help="committed edge-set baseline to diff observed edges against "
        "(default: tools/repro_check/baselines/lock_order.json)",
    )
    group.addoption(
        "--lock-audit-update-baseline",
        action="store_true",
        default=False,
        help="rewrite the baseline with this session's observed edges "
        "instead of failing on new ones (run the FULL tier-1 suite)",
    )
    group.addoption(
        "--lock-audit-static-check",
        action="store_true",
        default=False,
        help="assert observed edges are a subset of the static lock-order "
        "graph built over src/ (RC09); fails on analyzer holes",
    )


def _normalized_edges(recorder) -> set[tuple[str, str]]:
    """Observed ordering edges in the static graph's vocabulary
    (``relation:<seg>`` collapses to ``relation:*``)."""
    from tools.repro_check.flow.locks import normalize_dynamic_node

    return {
        (normalize_dynamic_node(edge.held), normalize_dynamic_node(edge.acquired))
        for edge in recorder.edges()
    }


def _audit_enabled(config) -> bool:
    return bool(config.getoption("--lock-audit"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_lock_audit: exclude this test from --lock-audit recording "
        "(for tests that deliberately violate the lock discipline)",
    )
    if not _audit_enabled(config):
        return
    from repro.concurrency import audit
    from repro.sim.chaos import set_crash_point_observer

    recorder = audit.LockOrderRecorder()
    audit.activate(recorder)
    set_crash_point_observer(recorder.on_crash_point)
    config._lock_audit_recorder = recorder


def _pause(config) -> None:
    from repro.concurrency import audit
    from repro.sim.chaos import set_crash_point_observer

    if audit.active_recorder() is not None:
        set_crash_point_observer(None)
        audit.deactivate()


def _resume(config) -> None:
    from repro.concurrency import audit
    from repro.sim.chaos import set_crash_point_observer

    recorder = config._lock_audit_recorder
    if audit.active_recorder() is None:
        audit.activate(recorder)
        set_crash_point_observer(recorder.on_crash_point)


# tryfirst: the pause must land before fixture setup runs, so a marked
# test's fixtures can install their own recorder.
@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    recorder = getattr(item.config, "_lock_audit_recorder", None)
    if recorder is None:
        return
    # txn/owner ids restart with every test's fresh database; carrying
    # held-sets across tests would fabricate edges between unrelated
    # lock instances.
    recorder.reset_ownership()
    if item.get_closest_marker("no_lock_audit") is not None:
        _pause(item.config)


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item):
    recorder = getattr(item.config, "_lock_audit_recorder", None)
    if recorder is None:
        return
    if item.get_closest_marker("no_lock_audit") is not None:
        recorder.reset_ownership()
        _resume(item.config)


def pytest_unconfigure(config):
    recorder = getattr(config, "_lock_audit_recorder", None)
    if recorder is None:
        return
    from repro.concurrency import audit
    from repro.sim.chaos import set_crash_point_observer

    set_crash_point_observer(None)
    audit.deactivate()
    config._lock_audit_recorder = None


def _cross_check(config) -> list[str]:
    """Baseline diff + optional static-subset check.  Returns failure
    messages (cached; empty list means the gates passed)."""
    cached = getattr(config, "_lock_audit_failures", None)
    if cached is not None:
        return cached
    recorder = config._lock_audit_recorder
    failures: list[str] = []
    infos: list[str] = []
    observed = _normalized_edges(recorder)

    baseline_path = Path(config.getoption("--lock-audit-baseline"))
    if config.getoption("--lock-audit-update-baseline"):
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "comment": (
                "Observed dynamic lock-order edges (relation ids collapsed "
                f"to relation:*).  Regenerate with: {_REGEN_COMMAND}"
            ),
            "edges": [
                {"held": held, "acquired": acquired}
                for held, acquired in sorted(observed)
            ],
        }
        baseline_path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        infos.append(
            f"baseline updated: {len(observed)} edges -> {baseline_path}"
        )
    else:
        if baseline_path.exists():
            data = json.loads(baseline_path.read_text(encoding="utf-8"))
            known = {(e["held"], e["acquired"]) for e in data.get("edges", [])}
            new = sorted(observed - known)
            if new:
                failures.append(
                    "new lock-order edges not in the committed baseline:\n"
                    + "\n".join(f"  {held} -> {acquired}" for held, acquired in new)
                    + "\nif intentional, regenerate with: "
                    + _REGEN_COMMAND
                )
            else:
                infos.append(
                    f"baseline ok: {len(observed)} observed edges, all in "
                    f"{baseline_path.name}"
                )
        else:
            failures.append(
                f"lock-order baseline {baseline_path} is missing; create it "
                f"with: {_REGEN_COMMAND}"
            )

    if config.getoption("--lock-audit-static-check"):
        static_edges = _static_edge_set()
        missing = sorted(observed - static_edges)
        if missing:
            failures.append(
                "dynamic edges missing from the static lock-order graph "
                "(the flow analyzer has a resolution hole):\n"
                + "\n".join(f"  {held} -> {acquired}" for held, acquired in missing)
            )
        else:
            untested = len(static_edges - observed)
            infos.append(
                f"static subset ok: {len(observed)} dynamic edges all in the "
                f"static graph ({untested} static orderings untested by this run)"
            )

    config._lock_audit_failures = failures
    config._lock_audit_infos = infos
    return failures


def _static_edge_set() -> set[tuple[str, str]]:
    """Edges of the static lock-order graph built over ``src/``."""
    from tools.repro_check.engine import SourceFile, discover
    from tools.repro_check.flow.project import FlowProject
    from tools.repro_check.rules.rc09_lock_order import build_lock_order_graph

    sources = []
    for path in discover([_REPO_ROOT / "src"]):
        try:
            sources.append(SourceFile.parse(path))
        except (SyntaxError, UnicodeDecodeError):
            continue
    return build_lock_order_graph(FlowProject(sources)).edge_set()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    recorder = getattr(config, "_lock_audit_recorder", None)
    if recorder is None:
        return
    report = recorder.report()
    terminalreporter.section("lock audit")
    terminalreporter.write_line(report.render())
    if recorder.locks_under_latch:
        terminalreporter.write_line(
            "note: 2PL locks acquired while holding a latch: "
            + ", ".join(
                f"{latch} (x{count})"
                for latch, count in sorted(recorder.locks_under_latch.items())
            )
        )
    failures = _cross_check(config)
    for info in getattr(config, "_lock_audit_infos", []):
        terminalreporter.write_line(f"lock-audit: {info}")
    for failure in failures:
        terminalreporter.write_line(f"lock-audit FAILURE: {failure}")


def pytest_sessionfinish(session, exitstatus):
    recorder = getattr(session.config, "_lock_audit_recorder", None)
    if recorder is None:
        return
    if not recorder.report().ok or _cross_check(session.config):
        session.exitstatus = 1
