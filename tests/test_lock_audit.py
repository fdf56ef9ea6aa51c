"""Tests for the dynamic lock-order recorder behind ``--lock-audit``.

The deliberate-cycle tests construct the textbook A -> B / B -> A
inversion with real :class:`~repro.concurrency.latch.Latch` objects and
assert the recorder reports it; the subprocess test proves the pytest
plugin turns such a report into a non-zero exit status.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.common.types import EntityAddress
from repro.concurrency import audit
from repro.concurrency.audit import LockOrderRecorder, normalize
from repro.concurrency.latch import Latch
from repro.concurrency.locks import LockManager, LockMode
from repro.sim.chaos import crash_point, set_crash_point_observer

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def recorder():
    """An *activated* recorder wired to the real latch/lock hooks."""
    rec = LockOrderRecorder()
    audit.activate(rec)
    set_crash_point_observer(rec.on_crash_point)
    try:
        yield rec
    finally:
        set_crash_point_observer(None)
        audit.deactivate()


class TestNormalize:
    def test_relation_locks_keep_identity(self):
        assert normalize(("rel", 3)) == "relation:3"

    def test_entity_locks_are_excluded(self):
        assert normalize(EntityAddress(1, 2, 3)) is None

    def test_other_resources_are_excluded(self):
        assert normalize("anything") is None
        assert normalize(("relish", 3)) is None


class TestRecorderUnit:
    """Drive the recorder directly, without real locks."""

    def test_consistent_latch_order_is_clean(self):
        rec = LockOrderRecorder()
        for owner in (1, 2):
            rec.on_latch_acquired(owner, "A")
            rec.on_latch_acquired(owner, "B")
            rec.on_latch_released(owner, "B")
            rec.on_latch_released(owner, "A")
        report = rec.report()
        assert report.ok
        assert [(e.held, e.acquired) for e in report.edges] == [
            ("latch:A", "latch:B")
        ]
        assert report.edges[0].count == 2

    def test_inverted_latch_order_is_a_cycle(self):
        rec = LockOrderRecorder()
        rec.on_latch_acquired(1, "A")
        rec.on_latch_acquired(1, "B")
        rec.on_latch_released(1, "B")
        rec.on_latch_released(1, "A")
        rec.on_latch_acquired(2, "B")
        rec.on_latch_acquired(2, "A")
        report = rec.report()
        assert not report.ok
        assert report.cycles == [["latch:A", "latch:B"]]
        rendered = report.render()
        assert "LOCK-ORDER CYCLES" in rendered
        assert "latch:A -> latch:B" in rendered

    def test_no_wait_lock_requests_record_no_edges(self):
        """Every lock request is no-wait and can never join a waits-for
        cycle, so no lock acquisition adds an ordering edge, whatever
        locks or latches are held — but a held relation lock is the
        *held* end of an edge into a latch taken beneath it."""
        rec = LockOrderRecorder()
        rec.on_lock_acquired(1, ("rel", 1))
        rec.on_lock_acquired(1, ("rel", 2))
        rec.on_latch_acquired(2, "A")
        rec.on_lock_acquired(2, ("rel", 3))
        assert rec.report().edges == []
        rec.on_latch_acquired(1, "B")
        assert [(e.held, e.acquired) for e in rec.report().edges] == [
            ("relation:1", "latch:B"),
            ("relation:2", "latch:B"),
        ]

    def test_entity_locks_never_enter_the_graph(self):
        rec = LockOrderRecorder()
        rec.on_lock_acquired(1, ("rel", 1))
        rec.on_lock_acquired(1, EntityAddress(1, 0, 0))
        rec.on_lock_acquired(1, EntityAddress(1, 0, 1))
        report = rec.report()
        assert report.edges == []
        assert report.acquisitions == 3  # still counted

    def test_latch_across_crash_point_is_flagged(self):
        rec = LockOrderRecorder()
        rec.on_latch_acquired(7, "free-list")
        rec.on_crash_point("txn.commit.before-slb")
        rec.on_latch_released(7, "free-list")
        rec.on_crash_point("txn.commit.after-slb")  # nothing held: clean
        report = rec.report()
        assert not report.ok
        (violation,) = report.latch_crash_violations
        assert violation.latch == "latch:free-list"
        assert violation.owner == 7
        assert violation.crash_point == "txn.commit.before-slb"
        assert "LATCHES HELD ACROSS CRASH POINTS" in report.render()

    def test_locks_held_across_crash_points_are_not_flagged(self):
        """Strict 2PL holds locks through the commit write by design."""
        rec = LockOrderRecorder()
        rec.on_lock_acquired(1, ("rel", 1))
        rec.on_crash_point("txn.commit.before-slb")
        assert rec.report().latch_crash_violations == []

    def test_reset_ownership_keeps_edges_forgets_holders(self):
        rec = LockOrderRecorder()
        rec.on_latch_acquired(1, "A")
        rec.on_latch_acquired(1, "B")
        rec.reset_ownership()
        # owner 1's stale "A" must not witness an edge into "C" ...
        rec.on_latch_acquired(1, "C")
        report = rec.report()
        # ... but the pre-reset A -> B edge survives.
        assert [(e.held, e.acquired) for e in report.edges] == [
            ("latch:A", "latch:B")
        ]

    def test_locks_dropped_clears_the_owner(self):
        rec = LockOrderRecorder()
        rec.on_lock_acquired(1, ("rel", 1))
        rec.on_locks_dropped(1)
        rec.on_lock_acquired(1, ("rel", 2))
        assert rec.report().edges == []

    def test_lock_acquired_under_latch_is_tallied(self):
        rec = LockOrderRecorder()
        rec.on_latch_acquired(1, "alloc-map")
        rec.on_lock_acquired(1, EntityAddress(1, 0, 0))
        assert rec.locks_under_latch == {"latch:alloc-map": 1}

    def test_three_node_cycle(self):
        rec = LockOrderRecorder()
        for held, acquired in (("A", "B"), ("B", "C"), ("C", "A")):
            rec.on_latch_acquired(9, held)
            rec.on_latch_acquired(9, acquired)
            rec.reset_ownership()
        assert rec.report().cycles == [["latch:A", "latch:B", "latch:C"]]


@pytest.mark.no_lock_audit  # the fixture installs its own recorder
class TestRecorderWiredToRealPrimitives:
    """The hooks in Latch/LockManager/chaos feed an activated recorder."""

    def test_real_latches_report_deliberate_cycle(self, recorder):
        a, b = Latch("audit-test-A"), Latch("audit-test-B")
        with a.held_by(1), b.held_by(1):
            pass
        with b.held_by(2), a.held_by(2):
            pass
        report = recorder.report()
        assert report.cycles == [
            ["latch:audit-test-A", "latch:audit-test-B"]
        ]

    def test_no_wait_acquire_contributes_no_edge(self, recorder):
        """No acquisition through the real lock manager adds an edge:
        granted, re-entrant, upgraded or refused."""
        locks = LockManager()
        locks.acquire(1, ("rel", 1), LockMode.SHARED)
        assert locks.acquire(1, ("rel", 2), LockMode.SHARED)
        assert locks.acquire(1, ("rel", 2), LockMode.SHARED)
        assert locks.acquire(1, ("rel", 2), LockMode.EXCLUSIVE)
        assert not locks.acquire(2, ("rel", 2), LockMode.SHARED)
        locks.release_all(1)
        report = recorder.report()
        assert report.edges == []
        assert report.acquisitions == 4  # every grant, covered ones included

    def test_early_release_of_a_reentrant_lock_leaves_no_phantom_hold(
        self, recorder
    ):
        """The table holds one entry per (txn, resource) however often it
        was re-requested, so the checkpoint's early release drops it —
        and the recorder must not go on witnessing edges from it."""
        locks = LockManager()
        locks.acquire(1, ("rel", 5), LockMode.SHARED)
        locks.acquire(1, ("rel", 5), LockMode.SHARED)
        locks.release(1, ("rel", 5))
        assert not locks.holds(1, ("rel", 5))
        with Latch("audit-test-phantom").held_by(1):
            pass
        assert recorder.report().edges == []

    def test_crash_point_observer_sees_held_latch(self, recorder):
        latch = Latch("audit-test-crash")
        with latch.held_by(5):
            crash_point("audit.test.point")
        (violation,) = recorder.report().latch_crash_violations
        assert violation.latch == "latch:audit-test-crash"
        assert violation.crash_point == "audit.test.point"

    def test_activate_is_exclusive(self, recorder):
        with pytest.raises(RuntimeError):
            audit.activate(LockOrderRecorder())

    def test_hooks_are_noops_when_inactive(self):
        assert audit.active_recorder() is None
        latch = Latch("audit-test-inactive")
        with latch.held_by(1):
            pass
        audit.lock_acquired(1, ("rel", 1))
        audit.locks_dropped(1)


class TestPytestPlugin:
    """End to end: a passing test with a lock-order inversion must fail
    the session under ``--lock-audit``."""

    CYCLE_TEST = textwrap.dedent(
        """
        from repro.concurrency.latch import Latch

        def test_inverted_latch_order():
            a, b = Latch("plugin-A"), Latch("plugin-B")
            with a.held_by(1), b.held_by(1):
                pass
            with b.held_by(2), a.held_by(2):
                pass
        """
    )

    def _run(self, test_dir: Path, *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO)])
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                "-p",
                "tools.repro_check.pytest_plugin",
                "-p",
                "no:cacheprovider",
                str(test_dir),
                *extra,
            ],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    @staticmethod
    def _empty_baseline(tmp_path: Path) -> Path:
        """A baseline with no edges, so tests exercise the audit itself
        rather than the committed edge set."""
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"edges": []}\n')
        return baseline

    def test_cycle_fails_session_only_under_audit(self, tmp_path):
        (tmp_path / "test_cycle.py").write_text(self.CYCLE_TEST)
        clean = self._run(tmp_path)
        assert clean.returncode == 0, clean.stdout + clean.stderr

        audited = self._run(tmp_path, "--lock-audit")
        assert audited.returncode == 1, audited.stdout + audited.stderr
        assert "LOCK-ORDER CYCLES" in audited.stdout
        assert "latch:plugin-A" in audited.stdout

    def test_no_lock_audit_marker_pauses_recording(self, tmp_path):
        marked = self.CYCLE_TEST.replace(
            "def test_inverted_latch_order():",
            "import pytest\n\n"
            "@pytest.mark.no_lock_audit\n"
            "def test_inverted_latch_order():",
        )
        (tmp_path / "test_cycle.py").write_text(marked)
        audited = self._run(
            tmp_path,
            "--lock-audit",
            f"--lock-audit-baseline={self._empty_baseline(tmp_path)}",
        )
        assert audited.returncode == 0, audited.stdout + audited.stderr


class TestBaselineGate:
    """The observed edge set is diffed against a committed baseline, and
    (optionally) checked for inclusion in the static lock-order graph."""

    ORDERED_TEST = textwrap.dedent(
        """
        from repro.concurrency.latch import Latch

        def test_one_direction_only():
            a, b = Latch("gate-A"), Latch("gate-B")
            with a.held_by(1), b.held_by(1):
                pass
        """
    )

    _run = TestPytestPlugin._run

    def test_new_edge_fails_until_baseline_updated(self, tmp_path):
        (tmp_path / "test_ordered.py").write_text(self.ORDERED_TEST)
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"edges": []}\n')

        gated = self._run(
            tmp_path, "--lock-audit", f"--lock-audit-baseline={baseline}"
        )
        assert gated.returncode == 1, gated.stdout + gated.stderr
        assert "new lock-order edges" in gated.stdout
        assert "--lock-audit-update-baseline" in gated.stdout  # regen command

        updated = self._run(
            tmp_path,
            "--lock-audit",
            f"--lock-audit-baseline={baseline}",
            "--lock-audit-update-baseline",
        )
        assert updated.returncode == 0, updated.stdout + updated.stderr
        payload = json.loads(baseline.read_text())
        assert {"held": "latch:gate-A", "acquired": "latch:gate-B"} in payload[
            "edges"
        ]

        regated = self._run(
            tmp_path, "--lock-audit", f"--lock-audit-baseline={baseline}"
        )
        assert regated.returncode == 0, regated.stdout + regated.stderr

    def test_missing_baseline_fails(self, tmp_path):
        (tmp_path / "test_ordered.py").write_text(self.ORDERED_TEST)
        gone = tmp_path / "nope.json"
        gated = self._run(
            tmp_path, "--lock-audit", f"--lock-audit-baseline={gone}"
        )
        assert gated.returncode == 1, gated.stdout + gated.stderr
        assert "missing" in gated.stdout

    def test_static_check_catches_edges_the_analyzer_cannot_see(self, tmp_path):
        """Latches constructed only inside a test file exist in no static
        graph over src/, so their edge must trip the subset check."""
        (tmp_path / "test_ordered.py").write_text(self.ORDERED_TEST)
        baseline = tmp_path / "baseline.json"
        checked = self._run(
            tmp_path,
            "--lock-audit",
            f"--lock-audit-baseline={baseline}",
            "--lock-audit-update-baseline",  # isolate the static failure
            "--lock-audit-static-check",
        )
        assert checked.returncode == 1, checked.stdout + checked.stderr
        assert "missing from the static lock-order graph" in checked.stdout
