"""Tests for the repro-check static analysis engine and its ten rules.

Each rule has a bad fixture (must fire) and a good fixture (must stay
clean under *every* rule) in ``tests/fixtures/repro_check/``.  The
fixtures use ``# repro-check: module=`` overrides so path-scoped rules
see the module names they guard even though the files live under tests/.

Rules deliberately overlap (RC07 strengthens RC01's presence check to a
dominance proof), so bad fixtures are checked under their own rule only;
good fixtures must be clean under the full rule set.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from tools.repro_check.__main__ import main
from tools.repro_check.engine import SourceFile, _infer_module, run, run_paths
from tools.repro_check.findings import render_json, render_text
from tools.repro_check.rules import all_rules, get_rules

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "repro_check"

ALL_RULE_IDS = {
    "RC01",
    "RC02",
    "RC03",
    "RC04",
    "RC05",
    "RC06",
    "RC07",
    "RC08",
    "RC09",
    "RC10",
}


def findings_for(path: Path, rules=None):
    result = run([path], get_rules(rules) if rules else None)
    assert result.errors == []
    return result.findings


class TestRegistry:
    def test_all_rules_registered(self):
        assert {r.rule_id for r in all_rules()} == ALL_RULE_IDS

    def test_get_rules_unknown_id_raises(self):
        with pytest.raises(KeyError, match="RC99"):
            get_rules(["RC99"])

    def test_every_rule_has_title_and_rationale(self):
        for rule_cls in all_rules():
            assert rule_cls.title
            assert rule_cls.rationale


class TestRulesOnFixtures:
    """Acceptance criterion: every rule has at least one failing fixture."""

    # (rule id, expected finding count in the bad fixture)
    CASES = [
        ("RC01", 1),  # one unbracketed write_page
        ("RC02", 1),  # one unframed write_track
        ("RC03", 2),  # import random + import time
        ("RC04", 2),  # except Exception + bare except
        ("RC05", 2),  # ChaosEngine + activate
        ("RC06", 2),  # direct mutator + propagated mutator
        ("RC07", 1),  # hook on one branch does not dominate the write
        ("RC08", 2),  # two accesses to a guarded attr without the mutex
        ("RC09", 1),  # one two-latch ordering cycle
        ("RC10", 3),  # stale registration + unregistered hook + uncovered write
    ]

    @pytest.mark.parametrize("rule_id,expected", CASES)
    def test_bad_fixture_fires(self, rule_id, expected):
        path = FIXTURES / f"{rule_id.lower()}_bad.py"
        findings = findings_for(path, [rule_id])
        assert len(findings) == expected, render_text(findings)
        assert {f.rule for f in findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(ALL_RULE_IDS))
    def test_good_fixture_clean_under_every_rule(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_good.py"
        findings = findings_for(path)
        assert findings == [], render_text(findings)

    def test_rc03_flags_environment_reads_outside_common_config(self):
        findings = findings_for(FIXTURES / "rc03_env_bad.py", ["RC03"])
        # from os import getenv + os.environ
        assert len(findings) == 2, render_text(findings)
        assert all("env_settings" in f.message for f in findings)
        assert findings_for(FIXTURES / "rc03_env_good.py") == []

    def test_rc04_flags_rollback_in_a_handler_a_crash_can_reach(self):
        findings = findings_for(FIXTURES / "rc04_crash_bad.py", ["RC04"])
        # hand-rolled frame + 2PC clean-up + SimulatedCrash caught too late
        assert len(findings) == 3, render_text(findings)
        assert all("dead machine" in f.message for f in findings)
        assert findings_for(FIXTURES / "rc04_crash_good.py") == []

    def test_findings_carry_location(self):
        (finding,) = findings_for(FIXTURES / "rc01_bad.py", ["RC01"])
        assert finding.path.endswith("rc01_bad.py")
        assert finding.line > 0
        rendered = finding.render()
        assert re.match(r".+:\d+:\d+: RC01 ", rendered)


class TestSuppressions:
    def test_line_suppressions_silence_findings(self):
        assert findings_for(FIXTURES / "suppressed.py") == []

    def test_file_suppression_silences_whole_file(self):
        assert findings_for(FIXTURES / "suppressed_file.py") == []

    def test_stripped_suppressions_fire_again(self, tmp_path):
        """The suppressed fixture genuinely violates RC03 and RC04 —
        remove the ignore comments and both rules fire."""
        text = (FIXTURES / "suppressed.py").read_text()
        stripped = re.sub(r"\s*# repro-check: ignore(\[[A-Z0-9,]+\])?", "", text)
        target = tmp_path / "stripped.py"
        target.write_text(stripped)
        findings = findings_for(target)
        assert {f.rule for f in findings} == {"RC03", "RC04"}

    def test_module_override_only_in_first_five_lines(self, tmp_path):
        target = tmp_path / "late_override.py"
        target.write_text(
            "\n" * 6 + "# repro-check: module=repro.wal.sneaky\nimport time\n"
        )
        source = SourceFile.parse(target)
        assert source.module == "late_override"


class TestModuleInference:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("src/repro/wal/slb.py", "repro.wal.slb"),
            ("src/repro/concurrency/__init__.py", "repro.concurrency"),
            ("tools/repro_check/engine.py", "tools.repro_check.engine"),
            ("tests/test_repro_check.py", "tests.test_repro_check"),
            ("scratch.py", "scratch"),
        ],
    )
    def test_inference(self, path, expected):
        assert _infer_module(Path(path)) == expected


class TestOutputFormats:
    def test_render_json_round_trips(self):
        findings = findings_for(FIXTURES / "rc03_bad.py")
        payload = json.loads(render_json(findings))
        assert payload["count"] == 2
        for item in payload["findings"]:
            assert item["rule"] == "RC03"
            assert set(item) >= {"rule", "path", "line", "col", "message"}

    def test_render_text_counts_findings(self):
        findings = findings_for(FIXTURES / "rc04_bad.py")
        text = render_text(findings)
        assert "RC04" in text
        assert "2" in text.splitlines()[-1]


class TestCli:
    def test_clean_paths_exit_zero(self, capsys):
        assert main([str(FIXTURES / "rc01_good.py")]) == 0
        capsys.readouterr()

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "rc01_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RC01" in out

    def test_unknown_rule_exit_two(self, capsys):
        assert main(["--rules", "RC99", str(FIXTURES)]) == 2
        capsys.readouterr()

    def test_parse_error_exit_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        assert main([str(broken)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err

    def test_rule_selection_filters(self, capsys):
        # rc03_bad violates only RC03; selecting RC01 alone finds nothing.
        assert main(["--rules", "RC01", str(FIXTURES / "rc03_bad.py")]) == 0
        capsys.readouterr()

    def test_json_format(self, capsys):
        assert main(["--format", "json", str(FIXTURES / "rc02_bad.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "RC02"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_sarif_format(self, capsys):
        assert main(["--format", "sarif", str(FIXTURES / "rc02_bad.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run_ = payload["runs"][0]
        assert run_["tool"]["driver"]["name"] == "repro-check"
        rule_ids = {r["id"] for r in run_["tool"]["driver"]["rules"]}
        assert rule_ids == ALL_RULE_IDS
        result = run_["results"][0]
        assert result["ruleId"] == "RC02"
        uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert not uri.startswith("/") and "\\" not in uri

    def test_sarif_clean_tree_is_valid_and_empty(self, capsys):
        assert main(["--format", "sarif", str(FIXTURES / "rc01_good.py")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []

    def test_timing_embedded_in_json(self, capsys):
        assert (
            main(
                ["--format", "json", "--timing", str(FIXTURES / "rc03_bad.py")]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        timings = payload["timings_seconds"]
        assert set(timings) >= ALL_RULE_IDS
        assert all(v >= 0 for v in timings.values())

    def test_lock_graph_export(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        assert (
            main(["--lock-graph", str(out), str(FIXTURES / "rc09_bad.py")]) == 1
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert {"nodes", "edges", "cycles"} <= set(payload)
        assert ["latch:fixture-a", "latch:fixture-b"] in payload["cycles"] or [
            "latch:fixture-b",
            "latch:fixture-a",
        ] in payload["cycles"]


class TestFlowAnalysis:
    """Engine-level behaviors of the CFG/lock-lattice machinery, driven
    through the rules on synthesized modules."""

    def _check(self, tmp_path, rule_id, module, body):
        target = tmp_path / "flow_case.py"
        target.write_text(
            f"# repro-check: module={module}\n" + textwrap.dedent(body)
        )
        return findings_for(target, [rule_id])

    def test_rc07_interprocedural_protection_is_clean(self, tmp_path):
        """A write in a helper is fine when every resolved call site is
        dominated by a hook in the caller."""
        findings = self._check(
            tmp_path,
            "RC07",
            "repro.wal.tmp_flow",
            """
            from repro.sim.chaos import crash_point

            def flush(disk, payload):
                crash_point("tmp.flush")
                _write(disk, payload)

            def _write(disk, payload):
                disk.write_page(0, payload, sibling=True)
            """,
        )
        assert findings == [], render_text(findings)

    def test_rc07_unresolvable_callers_fire(self, tmp_path):
        """'Somebody probably brackets it' is not a proof: a write in a
        function with no resolvable callers is a finding."""
        findings = self._check(
            tmp_path,
            "RC07",
            "repro.wal.tmp_flow",
            """
            def _write(disk, payload):
                disk.write_page(0, payload, sibling=True)
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule == "RC07"

    def test_rc07_recursion_is_conservative(self, tmp_path):
        """A recursive call site proves nothing about domination, so the
        write fires even though the public entry is protected."""
        findings = self._check(
            tmp_path,
            "RC07",
            "repro.wal.tmp_flow",
            """
            from repro.sim.chaos import crash_point

            def flush(disk, payload):
                crash_point("tmp.flush")
                _spill(disk, payload, 2)

            def _spill(disk, payload, depth):
                disk.write_page(depth, payload, sibling=True)
                if depth:
                    _spill(disk, payload, depth - 1)
            """,
        )
        assert len(findings) == 1

    def test_rc08_try_finally_release_ends_the_critical_section(self, tmp_path):
        """Explicit acquire/release with the try/finally idiom: accesses
        inside the try are held; accesses after the finally are not."""
        findings = self._check(
            tmp_path,
            "RC08",
            "repro.storage.tmp_flow",
            """
            import threading

            class Box:
                def __init__(self):
                    self._mutex = threading.Lock()
                    self._items = []  # guarded-by: _mutex

                def put(self, item):
                    self._mutex.acquire()
                    try:
                        self._items.append(item)
                    finally:
                        self._mutex.release()
                    return len(self._items)
            """,
        )
        assert len(findings) == 1, render_text(findings)
        # the post-release access only: the line with `return len(...)`
        assert findings[0].line == 16

    def test_rc08_with_scope_ends_at_the_block(self, tmp_path):
        findings = self._check(
            tmp_path,
            "RC08",
            "repro.storage.tmp_flow",
            """
            import threading

            class Box:
                def __init__(self):
                    self._mutex = threading.Lock()
                    self._items = []  # guarded-by: _mutex

                def peek(self):
                    with self._mutex:
                        first = self._items[0]
                    return first, self._items[-1]
            """,
        )
        assert len(findings) == 1, render_text(findings)
        # only the access outside the with-block, on the return line
        assert findings[0].line == 13

    def test_rc09_reentrant_self_edge_is_not_a_cycle(self, tmp_path):
        """``with`` re-entry on one latch yields a self-edge, which the
        cycle check must ignore (latch re-entry is a runtime concern,
        not an ordering inversion)."""
        target = tmp_path / "flow_case.py"
        target.write_text(
            "# repro-check: module=repro.storage.tmp_flow\n"
            + textwrap.dedent(
                """
                from repro.concurrency.latch import Latch

                class R:
                    def __init__(self):
                        self._a = Latch("tmp-a")

                    def twice(self, owner):
                        with self._a.held_by(owner):
                            with self._a.held_by(owner):
                                pass
                """
            )
        )
        assert findings_for(target, ["RC09"]) == []

        from tools.repro_check.flow.project import FlowProject
        from tools.repro_check.rules.rc09_lock_order import build_lock_order_graph

        graph = build_lock_order_graph(FlowProject([SourceFile.parse(target)]))
        assert ("latch:tmp-a", "latch:tmp-a") in graph.edge_set()
        assert graph.cycles() == []

    def test_unresolvable_calls_are_counted_not_fatal(self, tmp_path):
        """Calls the project cannot resolve (externals, dynamic dispatch)
        degrade to 'no information', never to a crash."""
        target = tmp_path / "flow_case.py"
        target.write_text(
            "# repro-check: module=repro.storage.tmp_flow\n"
            "import os\n\n"
            "def probe(thing):\n"
            "    os.stat('x')\n"
            "    thing.mystery()\n"
            "    (lambda: 1)()\n"
        )
        result = run([target])
        assert result.errors == []
        assert result.flow_stats["calls_unresolved"] >= 2


class TestWholeTree:
    def test_src_is_clean(self):
        """Acceptance criterion: ``python -m tools.repro_check src`` exits
        0 with all ten rules active."""
        findings, errors = run_paths([REPO / "src"])
        assert errors == []
        assert findings == [], render_text(findings)

    def test_tools_are_clean(self):
        findings, errors = run_paths([REPO / "tools"])
        assert errors == []
        assert findings == [], render_text(findings)

    def test_committed_baseline_is_subset_of_static_graph(self):
        """The dynamic edges recorded in the committed baseline must all
        be visible to the static lock-order analysis — the same
        inclusion CI asserts with ``--lock-audit-static-check``."""
        from tools.repro_check.pytest_plugin import (
            _DEFAULT_BASELINE,
            _static_edge_set,
        )

        payload = json.loads(_DEFAULT_BASELINE.read_text())
        observed = {(e["held"], e["acquired"]) for e in payload["edges"]}
        assert observed, "baseline should record at least one edge"
        static = _static_edge_set()
        assert observed <= static, sorted(observed - static)
