"""Tests for the repro-check static analysis engine and its seven rules.

Each rule has a bad fixture (must fire) and a good fixture (must stay
clean under *every* rule) in ``tests/fixtures/repro_check/``.  The
fixtures use ``# repro-check: module=`` overrides so path-scoped rules
see the module names they guard even though the files live under tests/.

Bad fixtures are checked under their own rule only; good fixtures must be
clean under the full rule set.
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
    "RC02",
    "RC03",
    "RC04",
    "RC05",
    "RC06",
    "RC07",
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
        ("RC02", 1),  # one unframed write_track
        ("RC03", 3),  # import random + import time + time.sleep
        ("RC04", 2),  # except Exception + bare except
        ("RC05", 2),  # ChaosEngine + activate
        ("RC06", 2),  # direct mutator + propagated mutator
        ("RC07", 2),  # hook on one branch + dominating hook that is unregistered
        ("RC10", 3),  # stale registration + unregistered hook + dead instrumentation
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
        # common.config included: the fixture claims it, no module is exempt
        findings = findings_for(FIXTURES / "rc03_env_bad.py", ["RC03"])
        # from os import getenv + os.environ
        assert len(findings) == 2, render_text(findings)
        assert all("SystemConfig" in f.message for f in findings)
        assert findings_for(FIXTURES / "rc03_env_good.py") == []

    @pytest.mark.parametrize(
        "module", ["repro.sim.clock", "repro.sim.torture", "repro.workloads.tmp"]
    )
    def test_rc03_flags_a_sleep_even_where_time_is_allowed(self, tmp_path, module):
        target = tmp_path / "sleeper.py"
        target.write_text(
            f"# repro-check: module={module}\n"
            "import time as _t\n"
            "from time import perf_counter, sleep\n"
            "_t.sleep(1)\n"
            "perf_counter()\n"
        )
        findings = findings_for(target, ["RC03"])
        # from time import sleep + _t.sleep; perf_counter is fine here
        assert [f.line for f in findings] == [3, 4], render_text(findings)
        assert all("VirtualClock" in f.message for f in findings)

    def test_rc04_flags_rollback_in_a_handler_a_crash_can_reach(self):
        findings = findings_for(FIXTURES / "rc04_crash_bad.py", ["RC04"])
        # hand-rolled frame + 2PC clean-up + SimulatedCrash caught too late
        assert len(findings) == 3, render_text(findings)
        assert all("dead machine" in f.message for f in findings)
        assert findings_for(FIXTURES / "rc04_crash_good.py") == []

    def test_findings_carry_location(self):
        (finding,) = findings_for(FIXTURES / "rc02_bad.py", ["RC02"])
        assert finding.path.endswith("rc02_bad.py")
        assert finding.line > 0
        rendered = finding.render()
        assert re.match(r".+:\d+:\d+: RC02 ", rendered)


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
        assert payload["count"] == 3
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
        assert main([str(FIXTURES / "rc02_good.py")]) == 0
        capsys.readouterr()

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "rc02_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RC02" in out

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
        # rc03_bad violates only RC03; selecting RC02 alone finds nothing.
        assert main(["--rules", "RC02", str(FIXTURES / "rc03_bad.py")]) == 0
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
        assert main(["--format", "sarif", str(FIXTURES / "rc02_good.py")]) == 0
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


class TestFlowAnalysis:
    """Engine-level behaviors of the CFG / call-graph machinery, driven
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
            from repro.sim.chaos import crash_point, register_crash_point

            register_crash_point("tmp.flush")

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
            from repro.sim.chaos import crash_point, register_crash_point

            register_crash_point("tmp.flush")

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

    def test_unresolvable_calls_are_counted_not_fatal(self, tmp_path):
        """Calls the project cannot resolve (externals, dynamic dispatch)
        degrade to 'no information', never to a crash."""
        target = tmp_path / "flow_case.py"
        target.write_text(
            "# repro-check: module=repro.storage.tmp_flow\n"
            "import os\n"
            "from repro.sim.chaos import crash_point, register_crash_point\n\n"
            "register_crash_point('tmp.probe', 'reachability needs a hook')\n\n"
            "def probe(thing):\n"
            "    crash_point('tmp.probe')\n"
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
        0 with every rule active."""
        findings, errors = run_paths([REPO / "src"])
        assert errors == []
        assert findings == [], render_text(findings)

    def test_tools_are_clean(self):
        findings, errors = run_paths([REPO / "tools"])
        assert errors == []
        assert findings == [], render_text(findings)
