"""Lint-runner tests: suppression, baselining, selection, and the gate.

The acceptance cases at the bottom run the real repository through
``run_lint`` exactly as CI does: the tree must come back clean, and a
planted uninstrumented division in a scheme module must fail the gate.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.staticcheck.baseline import load_baseline
from repro.staticcheck.lint import LintConfig, run_lint, select_rules
from repro.staticcheck.rules import ALL_RULES

RULEPROJ = Path(__file__).parent / "fixtures" / "ruleproj"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Expected active findings per rule across the ruleproj fixture tree
#: (REP001 has a fifth, noqa'd occurrence that never becomes a finding).
EXPECTED = {
    "REP001": 4, "REP002": 2, "REP003": 2, "REP004": 3,
    "REP006": 3, "REP007": 2, "REP008": 3, "REP009": 3,
}


def lint_ruleproj(**overrides):
    config = LintConfig(root=RULEPROJ, ignore=("REP100",), **overrides)
    return run_lint(config)


class TestSelection:
    def test_default_is_every_rule(self):
        assert select_rules(None, ()) == ALL_RULES

    def test_select_narrows(self):
        assert [r.id for r in select_rules(["REP001", "rep003"], ())] == [
            "REP001", "REP003",
        ]

    def test_ignore_drops(self):
        ids = [r.id for r in select_rules(None, ("REP002",))]
        assert "REP002" not in ids
        assert len(ids) == len(ALL_RULES) - 1


class TestRunner:
    def test_full_fixture_run_counts(self):
        result = lint_ruleproj()
        by_rule = {}
        for finding in result.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        assert by_rule == EXPECTED
        assert result.suppressed == 1
        assert result.exit_code == 1

    def test_noqa_suppression_drops_the_finding(self):
        result = run_lint(LintConfig(root=RULEPROJ, select=["REP001"]))
        assert len(result.findings) == EXPECTED["REP001"]
        assert result.suppressed == 1
        assert not any("noqa" in f.snippet for f in result.findings)

    def test_warnings_do_not_fail_the_gate(self):
        result = run_lint(LintConfig(root=RULEPROJ, select=["REP002"]))
        assert result.findings
        assert all(f.severity == "warning" for f in result.findings)
        assert result.exit_code == 0

    def test_payload_is_valid_json_with_summary(self):
        result = lint_ruleproj()
        payload = json.loads(json.dumps(result.to_payload()))
        total = sum(EXPECTED.values())
        summary = payload["summary"]
        assert summary["errors"] + summary["warnings"] == total
        assert summary["suppressed"] == 1
        assert summary["exit_code"] == 1
        assert len(payload["findings"]) == total

    def test_render_mentions_every_active_finding(self):
        result = lint_ruleproj()
        rendered = result.render()
        for rule_id in EXPECTED:
            assert rule_id in rendered
        assert "error(s)" in rendered


class TestBaseline:
    def test_update_then_rerun_is_clean(self, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        first = lint_ruleproj(baseline_path=baseline, update_baseline=True)
        assert first.baseline_written == sum(EXPECTED.values())
        assert first.exit_code == 0  # everything just baselined

        second = lint_ruleproj(baseline_path=baseline)
        assert second.active == []
        assert second.exit_code == 0
        assert len(second.findings) == sum(EXPECTED.values())

    def test_baseline_entries_carry_fingerprints(self, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        lint_ruleproj(baseline_path=baseline, update_baseline=True)
        entries = load_baseline(baseline)
        assert len(entries) == sum(EXPECTED.values())
        for fingerprint, entry in entries.items():
            assert entry["fingerprint"] == fingerprint
            assert entry["rule"].startswith("REP")
            assert entry["snippet"]

    def test_new_finding_resurfaces_past_a_stale_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        run_lint(LintConfig(root=RULEPROJ, select=["REP002"],
                            baseline_path=baseline, update_baseline=True))
        result = lint_ruleproj(baseline_path=baseline)
        assert result.exit_code == 1  # errors were never baselined
        baselined = [f for f in result.findings if f.baselined]
        assert {f.rule for f in baselined} == {"REP002"}

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.jsonl") == {}


class TestRepositoryGate:
    def test_repo_src_is_clean_fast(self):
        result = run_lint(LintConfig(root=REPO_SRC, fast=True))
        assert result.active == [], [f.render() for f in result.active]
        assert result.exit_code == 0

    def test_repo_full_gate_with_dynamic_cross_check(self):
        result = run_lint(LintConfig())
        assert result.exit_code == 0
        assert [f for f in result.findings if f.rule == "REP100"] == []
        assert len(result.verdicts) == 17

    def test_planted_division_fails_the_gate(self, tmp_path):
        tree = tmp_path / "src"
        shutil.copytree(REPO_SRC, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        planted = tree / "repro" / "schemes" / "planted.py"
        planted.write_text(
            "def midpoint(left, right):\n"
            "    return (left + right) // 2\n",
            encoding="utf-8",
        )
        result = run_lint(LintConfig(root=tree, fast=True))
        assert result.exit_code == 1
        assert any(
            finding.rule == "REP001" and finding.path.endswith("planted.py")
            for finding in result.active
        )

    def test_planted_division_outside_scheme_scope_passes(self, tmp_path):
        tree = tmp_path / "src"
        shutil.copytree(REPO_SRC, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        planted = tree / "repro" / "observability" / "planted.py"
        planted.write_text(
            "def midpoint(left, right):\n"
            "    return (left + right) // 2\n",
            encoding="utf-8",
        )
        result = run_lint(LintConfig(root=tree, fast=True))
        assert result.exit_code == 0
