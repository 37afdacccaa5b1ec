"""Golden-file tests: each lint rule against its fixture module.

Every fixture mixes true violations with compliant near-misses, so these
tests pin both directions: the rule fires where it must and stays quiet
where it must not.  Assertions key on (file, function/snippet) rather
than line numbers so editing a fixture docstring does not break them.
"""

from __future__ import annotations

import pytest

from repro.staticcheck.rules import ALL_RULES


def findings_for(rule_id, ctx):
    rule = next(rule for rule in ALL_RULES if rule.id == rule_id)
    return sorted(rule.check(ctx), key=lambda f: (f.path, f.line))


def snippets(findings):
    return [finding.snippet.strip() for finding in findings]


def test_rule_catalogue_shape():
    ids = [rule.id for rule in ALL_RULES]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for rule in ALL_RULES:
        assert rule.severity in ("warning", "error")
        assert rule.description
        assert rule.name


class TestUninstrumentedDivision:
    def test_flags_every_raw_operator(self, rule_ctx):
        findings = findings_for("REP001", rule_ctx)
        assert all("bad_arith.py" in f.path for f in findings)
        ops = snippets(findings)
        assert any("//" in op for op in ops)
        assert any("%" in op for op in ops)
        assert any("divmod" in op for op in ops)
        # 4 in uninstrumented() plus the noqa'd line (suppression is the
        # runner's job, not the rule's).
        assert len(findings) == 5

    def test_parity_and_string_format_excluded(self, rule_ctx):
        findings = findings_for("REP001", rule_ctx)
        assert not any("% 2" in snippet for snippet in snippets(findings))
        assert not any("node %s" in snippet for snippet in snippets(findings))

    def test_instrumented_module_is_clean(self, rule_ctx):
        findings = findings_for("REP001", rule_ctx)
        assert not any("good_arith" in f.path for f in findings)


class TestFloatEquality:
    def test_flags_literal_and_cast_comparisons(self, rule_ctx):
        findings = findings_for("REP002", rule_ctx)
        assert len(findings) == 2
        assert all("floaty.py" in f.path for f in findings)
        assert all(f.severity == "warning" for f in findings)

    def test_tolerant_comparison_is_clean(self, rule_ctx):
        findings = findings_for("REP002", rule_ctx)
        assert not any("1e-9" in snippet for snippet in snippets(findings))


class TestOverbroadExcept:
    def test_flags_bare_and_swallowing_handlers(self, rule_ctx):
        findings = findings_for("REP003", rule_ctx)
        assert len(findings) == 2
        assert any("except:" in snippet for snippet in snippets(findings))

    def test_binding_reraising_and_narrow_are_clean(self, rule_ctx):
        findings = findings_for("REP003", rule_ctx)
        lines = {f.line for f in findings}
        module = rule_ctx.project.module("repro.tools.excepts")
        for clean in ("as error", "(ValueError, KeyError)"):
            clean_lines = [
                number for number, text in enumerate(module.lines, start=1)
                if clean in text
            ]
            assert clean_lines and not lines.intersection(clean_lines)


class TestNakedMutation:
    def test_flags_state_writes_outside_update_layers(self, rule_ctx):
        findings = findings_for("REP004", rule_ctx)
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert ".labels" in messages
        assert "_label_index" in messages
        assert "document.root" in messages

    def test_bare_local_dict_is_clean(self, rule_ctx):
        findings = findings_for("REP004", rule_ctx)
        assert not any("local_dict_is_fine" in f.snippet for f in findings)
        module = rule_ctx.project.module("repro.tools.naked")
        local_write = [
            number for number, text in enumerate(module.lines, start=1)
            if text.strip() == "labels[node] = label"
        ]
        assert local_write
        assert not {f.line for f in findings}.intersection(local_write)


class TestMetricName:
    def test_flags_bad_names_and_direct_construction(self, rule_ctx):
        findings = findings_for("REP006", rule_ctx)
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "UpdatesTotal" in messages
        assert "f-string" in messages
        assert "Counter" in messages

    def test_dotted_names_and_prefixed_fstrings_are_clean(self, rule_ctx):
        findings = findings_for("REP006", rule_ctx)
        assert not any("updates.insertions" in s for s in snippets(findings))
        assert not any("scheme.{kind}" in f.message for f in findings)


class TestExportDrift:
    def test_flags_both_directions(self, rule_ctx):
        findings = findings_for("REP007", rule_ctx)
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "no_such_helper" in messages
        assert "phantom" in messages

    def test_real_reexport_is_clean(self, rule_ctx):
        findings = findings_for("REP007", rule_ctx)
        assert not any("'uninstrumented'" in f.message for f in findings)


class TestMutableDefault:
    def test_flags_all_three_literals(self, rule_ctx):
        findings = findings_for("REP008", rule_ctx)
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "collect" in messages
        assert "index" in messages

    def test_none_default_is_clean(self, rule_ctx):
        findings = findings_for("REP008", rule_ctx)
        assert not any("safe" in f.message for f in findings)


class TestUnpublishedMutation:
    def test_flags_mutators_without_publish_reach(self, rule_ctx):
        findings = findings_for("REP009", rule_ctx)
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "LabeledDocument.graft" in messages
        assert "UpdateSurface.graft" in messages
        assert "UpdateBatch.compact" in messages
        assert all(f.severity == "error" for f in findings)

    def test_publish_through_helpers_and_undo_chain_is_clean(self, rule_ctx):
        findings = findings_for("REP009", rule_ctx)
        messages = " ".join(f.message for f in findings)
        for clean in ("relabel_all", "adopt", "apply", "rollback",
                      "UpdateSurface.relabel"):
            assert clean not in messages

    def test_reads_and_tree_only_writes_are_clean(self, rule_ctx):
        findings = findings_for("REP009", rule_ctx)
        messages = " ".join(f.message for f in findings)
        assert "peek" not in messages
        assert "set_text" not in messages


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda rule: rule.id)
def test_every_rule_has_fixture_coverage(rule, rule_ctx):
    """Each shipped rule fires at least once against the fixture tree."""
    assert list(rule.check(rule_ctx))
