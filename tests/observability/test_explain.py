"""EXPLAIN plans: strategy routing, analyze actuals, estimate quality."""

import json

import pytest

from reference_xpath import reference_xpath
from repro.errors import StaleIndexError
from repro.observability.explain import (
    EXPLAIN_SCHEMA_VERSION,
    STRATEGIES,
    UpdatePlan,
    explain_batch,
    explain_query,
)
from repro.observability.metrics import get_registry
from repro.observability.stats import StatsCollector
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse
from repro.xmlmodel.xmark import xmark_document

LIBRARY_XML = (
    "<library><shelf><book><title>a</title></book>"
    "<book><title>b</title></book></shelf>"
    "<shelf><book><title>c</title></book></shelf></library>"
)


def library(scheme="qed"):
    return LabeledDocument(parse(LIBRARY_XML), make_scheme(scheme))


def xmark(scheme="qed", scale=0.1, seed=1):
    return LabeledDocument(xmark_document(scale=scale, seed=seed),
                           make_scheme(scheme))


class TestStrategyRouting:
    def test_accelerated_axes_report_window_strategy(self):
        ldoc = xmark()
        for path in ("//item", "//item/following::item",
                     "//bidder/preceding::bidder"):
            plan = explain_query(ldoc, path, analyze=True)
            strategies = {step.strategy for step in plan.steps}
            assert strategies == {"accelerator-window"}, (path, strategies)

    def test_detached_stale_index_refuses_plans(self):
        # Cut the index off the delta stream, then mutate the document:
        # plain and analyze plans meet xpath()'s refusal, each counted
        # once, and answer again after a refresh.
        ldoc = xmark()
        assert len(explain_query(ldoc, "//item", analyze=True).steps) == 1
        index = ldoc.accelerator()
        ldoc.unsubscribe_deltas(index)
        ldoc.updates.append_child(ldoc.document.root, "annex")
        refusals = get_registry().counter("axes.accelerator.stale_errors")
        for analyze in (False, True):
            before = refusals.value
            with pytest.raises(StaleIndexError, match="behind document"):
                explain_query(ldoc, "//item", analyze=analyze)
            assert refusals.value == before + 1
        index.refresh()
        plan = explain_query(ldoc, "//item", analyze=True)
        assert plan.result_count == len(reference_xpath(ldoc, "//item"))

    def test_pending_batch_steps_use_the_index(self):
        # A batch's pending nodes are on the index from the moment they
        # are attached: plain and analyze plans both read it, and the
        # pending book and title count.
        ldoc = library("prepost")  # containment: inserts defer
        batch = ldoc.batch()
        book = batch.append_child(ldoc.document.root, "book").node
        batch.append_child(book, "title")
        assert batch.pending == 2
        for analyze in (False, True):
            plan = explain_query(ldoc, "//book/title", analyze=analyze)
            assert [s.strategy for s in plan.steps] == [
                "accelerator-window"] * 2
        assert plan.result_count == 4
        batch.apply()
        plan = explain_query(ldoc, "//book/title", analyze=True)
        assert {s.strategy for s in plan.steps} == {"accelerator-window"}
        assert plan.result_count == 4

    def test_attribute_and_self_steps_use_the_index(self):
        ldoc = library()
        plan = explain_query(ldoc, "//book/attribute::missing/self::*",
                             analyze=True)
        assert [step.strategy for step in plan.steps] == [
            "accelerator-window"] * 3

    def test_every_strategy_is_catalogued(self):
        ldoc = library()
        plan = explain_query(ldoc, "//book | //title")
        for step in plan.steps:
            assert step.strategy in STRATEGIES


class TestAnalyzeActuals:
    #: Acceptance: actual cardinalities must match ``xpath()`` exactly.
    PATHS = ("//item", "//item/name", "/site/regions",
             "//open_auction/bidder", "//item/following::item")

    @pytest.mark.parametrize("path", PATHS)
    def test_actual_result_count_matches_xpath(self, path):
        ldoc = xmark()
        plan = explain_query(ldoc, path, analyze=True)
        assert plan.result_count == len(reference_xpath(ldoc, path))
        final = plan.steps[-1]
        assert final.actual_rows == plan.result_count
        assert final.elapsed_ms is not None
        assert plan.total_ms is not None

    def test_union_actuals_sum_to_result(self):
        ldoc = library()
        plan = explain_query(ldoc, "//book | //title", analyze=True)
        assert plan.branches == 2
        finals = {}
        for step in plan.steps:
            finals[step.branch] = step
        expected = reference_xpath(ldoc, "//book | //title")
        assert sum(s.actual_rows for s in finals.values()) >= \
            plan.result_count == len(expected)

    def test_plain_mode_does_not_execute(self):
        ldoc = library()
        plan = explain_query(ldoc, "//book")
        assert plan.result_count is None
        assert all(step.actual_rows is None for step in plan.steps)


class TestEstimateQuality:
    #: Satellite: estimated-vs-actual bounded error on XMark across
    #: three schemes.  One analyze run teaches the collector; the next
    #: plan's estimates must then land within 25% of the truth.
    SCHEMES = ("qed", "dewey", "prepost")
    PATHS = ("//item", "//item/name", "//open_auction/bidder")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_learned_estimates_bounded_error(self, scheme):
        ldoc = xmark(scheme)
        stats = StatsCollector.collect(ldoc)
        for path in self.PATHS:
            explain_query(ldoc, path, stats=stats, analyze=True)
        for path in self.PATHS:
            plan = explain_query(ldoc, path, stats=stats, analyze=True)
            actual = plan.result_count
            assert actual > 0
            error = abs(plan.estimated_result - actual) / actual
            assert error <= 0.25, (path, plan.estimated_result, actual)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_root_descendant_estimate_exact_before_learning(self, scheme):
        # `//tag` from the root is answered by the tag population, so
        # even the un-learned structural estimate is exact.
        ldoc = xmark(scheme)
        plan = explain_query(ldoc, "//item")
        assert plan.estimated_result == len(reference_xpath(ldoc, "//item"))


class TestPlanPayload:
    def test_json_payload_shape(self):
        ldoc = library()
        plan = explain_query(ldoc, "//book/title", analyze=True)
        payload = json.loads(json.dumps(plan.to_payload()))
        assert payload["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert payload["path"] == "//book/title"
        assert payload["analyze"] is True
        assert payload["result_count"] == 3
        assert len(payload["steps"]) == 2
        for step in payload["steps"]:
            assert set(step) == {
                "index", "branch", "axis", "name_test", "predicates",
                "strategy", "reason", "estimated_rows", "context_size",
                "actual_rows", "axis_rows", "elapsed_ms",
            }

    def test_render_contains_strategies_and_summary(self):
        ldoc = library()
        plan = explain_query(ldoc, "//book", analyze=True)
        text = plan.render()
        assert "EXPLAIN //book" in text
        assert "accelerator-window" in text
        assert "=> estimated" in text
        assert "actual 3" in text

    def test_plan_counters_tick(self):
        registry = get_registry()
        plans = registry.counter("explain.plans")
        analyzed = registry.counter("explain.analyzed_plans")
        before = (plans.value, analyzed.value)
        ldoc = library()
        explain_query(ldoc, "//book")
        explain_query(ldoc, "//book", analyze=True)
        assert (plans.value, analyzed.value) == (before[0] + 2,
                                                 before[1] + 1)


class TestUpdateExplain:
    def test_fast_path_batch_predicts_zero_extent(self):
        ldoc = library("qed")  # persistent scheme: labels never move
        with ldoc.batch() as batch:
            for index in range(4):
                batch.append_child(ldoc.document.root, f"kid{index}")
            plan = explain_batch(batch)
        assert isinstance(plan, UpdatePlan)
        assert plan.operations == 4
        assert plan.fast_path_labels == 4
        assert plan.predicted_relabel_passes == 0
        assert plan.predicted_relabel_extent == 0
        plan.finish(ldoc.last_batch_result)
        assert plan.actual_relabeled_nodes == 0

    def test_deferred_batch_predicts_full_relabel_bound(self):
        ldoc = library("prepost")  # containment: inserts defer
        with ldoc.batch() as batch:
            batch.append_child(ldoc.document.root, "annex")
            plan = explain_batch(batch)
            assert plan.deferred_labels > 0
            assert plan.predicted_relabel_passes == 1
            assert plan.predicted_relabel_extent == len(ldoc.labels)
        plan.finish(ldoc.last_batch_result)
        assert plan.actual_relabeled_nodes <= \
            plan.predicted_relabel_extent + 1
        payload = plan.to_payload()
        assert payload["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert "predicted extent" in plan.render()
