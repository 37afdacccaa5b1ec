"""Hierarchical span tracer: nesting, sampling, exporters, overhead."""

from __future__ import annotations

import json
import time

import pytest

from conftest import all_scheme_names, labeled
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.tracing import (
    AlwaysOffSampler,
    InMemorySpanExporter,
    JSONLinesSpanExporter,
    RatioSampler,
    Tracer,
    get_tracer,
    load_trace,
    render_span_tree,
    render_summary,
    summarize_trace,
    tracing_enabled,
)
from repro.xmlmodel.parser import parse

SAMPLE = "<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>"


@pytest.fixture
def tracer():
    exporter = InMemorySpanExporter()
    t = Tracer(enabled=True, exporters=(exporter,), capture_metrics=False)
    return t, exporter


class TestSpanBasics:
    def test_span_records_name_and_attributes(self, tracer):
        t, exporter = tracer
        with t.span("work", scheme="dewey") as span:
            span.set_attribute("nodes", 3)
        (finished,) = exporter.spans
        assert finished.name == "work"
        assert finished.attributes == {"scheme": "dewey", "nodes": 3}
        assert finished.status == "ok"
        assert finished.end_s >= finished.start_s

    def test_nesting_links_parent_and_children(self, tracer):
        t, exporter = tracer
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                assert t.current_span is inner
                with t.span("leaf"):
                    pass
            assert t.current_span is outer
        assert t.current_span is None
        roots = exporter.roots()
        assert [s.name for s in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert [c.name for c in roots[0].children[0].children] == ["leaf"]
        assert roots[0].trace_id == roots[0].children[0].trace_id

    def test_children_export_before_parents(self, tracer):
        t, exporter = tracer
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [s.name for s in exporter.spans] == ["inner", "outer"]

    def test_self_time_excludes_children(self, tracer):
        t, exporter = tracer
        with t.span("outer"):
            with t.span("inner"):
                time.sleep(0.002)
        outer = exporter.roots()[0]
        assert outer.self_s <= outer.duration_s
        assert outer.self_s == pytest.approx(
            outer.duration_s - outer.children[0].duration_s
        )

    def test_exception_unwinds_and_marks_error(self, tracer):
        t, exporter = tracer
        with pytest.raises(ValueError, match="boom"):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError("boom")
        assert t.current_span is None
        inner, outer = exporter.spans
        assert inner.status == "error"
        assert inner.error == "ValueError: boom"
        assert outer.status == "error"
        with t.span("after"):
            pass
        assert exporter.spans[-1].name == "after"
        assert exporter.spans[-1].parent is None

    def test_metric_deltas_captured_per_span(self):
        registry = MetricsRegistry()
        exporter = InMemorySpanExporter()
        t = Tracer(enabled=True, exporters=(exporter,),
                   capture_metrics=True, registry=registry)
        registry.counter("ops").increment(5)
        with t.span("work"):
            registry.counter("ops").increment(3)
        (finished,) = exporter.spans
        assert finished.metrics["ops"] == 3


class TestNoopFastPath:
    def test_disabled_span_is_shared_singleton(self):
        t = Tracer(enabled=False)
        assert t.span("a") is t.span("b")

    def test_disabled_span_accepts_full_surface(self):
        t = Tracer(enabled=False)
        with t.span("a", x=1) as span:
            span.set_attribute("y", 2)
        assert t.current_span is None

    def test_disabled_overhead_is_bounded(self):
        """The no-op path must cost microseconds, not milliseconds."""
        t = Tracer(enabled=False)
        calls = 20000
        start = time.perf_counter()
        for _ in range(calls):
            with t.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        # Generous ceiling: 10µs per disabled span (measured ~0.5µs);
        # catches accidental allocation or sampling on the no-op path.
        assert elapsed / calls < 10e-6

    def test_global_tracer_is_disabled_by_default(self):
        assert get_tracer().enabled is False


class TestSampling:
    def test_always_off_drops_everything(self):
        exporter = InMemorySpanExporter()
        t = Tracer(enabled=True, sampler=AlwaysOffSampler(),
                   exporters=(exporter,), capture_metrics=False)
        with t.span("root"):
            with t.span("child"):
                pass
        assert len(exporter) == 0

    def test_dropped_root_suppresses_descendants(self):
        """Head-based: a descendant never re-rolls its own decision."""

        class CountingSampler:
            def __init__(self):
                self.calls = 0

            def sample(self, name):
                self.calls += 1
                return False

        sampler = CountingSampler()
        t = Tracer(enabled=True, sampler=sampler,
                   exporters=(InMemorySpanExporter(),), capture_metrics=False)
        with t.span("root"):
            with t.span("child"):
                with t.span("leaf"):
                    pass
        assert sampler.calls == 1

    def test_ratio_sampler_is_deterministic_under_seed(self):
        # Same seed, same decision sequence; and a 0.5 ratio actually
        # both keeps and drops within 64 draws.
        sampler_a = RatioSampler(0.5, seed=42)
        sampler_b = RatioSampler(0.5, seed=42)
        sequence_a = [sampler_a.sample("s") for _ in range(64)]
        sequence_b = [sampler_b.sample("s") for _ in range(64)]
        assert sequence_a == sequence_b
        assert True in sequence_a and False in sequence_a

    def test_ratio_sampler_traces_match_across_runs(self):
        def run():
            exporter = InMemorySpanExporter()
            t = Tracer(enabled=True, sampler=RatioSampler(0.5, seed=7),
                       exporters=(exporter,), capture_metrics=False)
            for index in range(32):
                with t.span(f"op-{index}"):
                    pass
            return [s.name for s in exporter.spans]

        assert run() == run()

    def test_ratio_bounds(self):
        assert RatioSampler(1.0).sample("s") is True
        assert RatioSampler(0.0).sample("s") is False


class TestInMemoryExporter:
    def test_full_ring_keeps_newest_in_finish_order(self):
        exporter = InMemorySpanExporter(capacity=3)
        t = Tracer(enabled=True, exporters=(exporter,), capture_metrics=False)
        for index in range(5):
            with t.span(f"s{index}"):
                pass
        assert [s.name for s in exporter.spans] == ["s2", "s3", "s4"]
        assert [s.name for s in exporter.roots()] == ["s2", "s3", "s4"]
        assert len(exporter) == exporter.capacity == 3


class TestExportRoundTrip:
    def test_jsonl_export_then_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = InMemorySpanExporter()
        t = Tracer(enabled=True, exporters=(exporter,), capture_metrics=False)
        with JSONLinesSpanExporter(path) as sink:
            t.add_exporter(sink)
            with t.span("outer", scheme="ordpath"):
                with t.span("inner", nodes=4):
                    pass
            with t.span("solo"):
                pass
        roots = load_trace(path)
        assert [r.name for r in roots] == ["outer", "solo"]
        outer = roots[0]
        assert outer.attributes == {"scheme": "ordpath"}
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].attributes == {"nodes": 4}
        assert outer.children[0].parent_id == outer.span_id
        assert outer.duration_s >= outer.children[0].duration_s

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer(enabled=True, capture_metrics=False)
        with JSONLinesSpanExporter(path) as sink:
            t.add_exporter(sink)
            with t.span("a", flag=True):
                pass
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "a"
        assert record["attributes"] == {"flag": True}
        assert record["status"] == "ok"

    def test_summarize_and_render_round_tripped_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer(enabled=True, capture_metrics=False)
        with JSONLinesSpanExporter(path) as sink:
            t.add_exporter(sink)
            for _ in range(3):
                with t.span("outer"):
                    with t.span("inner"):
                        pass
        roots = load_trace(path)
        rows = summarize_trace(roots)
        by_name = {row["name"]: row for row in rows}
        assert by_name["outer"]["count"] == 3
        assert by_name["inner"]["count"] == 3
        tree = render_span_tree(roots)
        assert "outer" in tree and "inner" in tree
        table = render_summary(rows, top=1)
        assert len(table.splitlines()) == 2  # header + one row


class TestTracingEnabledScope:
    def test_scope_restores_prior_state(self):
        tracer = get_tracer()
        assert tracer.enabled is False
        with tracing_enabled(InMemorySpanExporter()) as scoped:
            assert scoped is tracer
            assert tracer.enabled is True
        assert tracer.enabled is False
        assert tracer.exporters == []

    def test_scope_restores_on_exception(self):
        tracer = get_tracer()
        with pytest.raises(RuntimeError):
            with tracing_enabled(InMemorySpanExporter()):
                raise RuntimeError
        assert tracer.enabled is False


class TestTracedPathEquivalence:
    """Tracing must observe updates, never change them."""

    @pytest.mark.parametrize("scheme_name", all_scheme_names())
    def test_labels_identical_with_tracing_on_and_off(self, scheme_name):
        def workload():
            ldoc = labeled(parse(SAMPLE), scheme_name)
            shelves = ldoc.document.root.element_children()
            hot = shelves[0].element_children()[0]
            for index in range(12):
                if index % 3 == 0:
                    ldoc.updates.insert_before(hot, f"n{index}")
                elif index % 3 == 1:
                    ldoc.updates.insert_after(hot, f"n{index}")
                else:
                    ldoc.updates.append_child(shelves[1], f"n{index}")
            ldoc.updates.delete(shelves[1].element_children()[0])
            return ldoc.labels_in_document_order()

        untraced = workload()
        with tracing_enabled(InMemorySpanExporter()) as tracer:
            traced_run = workload()
            assert len(tracer.exporters[0]) > 0
        assert traced_run == untraced

    def test_instrumented_spans_carry_scheme_attributes(self):
        exporter = InMemorySpanExporter()
        with tracing_enabled(exporter):
            ldoc = labeled(parse(SAMPLE), "ordpath")
            ldoc.updates.append_child(ldoc.document.root, "annex")
        inserts = [s for s in exporter.spans if s.name == "document.insert"]
        assert inserts
        assert inserts[0].attributes["scheme"] == "ordpath"
        assert "overflow" in inserts[0].attributes

    def test_traced_updates_publish_label_histograms(self):
        # A Dewey insert before the first book labels one node and
        # relabels its following siblings in one pass.
        ldoc = labeled(parse(SAMPLE), "dewey")
        book = ldoc.document.root.element_children()[0].element_children()[0]
        with get_registry().scoped() as delta:
            with tracing_enabled(InMemorySpanExporter()):
                ldoc.updates.insert_before(book, "new")
        assert delta["scheme.dewey.label_bits.count"] == 1
        assert delta["scheme.dewey.relabel_extent.count"] == 1
