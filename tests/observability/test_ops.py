"""The structured op-log: ring bounds, slow-op capture, instrumentation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.durability.faults import InjectedFault, get_injector
from repro.errors import StaleIndexError
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.ops import (
    OpLog,
    configure_oplog,
    get_oplog,
    instrument,
    oplog_enabled,
    render_oplog,
)
from repro.observability.tracing import InMemorySpanExporter, get_tracer
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse

SAMPLE = "<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>"


@pytest.fixture
def oplog():
    """A private, enabled op-log over a private registry."""
    return OpLog(enabled=True, registry=MetricsRegistry())


def ldoc(scheme="dewey"):
    return LabeledDocument(parse(SAMPLE), make_scheme(scheme))


class TestRingBounds:
    def test_overflow_evicts_oldest_and_counts(self):
        registry = MetricsRegistry()
        log = OpLog(capacity=5, enabled=True, registry=registry)
        for index in range(8):
            log.record(f"op.k{index}", 0.001)
        events = log.events()
        assert len(events) == 5
        # The oldest three fell off; the newest five remain, in order.
        assert [event.kind for event in events] == [
            "op.k3", "op.k4", "op.k5", "op.k6", "op.k7"
        ]
        snapshot = registry.snapshot()
        assert snapshot["ops.recorded"] == 8
        assert snapshot["ops.evicted"] == 3

    def test_sequence_numbers_survive_eviction(self):
        log = OpLog(capacity=2, enabled=True, registry=MetricsRegistry())
        for _ in range(5):
            log.record("op.x", 0.0)
        assert [event.seq for event in log.events()] == [4, 5]

    def test_capacity_shrink_via_configure_evicts(self):
        with oplog_enabled(capacity=10) as log:
            for _ in range(10):
                log.record("op.x", 0.0)
            configure_oplog(enabled=True, capacity=4)
            assert len(log) == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            OpLog(capacity=0, registry=MetricsRegistry())

    def test_clear_keeps_monotonic_counters(self):
        registry = MetricsRegistry()
        log = OpLog(enabled=True, registry=registry)
        log.record("op.x", 0.0)
        log.clear()
        assert len(log) == 0
        assert registry.snapshot()["ops.recorded"] == 1


class TestSlowOpCapture:
    def test_fast_ok_event_drops_attributes(self, oplog):
        oplog.slow_threshold_s = 0.1
        event = oplog.record("op.x", 0.001,
                             attributes={"detail": "dropped"})
        assert event.slow is False
        assert event.attributes == {}

    def test_slow_event_keeps_attributes_and_flag(self, oplog):
        oplog.slow_threshold_s = 0.05
        event = oplog.record("op.x", 0.051,
                             attributes={"detail": "kept"})
        assert event.slow is True
        assert event.attributes == {"detail": "kept"}

    def test_error_event_keeps_attributes_even_when_fast(self, oplog):
        event = oplog.record("op.x", 0.0, outcome="error",
                             error_type="ValueError",
                             attributes={"detail": "kept"})
        assert event.attributes == {"detail": "kept"}

    def test_slow_counter_increments(self):
        registry = MetricsRegistry()
        log = OpLog(enabled=True, slow_threshold_s=0.01, registry=registry)
        log.record("op.x", 0.02)
        log.record("op.x", 0.001)
        assert registry.snapshot()["ops.slow"] == 1

    def test_op_scope_records_error_outcome_and_reraises(self):
        with oplog_enabled() as log:
            with pytest.raises(ValueError):
                with instrument("op.x", scheme="dewey"):
                    raise ValueError("boom")
        (event,) = log.events()
        assert event.outcome == "error"
        assert event.error_type == "ValueError"
        assert event.scheme == "dewey"

    def test_invalid_outcome_rejected(self, oplog):
        with pytest.raises(ValueError):
            oplog.record("op.x", 0.0, outcome="meh")


class TestDisabledCost:
    def test_disabled_log_records_nothing(self):
        log = OpLog(enabled=False, registry=MetricsRegistry())
        assert log.record("op.x", 0.0) is None
        assert len(log) == 0

    def test_disabled_op_returns_shared_noop(self):
        # Both consumers off: every kind gets the same falsy object.
        first = instrument("op.x")
        second = instrument("op.y", kind="insert", nodes=3)
        assert first is second
        assert not first
        with first as event:
            assert event is first
            event.set(nodes=3, outcome="rollback", scheme="dewey")

    def test_disabled_instrument_overhead_is_bounded(self):
        calls = 20000
        start = time.perf_counter()
        for _ in range(calls):
            with instrument("hot", scheme="dewey") as event:
                if event:  # pragma: no cover - disabled
                    event.set(nodes=1)
        elapsed = time.perf_counter() - start
        # The tracer test's ceiling: 10µs per disabled call.
        assert elapsed / calls < 10e-6

    def test_global_oplog_disabled_by_default(self):
        assert get_oplog().enabled is False

    def test_document_insert_allocates_no_event_when_disabled(self):
        document = ldoc()
        tracer = get_tracer()
        assert not tracer.enabled
        exporter = InMemorySpanExporter()
        saved_exporters = tracer.exporters
        tracer.exporters = [exporter]
        try:
            before = len(get_oplog())
            next_span_id = tracer._next_span_id
            document.updates.append_child(document.document.root, "quiet")
        finally:
            tracer.exporters = saved_exporters
        assert len(get_oplog()) == before
        assert len(exporter) == 0
        assert tracer._next_span_id == next_span_id


class TestInstrumentedPaths:
    def test_document_updates_emit_typed_events(self):
        with oplog_enabled() as log:
            document = ldoc()
            root = document.document.root
            node = document.updates.append_child(root, "n").node
            document.updates.delete(node)
        kinds = {event.kind for event in log.events()}
        assert "document.insert" in kinds
        assert "document.delete" in kinds
        insert = log.events(kind="document.insert")[0]
        assert insert.scheme == "dewey"
        assert insert.nodes >= 1

    def test_batch_apply_and_transaction_commit_emit_events(self):
        with oplog_enabled() as log:
            document = ldoc()
            root = document.document.root
            with document.batch() as batch:
                batch.append_child(root, "a")
                batch.append_child(root, "b")
            with document.transaction() as txn:
                txn.append_child(root, "c")
        kinds = set(log.kinds())
        assert "batch.apply" in kinds
        assert "transaction.commit" in kinds

    def test_rollback_outcome_recorded_from_faulted_commit(self):
        with oplog_enabled() as log:
            document = ldoc()
            root = document.document.root
            get_injector().arm("transaction.commit")
            with pytest.raises(InjectedFault):
                with document.transaction() as txn:
                    txn.append_child(root, "doomed")
        commits = log.events(kind="transaction.commit")
        rollbacks = log.events(kind="transaction.rollback")
        assert commits and commits[-1].outcome == "error"
        assert commits[-1].error_type == "InjectedFault"
        assert rollbacks and rollbacks[-1].outcome == "rollback"

    def test_accelerator_build_and_stale_refusal_events(self):
        with oplog_enabled() as log:
            document = ldoc()
            accelerator = document.accelerator()
            accelerator.refresh()
            document.unsubscribe_deltas(accelerator)
            document.updates.append_child(document.document.root, "new")
            with pytest.raises(StaleIndexError):
                accelerator.evaluate("descendant", document.document.root)
        builds = log.events(kind="accelerator.build")
        refusals = log.events(kind="accelerator.stale_refusal")
        assert builds and builds[0].nodes == 6
        assert refusals and refusals[0].outcome == "error"
        assert refusals[0].error_type == "StaleIndexError"

    def test_repository_ingest_and_xpath_events(self):
        from repro.store import open_repository

        with oplog_enabled() as log:
            with open_repository("memory://") as repository:
                stored = repository.add("lib", SAMPLE, scheme="dewey")
                matches = stored.xpath("//book")
        assert len(matches) == 3
        ingest = log.events(kind="repository.ingest")
        xpath = log.events(kind="repository.xpath")
        assert ingest and ingest[0].document == "lib"
        assert ingest[0].nodes == 6
        assert xpath and xpath[0].nodes == 3

    def test_recover_event_carries_document_and_scheme(self, tmp_path):
        from repro.durability.journal import Journal, recover

        document = ldoc("ordpath")
        path = tmp_path / "orders.journal"
        with Journal.create(path, document, name="orders") as journal:
            with document.transaction(journal=journal) as txn:
                txn.append_child(document.document.root, "order")
        with oplog_enabled() as log:
            result = recover(path)
        assert result.transactions_applied == 1
        (event,) = log.events(kind="journal.recover")
        assert event.document == "orders"
        assert event.scheme == "ordpath"
        assert event.nodes == 1

    def test_per_kind_histogram_published(self):
        with oplog_enabled():
            document = ldoc()
            document.updates.append_child(document.document.root, "n")
        snapshot = get_registry().snapshot()
        assert snapshot["ops.document.insert.ms.count"] >= 1


class TestReadersAndRendering:
    def test_events_filter_and_limit(self, oplog):
        for index in range(6):
            oplog.record("op.a" if index % 2 else "op.b", 0.0)
        assert len(oplog.events(kind="op.a")) == 3
        assert len(oplog.events(limit=2)) == 2

    def test_tail_filters_outcome(self, oplog):
        oplog.record("op.a", 0.0)
        oplog.record("op.b", 0.0, outcome="error", error_type="E")
        tail = oplog.tail(outcome="error")
        assert [event.kind for event in tail] == ["op.b"]

    def test_rates_window(self, oplog):
        oplog.record("op.a", 0.0)
        oplog.record("op.a", 0.0)
        rates = oplog.rates(window_s=10.0)
        assert rates["op.a"] == pytest.approx(0.2)

    def test_to_payload_schema(self, oplog):
        oplog.record("op.a", 0.0)
        payload = oplog.to_payload()
        assert payload["schema_version"] == 1
        assert payload["recorded_total"] == 1
        assert payload["events"][0]["kind"] == "op.a"

    def test_render_oplog_table(self, oplog):
        oplog.record("op.a", 0.002, nodes=3, scheme="dewey")
        text = render_oplog(oplog)
        assert "op.a" in text
        assert "dewey" in text

    def test_render_empty_oplog(self, oplog):
        assert "no operations" in render_oplog(oplog)

    def test_concurrent_recording_is_safe(self, oplog):
        errors = []

        def hammer():
            try:
                for _ in range(500):
                    oplog.record("op.t", 0.0)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(oplog) <= oplog.capacity


class TestIsoTimestamps:
    def test_iso_ts_formats_utc(self):
        from repro.observability.ops import iso_ts

        assert iso_ts(0) == "1970-01-01T00:00:00Z"
        assert iso_ts(1700000000) == "2023-11-14T22:13:20Z"

    def test_render_oplog_leads_with_utc_column(self, oplog):
        oplog.record("op.a", 0.002, nodes=3)
        text = render_oplog(oplog)
        header, first_row = text.splitlines()[0], text.splitlines()[1]
        assert header.startswith("time (UTC)")
        # Each row leads with an ISO-8601 Z timestamp.
        assert first_row[:20].strip().endswith("Z")
        assert "T" in first_row[:20]

    def test_payload_timestamps_stay_numeric(self, oplog):
        oplog.record("op.a", 0.002)
        event = oplog.to_payload()["events"][0]
        assert isinstance(event["ts"], float)
