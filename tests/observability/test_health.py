"""The health watchdog: probe transitions, aggregation, fault drills."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.axes.accelerator as accelerator_module
from repro.durability.faults import InjectedFault, get_injector
from repro.errors import StaleIndexError
from repro.observability.explain import explain_query
from repro.observability.health import (
    BackendLockProbe,
    HealthContext,
    HealthProbe,
    JournalTailProbe,
    OpErrorRateProbe,
    RollbackRateProbe,
    StaleIndexProbe,
    default_probes,
    health_from_snapshot,
    render_health,
    run_health,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.ops import OpLog, oplog_enabled
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"

SAMPLE = "<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>"


def context(**metrics):
    return HealthContext(metrics=metrics)


class TestProbeTransitions:
    def test_journal_tail_ok_warn_critical(self):
        probe = JournalTailProbe(min_appends=10, warn_ratio=64,
                                 critical_ratio=512)
        ok = probe.evaluate(context(**{"durability.journal.appends": 64,
                                       "durability.journal.syncs": 4}))
        warn = probe.evaluate(context(**{"durability.journal.appends": 640,
                                         "durability.journal.syncs": 4}))
        critical = probe.evaluate(
            context(**{"durability.journal.appends": 4096,
                       "durability.journal.syncs": 4}))
        assert [ok.status, warn.status, critical.status] == [
            "ok", "warn", "critical"
        ]

    def test_journal_never_synced_is_critical(self):
        probe = JournalTailProbe(min_appends=10)
        result = probe.evaluate(
            context(**{"durability.journal.appends": 50}))
        assert result.status == "critical"

    def test_rollback_rate_transitions(self):
        probe = RollbackRateProbe(min_attempts=5, warn_rate=0.2,
                                  critical_rate=0.5)
        ok = probe.evaluate(context(**{"durability.commits": 99,
                                       "durability.rollbacks": 1}))
        warn = probe.evaluate(context(**{"durability.commits": 7,
                                         "durability.rollbacks": 3}))
        critical = probe.evaluate(context(**{"durability.commits": 3,
                                             "durability.rollbacks": 7}))
        assert [ok.status, warn.status, critical.status] == [
            "ok", "warn", "critical"
        ]

    def test_rollback_rate_quiet_below_minimum(self):
        probe = RollbackRateProbe(min_attempts=5)
        result = probe.evaluate(context(**{"durability.rollbacks": 2}))
        assert result.status == "ok"

    def test_stale_index_rate_transitions(self):
        probe = StaleIndexProbe(warn_rate=0.02, critical_rate=0.2)
        ok = probe.evaluate(
            context(**{"axes.accelerator.queries": 1000,
                       "axes.accelerator.stale_errors": 0}))
        warn = probe.evaluate(
            context(**{"axes.accelerator.queries": 95,
                       "axes.accelerator.stale_errors": 5}))
        critical = probe.evaluate(
            context(**{"axes.accelerator.queries": 5,
                       "axes.accelerator.stale_errors": 5}))
        assert [ok.status, warn.status, critical.status] == [
            "ok", "warn", "critical"
        ]

    def test_backend_lock_transitions(self):
        probe = BackendLockProbe(warn_at=1, critical_at=10)
        ok = probe.evaluate(context())
        warn = probe.evaluate(
            context(**{"store.backend.lock_refusals": 1}))
        critical = probe.evaluate(
            context(**{"store.backend.lock_refusals": 10}))
        assert [ok.status, warn.status, critical.status] == [
            "ok", "warn", "critical"
        ]

    def test_op_error_rate_uses_oplog_evidence(self):
        log = OpLog(enabled=True, registry=MetricsRegistry())
        log.record("journal.append", 0.0, outcome="error",
                   error_type="OSError")
        probe = OpErrorRateProbe(min_ops=20, warn_rate=0.02,
                                 critical_rate=0.2)
        result = probe.evaluate(HealthContext(
            metrics={"ops.recorded": 100, "ops.errors": 3}, oplog=log))
        assert result.status == "warn"
        assert "journal.append:OSError" in result.evidence


class TestAggregation:
    def test_worst_status_wins(self):
        report = health_from_snapshot(
            {"store.backend.lock_refusals": 10},
            registry=MetricsRegistry())
        assert report.status == "critical"
        assert report.exit_code == 1

    def test_all_quiet_is_ok_with_exit_zero(self):
        report = health_from_snapshot({}, registry=MetricsRegistry())
        assert report.status == "ok"
        assert report.exit_code == 0
        assert len(report.results) == len(default_probes())

    def test_raising_probe_reported_critical_not_raised(self):
        class BrokenProbe(HealthProbe):
            name = "broken"

            def evaluate(self, ctx):
                raise RuntimeError("watchdog bug")

        registry = MetricsRegistry()
        report = health_from_snapshot({}, probes=[BrokenProbe()],
                                      registry=registry)
        assert report.status == "critical"
        assert "RuntimeError" in report.results[0].evidence
        assert registry.snapshot()["health.probe_failures"] == 1

    def test_payload_schema_versioned(self):
        report = health_from_snapshot({}, registry=MetricsRegistry())
        payload = report.to_payload()
        assert payload["schema_version"] == 1
        assert payload["status"] == "ok"
        assert {probe["probe"] for probe in payload["probes"]} == {
            probe.name for probe in default_probes()
        }

    def test_run_health_counts_evaluations(self):
        registry = MetricsRegistry()
        run_health(registry=registry,
                   oplog=OpLog(registry=registry), probes=[])
        assert registry.snapshot()["health.evaluations"] == 1

    def test_render_health_marks_statuses(self):
        report = health_from_snapshot(
            {"store.backend.lock_refusals": 1},
            registry=MetricsRegistry())
        text = render_health(report)
        assert text.startswith("overall: warn")
        assert "! backend-lock-contention" in text

    def test_invalid_probe_status_rejected(self):
        probe = BackendLockProbe()
        with pytest.raises(ValueError):
            probe.result("fine", "nope")


class TestFaultDrill:
    """End-to-end: injected faults must surface as warn/critical."""

    def test_injected_commit_faults_trip_the_watchdog(self):
        registry = MetricsRegistry()
        injector = get_injector()
        with oplog_enabled() as log:
            document = LabeledDocument(parse(SAMPLE), make_scheme("dewey"))
            root = document.document.root
            for index in range(10):
                if index % 2 == 0:
                    injector.arm("transaction.commit")
                try:
                    with document.transaction() as txn:
                        txn.append_child(root, f"n{index}")
                except InjectedFault:
                    root = document.document.root
            # Build the probe context from this run's own ring, so the
            # drill is independent of whatever the global counters
            # accumulated across the rest of the suite.
            events = log.events()
            errors = [event for event in events
                      if event.outcome == "error"]
            report = health_from_snapshot(
                {
                    "durability.commits": 5,
                    "durability.rollbacks": 5,
                    "ops.recorded": len(events),
                    "ops.errors": len(errors),
                },
                oplog=log, registry=registry)
        statuses = {result.probe: result.status
                    for result in report.results}
        assert statuses["rollback-rate"] == "critical"
        assert statuses["op-error-rate"] in ("warn", "critical")
        assert report.exit_code == 1


def test_explain_refusals_trip_the_stale_index_probe(monkeypatch):
    # Route the index's counters into a private registry, so the
    # probe sees what EXPLAIN against a detached index records.
    registry = MetricsRegistry()
    monkeypatch.setattr(accelerator_module, "get_registry",
                        lambda: registry)
    ldoc = LabeledDocument(parse(SAMPLE), make_scheme("qed"))
    explain_query(ldoc, "//book", analyze=True)
    ldoc.unsubscribe_deltas(ldoc.accelerator())
    ldoc.updates.append_child(ldoc.document.root, "annex")
    for analyze in (False, True) * 4:
        with pytest.raises(StaleIndexError):
            explain_query(ldoc, "//book", analyze=analyze)
    snapshot = registry.snapshot()
    assert snapshot["axes.accelerator.stale_errors"] == 8
    result = StaleIndexProbe().evaluate(HealthContext(metrics=snapshot))
    assert result.status == "critical"
    assert "8 stale-index refusals" in result.evidence


def documented_probes():
    """The probe names in the ``default_probes()`` table of docs/API.md."""
    text = API_DOC.read_text(encoding="utf-8")
    section = text.split("### Health watchdog", 1)[1]
    table = section.split("| --- | --- | --- |", 1)[1]
    names = []
    for line in table.splitlines()[1:]:
        if not line.startswith("|"):
            break
        names.extend(re.findall(r"`([a-z-]+)`", line.split("|")[1]))
    return names


def test_probe_table_matches_the_api_doc():
    assert documented_probes() == [probe.name for probe in default_probes()]
