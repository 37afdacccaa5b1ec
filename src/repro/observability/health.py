"""Health watchdog: pluggable probes over live telemetry.

A probe is one operational rule evaluated against the current state of
the process — the metrics snapshot, the op-log tail, journal sync
counters, accelerator staleness — yielding ``ok``/``warn``/``critical``
with the *evidence* that produced the verdict (the numbers, not just
the colour).  :func:`run_health` evaluates a probe catalogue and
aggregates the results into a schema-versioned health document, which
is what ``repro health`` and the ``/health`` endpoint of
``repro serve-metrics`` emit.

The built-in catalogue watches the failure modes the update-mechanism
experiments actually exhibit:

* ``journal-unsynced-tail`` — appends racing ahead of fsyncs (a
  ``sync="never"`` journal growing an unsynced tail it would lose on a
  crash);
* ``rollback-rate`` — transactions/batches aborting instead of
  committing;
* ``stale-index-rate`` — accelerator queries and EXPLAIN plans refused
  because the index lost its delta feed;
* ``backend-lock-contention`` — concurrent opens refused by a storage
  backend's single-writer lock;
* ``op-error-rate`` — the op-log's error fraction, with the most
  recent error kinds as evidence.

Every threshold is a constructor argument, and any object with a
``name`` and an ``evaluate(context) -> ProbeResult`` is a valid probe,
so deployments can extend or re-tune the catalogue without touching
this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.ops import OpLog, get_oplog

__all__ = [
    "HEALTH_SCHEMA_VERSION",
    "ProbeResult",
    "HealthContext",
    "HealthProbe",
    "HealthReport",
    "JournalTailProbe",
    "RollbackRateProbe",
    "StaleIndexProbe",
    "BackendLockProbe",
    "OpErrorRateProbe",
    "default_probes",
    "health_from_snapshot",
    "run_health",
    "render_health",
]

#: Version stamp of the health document produced by :func:`run_health`.
HEALTH_SCHEMA_VERSION = 1

#: Verdicts in increasing severity; aggregation takes the worst.
STATUSES = ("ok", "warn", "critical")
_SEVERITY = {status: rank for rank, status in enumerate(STATUSES)}


@dataclass
class ProbeResult:
    """One probe's verdict with its supporting evidence."""

    probe: str
    status: str
    evidence: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "probe": self.probe,
            "status": self.status,
            "evidence": self.evidence,
            "data": self.data,
        }


@dataclass
class HealthContext:
    """What every probe gets to look at."""

    metrics: Dict[str, float]
    oplog: Optional[OpLog] = None

    def value(self, name: str, default: float = 0.0) -> float:
        """One metric from the snapshot (``default`` when absent)."""
        return self.metrics.get(name, default)


class HealthProbe:
    """Base class: a named rule mapping telemetry to a verdict.

    Subclasses set :attr:`name` and implement :meth:`evaluate`; the
    :meth:`result` helper stamps the probe name on the verdict.
    """

    name = "probe"

    def evaluate(self, context: HealthContext) -> ProbeResult:
        raise NotImplementedError

    def result(self, status: str, evidence: str,
               **data: Any) -> ProbeResult:
        if status not in STATUSES:
            raise ValueError(
                f"probe status must be one of {STATUSES}, got {status!r}")
        return ProbeResult(probe=self.name, status=status,
                           evidence=evidence, data=data)


class JournalTailProbe(HealthProbe):
    """Unsynced journal tail: appends far ahead of fsyncs.

    A journal running ``sync="never"`` (or an fsync path that stopped
    being reached) accumulates records the OS may still lose; the
    append/sync ratio is the cheapest monotonic proxy for that tail.
    """

    name = "journal-unsynced-tail"

    def __init__(self, min_appends: int = 32, warn_ratio: float = 64.0,
                 critical_ratio: float = 512.0):
        self.min_appends = min_appends
        self.warn_ratio = warn_ratio
        self.critical_ratio = critical_ratio

    def evaluate(self, context: HealthContext) -> ProbeResult:
        appends = context.value("durability.journal.appends")
        syncs = context.value("durability.journal.syncs")
        if appends < self.min_appends:
            return self.result(
                "ok", f"journal quiet ({appends:.0f} appends)",
                appends=appends, syncs=syncs)
        if syncs == 0:
            return self.result(
                "critical",
                f"{appends:.0f} journal appends and not one fsync — the "
                f"whole tail is unsynced",
                appends=appends, syncs=syncs)
        ratio = appends / syncs
        if ratio >= self.critical_ratio:
            status = "critical"
        elif ratio >= self.warn_ratio:
            status = "warn"
        else:
            status = "ok"
        return self.result(
            status,
            f"{appends:.0f} appends / {syncs:.0f} fsyncs "
            f"(ratio {ratio:.1f}, warn at {self.warn_ratio:.0f})",
            appends=appends, syncs=syncs, ratio=ratio)


class RollbackRateProbe(HealthProbe):
    """Transactions and batches aborting instead of committing."""

    name = "rollback-rate"

    def __init__(self, min_attempts: int = 5, warn_rate: float = 0.2,
                 critical_rate: float = 0.5):
        self.min_attempts = min_attempts
        self.warn_rate = warn_rate
        self.critical_rate = critical_rate

    def evaluate(self, context: HealthContext) -> ProbeResult:
        commits = context.value("durability.commits")
        rollbacks = (context.value("durability.rollbacks")
                     + context.value("batch.rollbacks"))
        attempts = commits + rollbacks
        if attempts < self.min_attempts:
            return self.result(
                "ok", f"too few attempts to judge ({attempts:.0f})",
                commits=commits, rollbacks=rollbacks)
        rate = rollbacks / attempts
        if rate >= self.critical_rate:
            status = "critical"
        elif rate >= self.warn_rate:
            status = "warn"
        else:
            status = "ok"
        return self.result(
            status,
            f"{rollbacks:.0f} rollbacks over {attempts:.0f} attempts "
            f"({rate:.0%}, warn at {self.warn_rate:.0%})",
            commits=commits, rollbacks=rollbacks, rate=rate)


class StaleIndexProbe(HealthProbe):
    """Accelerator queries refused because the index went stale.

    Every refusal counts, a query's, an EXPLAIN plan's or a structural
    lookup's: they all go through the index's one staleness check.
    """

    name = "stale-index-rate"

    def __init__(self, warn_rate: float = 0.02, critical_rate: float = 0.2):
        self.warn_rate = warn_rate
        self.critical_rate = critical_rate

    def evaluate(self, context: HealthContext) -> ProbeResult:
        stale = context.value("axes.accelerator.stale_errors")
        queries = context.value("axes.accelerator.queries")
        if stale == 0:
            return self.result(
                "ok", f"no stale refusals over {queries:.0f} queries",
                stale_errors=stale, queries=queries)
        attempts = queries + stale
        rate = stale / attempts
        if rate >= self.critical_rate:
            status = "critical"
        elif rate >= self.warn_rate:
            status = "warn"
        else:
            status = "ok"
        return self.result(
            status,
            f"{stale:.0f} stale-index refusals over {attempts:.0f} "
            f"query attempts ({rate:.0%})",
            stale_errors=stale, queries=queries, rate=rate)


class BackendLockProbe(HealthProbe):
    """Storage backend single-writer lock refusing concurrent opens."""

    name = "backend-lock-contention"

    def __init__(self, warn_at: int = 1, critical_at: int = 10):
        self.warn_at = warn_at
        self.critical_at = critical_at

    def evaluate(self, context: HealthContext) -> ProbeResult:
        refusals = context.value("store.backend.lock_refusals")
        if refusals >= self.critical_at:
            status = "critical"
        elif refusals >= self.warn_at:
            status = "warn"
        else:
            status = "ok"
        return self.result(
            status, f"{refusals:.0f} lock refusals",
            lock_refusals=refusals)


class OpErrorRateProbe(HealthProbe):
    """Error fraction of the op-log, with recent error kinds as evidence."""

    name = "op-error-rate"

    def __init__(self, min_ops: int = 20, warn_rate: float = 0.02,
                 critical_rate: float = 0.2):
        self.min_ops = min_ops
        self.warn_rate = warn_rate
        self.critical_rate = critical_rate

    def evaluate(self, context: HealthContext) -> ProbeResult:
        recorded = context.value("ops.recorded")
        errors = context.value("ops.errors")
        if recorded < self.min_ops:
            return self.result(
                "ok", f"too few ops to judge ({recorded:.0f})",
                recorded=recorded, errors=errors)
        rate = errors / recorded
        recent: List[str] = []
        if context.oplog is not None:
            recent = [f"{event.kind}:{event.error_type}"
                      for event in context.oplog.tail(outcome="error",
                                                      limit=5)]
        if rate >= self.critical_rate:
            status = "critical"
        elif rate >= self.warn_rate:
            status = "warn"
        else:
            status = "ok"
        evidence = (f"{errors:.0f} errors over {recorded:.0f} ops "
                    f"({rate:.1%})")
        if recent:
            evidence += f"; recent: {', '.join(recent)}"
        return self.result(status, evidence, recorded=recorded,
                           errors=errors, rate=rate, recent_errors=recent)


def default_probes() -> List[HealthProbe]:
    """A fresh instance of the built-in probe catalogue."""
    return [
        JournalTailProbe(),
        RollbackRateProbe(),
        StaleIndexProbe(),
        BackendLockProbe(),
        OpErrorRateProbe(),
    ]


@dataclass
class HealthReport:
    """Aggregated probe verdicts: the schema-versioned health document."""

    status: str
    results: List[ProbeResult]
    generated_ts: float

    @property
    def exit_code(self) -> int:
        """Process exit code for the CLI: 0 unless any probe is critical."""
        return 1 if self.status == "critical" else 0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema_version": HEALTH_SCHEMA_VERSION,
            "status": self.status,
            "generated_ts": self.generated_ts,
            "probes": [result.to_dict() for result in self.results],
        }


def run_health(registry: Optional[MetricsRegistry] = None,
               oplog: Optional[OpLog] = None,
               probes: Optional[Sequence[HealthProbe]] = None,
               ) -> HealthReport:
    """Evaluate a probe catalogue and aggregate the worst verdict.

    Defaults to the global registry, the global op-log and
    :func:`default_probes`.  A probe that *itself* raises is reported
    as ``critical`` with the exception as evidence — a broken watchdog
    must never masquerade as a healthy system.
    """
    if registry is None:
        registry = get_registry()
    if oplog is None:
        oplog = get_oplog()
    registry.counter("health.evaluations").increment()
    return health_from_snapshot(registry.snapshot(), oplog=oplog,
                                probes=probes, registry=registry)


def health_from_snapshot(metrics: Dict[str, float],
                         oplog: Optional[OpLog] = None,
                         probes: Optional[Sequence[HealthProbe]] = None,
                         registry: Optional[MetricsRegistry] = None,
                         ) -> HealthReport:
    """Evaluate the probes over a *saved* metrics snapshot.

    :func:`run_health` passes the live registry's snapshot; a snapshot
    saved by another process works the same way, because the snapshot
    is the evidence and no live registry or op-log is required.
    ``registry`` is only used to count probe failures.
    """
    if registry is None:
        registry = get_registry()
    if probes is None:
        probes = default_probes()
    context = HealthContext(metrics=metrics, oplog=oplog)
    results: List[ProbeResult] = []
    for probe in probes:
        try:
            results.append(probe.evaluate(context))
        except Exception as error:
            results.append(ProbeResult(
                probe=getattr(probe, "name", type(probe).__name__),
                status="critical",
                evidence=f"probe raised {type(error).__name__}: {error}",
            ))
            registry.counter("health.probe_failures").increment()
    worst = "ok"
    for result in results:
        if _SEVERITY[result.status] > _SEVERITY[worst]:
            worst = result.status
    return HealthReport(status=worst, results=results,
                        generated_ts=time.time())


_STATUS_MARKS = {"ok": "+", "warn": "!", "critical": "x"}


def render_health(report: HealthReport) -> str:
    """Plain-text health table (the ``repro health`` output)."""
    if not report.results:
        return f"overall: {report.status} (no probes)"
    width = max(len(result.probe) for result in report.results)
    lines = [f"overall: {report.status}"]
    for result in report.results:
        mark = _STATUS_MARKS.get(result.status, "?")
        lines.append(f"  {mark} {result.probe:{width}s}  "
                     f"{result.status:8s} {result.evidence}")
    return "\n".join(lines)
