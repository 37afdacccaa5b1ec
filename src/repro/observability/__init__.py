"""Observability: metrics and tracing behind the package's cost accounting.

The survey's whole argument is that update mechanisms must be *measured*,
not assumed — overflow events, relabel passes and comparison counts are
its currency.  This package turns those measurements into two layers:

* a uniform, process-wide **metrics** registry — counters and
  histograms collected in a
  :class:`~repro.observability.metrics.MetricsRegistry`, fed by the
  scheme instrumentation, the update log, the batch engine and the
  structural joins, and rendered by ``python -m repro metrics``;
* a hierarchical **tracing** layer
  (:mod:`repro.observability.tracing`) that attributes those costs to
  individual operations — spans over inserts, relabel passes, journal
  writes and joins, with per-span metric deltas, head-based sampling
  and JSONL export, rendered by ``python -m repro trace``;
* a structured **operations log** (:mod:`repro.observability.ops`) —
  a bounded ring of typed per-operation events with outcome, duration
  and trace correlation.  Its :func:`~repro.observability.ops.instrument`
  scope is the one instrumentation event every hot path opens: it feeds
  the op-log, the span tree and the per-kind ``ops.<kind>.ms``
  histogram, and costs one shared no-op object while both are off;
* a **health watchdog** (:mod:`repro.observability.health`) — pluggable
  probes reading the metrics snapshot and the op-log, aggregated into
  one ok/warn/critical document behind ``python -m repro health``;
* a continuous **exporter** (:mod:`repro.observability.export`) —
  OpenMetrics text rendering, an interval JSONL sampler, and the
  stdlib HTTP endpoint behind ``python -m repro serve-metrics``;
* a decision-level **EXPLAIN** layer
  (:mod:`repro.observability.explain`) — structured query plans with
  per-step strategy, estimated vs. actual cardinality and wall time,
  plus an update-batch explainer, behind ``python -m repro explain``;
* per-document **cardinality statistics**
  (:mod:`repro.observability.stats`) — tag counts, depth histogram,
  fan-out and learned per-axis selectivities feeding the EXPLAIN
  estimates, persisted through every storage backend, behind
  ``python -m repro stats``;
* a **flight-recorder profiler**
  (:mod:`repro.observability.profiler`) — a sampling stack profiler
  with collapsed-stack (flamegraph) output and a top-functions table,
  behind ``--profile`` and ``python -m repro profile``.
"""

from repro.observability.explain import (
    EXPLAIN_SCHEMA_VERSION,
    PlanRecorder,
    PlanStep,
    QueryPlan,
    UpdatePlan,
    explain_batch,
    explain_query,
)
from repro.observability.export import (
    OPENMETRICS_CONTENT_TYPE,
    IntervalSampler,
    MetricsHTTPServer,
    openmetrics_name,
    render_openmetrics,
    serve_metrics,
    start_metrics_server,
)
from repro.observability.health import (
    HEALTH_SCHEMA_VERSION,
    HealthContext,
    HealthProbe,
    HealthReport,
    ProbeResult,
    default_probes,
    health_from_snapshot,
    render_health,
    run_health,
)
from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_metrics,
)
from repro.observability.ops import (
    OpEvent,
    OpLog,
    configure_oplog,
    get_oplog,
    instrument,
    oplog_enabled,
    render_oplog,
)
from repro.observability.profiler import (
    DEFAULT_HERTZ,
    SamplingProfiler,
    load_collapsed,
    merge_collapsed,
    render_top,
    top_functions,
    write_collapsed,
)
from repro.observability.stats import (
    STATS_SCHEMA_VERSION,
    StatsCollector,
    render_stats,
)
from repro.observability.tracing import (
    AlwaysOffSampler,
    AlwaysOnSampler,
    InMemorySpanExporter,
    JSONLinesSpanExporter,
    RatioSampler,
    Span,
    SpanRecord,
    Tracer,
    configure_tracing,
    get_tracer,
    load_trace,
    render_span_tree,
    render_summary,
    summarize_trace,
    tracing_enabled,
)

__all__ = [
    "AlwaysOffSampler",
    "AlwaysOnSampler",
    "Counter",
    "DEFAULT_HERTZ",
    "EXPLAIN_SCHEMA_VERSION",
    "HEALTH_SCHEMA_VERSION",
    "HealthContext",
    "HealthProbe",
    "HealthReport",
    "Histogram",
    "InMemorySpanExporter",
    "IntervalSampler",
    "JSONLinesSpanExporter",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "OpEvent",
    "OpLog",
    "PlanRecorder",
    "PlanStep",
    "ProbeResult",
    "QueryPlan",
    "RatioSampler",
    "STATS_SCHEMA_VERSION",
    "SamplingProfiler",
    "Span",
    "SpanRecord",
    "StatsCollector",
    "Tracer",
    "UpdatePlan",
    "configure_oplog",
    "configure_tracing",
    "default_probes",
    "explain_batch",
    "explain_query",
    "get_oplog",
    "get_registry",
    "get_tracer",
    "health_from_snapshot",
    "instrument",
    "load_collapsed",
    "load_trace",
    "merge_collapsed",
    "openmetrics_name",
    "oplog_enabled",
    "render_health",
    "render_metrics",
    "render_oplog",
    "render_openmetrics",
    "render_span_tree",
    "render_stats",
    "render_summary",
    "render_top",
    "run_health",
    "serve_metrics",
    "start_metrics_server",
    "summarize_trace",
    "top_functions",
    "tracing_enabled",
    "write_collapsed",
]
