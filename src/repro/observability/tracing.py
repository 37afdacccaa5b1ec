"""Hierarchical span tracing: per-operation cost attribution.

The metrics registry answers *how much* a run cost in total; this module
answers *which operation* cost it.  A :class:`Span` is one timed region
of a hot path — an insert, a relabel pass, a journal fsync, a structural
join — with a name, free-form attributes (scheme name, node counts,
overflow flags), a parent, and the metric *deltas* its body produced
(captured by diffing :meth:`~repro.observability.metrics.MetricsRegistry.
snapshot` at entry and exit).  Spans nest naturally: an insert that
triggers a relabel pass owns the relabel span, so ORDPATH careting
cascades and QED skewed-insertion growth show up as subtrees, not as
anonymous contributions to a flat total.

Design constraints, in order:

* **Disabled tracing must cost nothing.**  Instrumented sites open their
  spans through :func:`repro.observability.ops.instrument`, the one
  event that also feeds the op-log; with both off (the default) it
  returns one shared no-op object and never reaches the tracer.  A
  direct :meth:`Tracer.span` on a disabled tracer likewise returns one
  shared no-op span.  Both overhead bounds are asserted in the tests.
* **Head-based sampling.**  The keep/drop decision is made once, when a
  *root* span starts; a dropped root suppresses its whole subtree, so a
  sampled trace is always structurally complete.  Samplers are seeded
  and deterministic — two runs with the same seed keep the same traces.
* **Exporters are dumb sinks.**  Each finished span is handed to every
  exporter (children finish before parents, so export order is
  postorder).  :class:`InMemorySpanExporter` is a bounded ring buffer
  (O(1) eviction) for tests and the CLI;
  :class:`JSONLinesSpanExporter` writes one JSON record per line, and
  :func:`load_trace` reads them back into :class:`SpanRecord` trees for
  offline analysis —
  :func:`summarize_trace` works identically on live spans and loaded
  records.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.observability.metrics import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "AlwaysOnSampler",
    "AlwaysOffSampler",
    "RatioSampler",
    "InMemorySpanExporter",
    "JSONLinesSpanExporter",
    "get_tracer",
    "configure_tracing",
    "tracing_enabled",
    "load_trace",
    "summarize_trace",
    "render_span_tree",
    "render_summary",
]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Span:
    """One timed, attributed region of an instrumented hot path.

    Spans are created by :meth:`Tracer.span` and finished by the
    tracer's context management; user code only reads them (or calls
    :meth:`set_attribute` while inside the region).  ``metrics`` holds
    the registry deltas the body produced, filled in at exit.
    """

    __slots__ = (
        "name", "attributes", "span_id", "trace_id", "parent",
        "children", "start_s", "end_s", "status", "error", "metrics",
    )

    def __init__(self, name: str, span_id: int, trace_id: int,
                 parent: Optional["Span"],
                 attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent = parent
        self.children: List["Span"] = []
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_s = 0.0
        self.end_s = 0.0
        self.status = "ok"
        self.error: Optional[str] = None
        self.metrics: Dict[str, float] = {}

    # -- written while the span is open ---------------------------------

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute (overwrites an existing key)."""
        self.attributes[key] = value

    # -- read after the span is finished --------------------------------

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds from start to end (cumulative time)."""
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        """Cumulative time minus the time spent in child spans."""
        return self.duration_s - sum(child.duration_s for child in self.children)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """The exporter wire format (what :func:`load_trace` reads)."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": None if self.parent is None else self.parent.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
            "metrics": self.metrics,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name!r} id={self.span_id} "
                f"{self.duration_s * 1e3:.3f}ms>")


class _NoopSpan:
    """The shared do-nothing span returned when tracing is off.

    One instance serves every disabled call site: entering, exiting and
    attributing it are empty methods, which is what keeps the
    instrumented hot paths free when nobody is looking.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _SuppressedScope:
    """Context for an unsampled root span: mutes the whole subtree.

    Head-based sampling decides at the root; descendants opened while a
    suppressed scope is active must not re-roll the dice (they are part
    of the dropped trace), so the tracer counts suppression depth and
    returns plain no-op spans until the scope unwinds.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self) -> "_SuppressedScope":
        self._tracer._suppressed += 1
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self._tracer._suppressed -= 1
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


class _SpanScope:
    """Context manager that opens/closes one recording span."""

    __slots__ = ("_tracer", "_span", "_metrics_before")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._metrics_before: Optional[Dict[str, float]] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        tracer._current = span
        if tracer.capture_metrics:
            self._metrics_before = tracer._registry.snapshot()
        span.start_s = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        span = self._span
        span.end_s = time.perf_counter()
        if exc_type is not None:
            span.status = "error"
            span.error = f"{exc_type.__name__}: {exc_value}"
        if self._metrics_before is not None:
            after = self._tracer._registry.snapshot()
            before = self._metrics_before
            span.metrics = {
                name: value - before.get(name, 0)
                for name, value in after.items()
                if value - before.get(name, 0)
            }
        self._tracer._finish(span)
        return False


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

class AlwaysOnSampler:
    """Keep every trace (the default)."""

    def sample(self, name: str) -> bool:
        return True


class AlwaysOffSampler:
    """Drop every trace (tracing stays structurally enabled)."""

    def sample(self, name: str) -> bool:
        return False


class RatioSampler:
    """Keep roughly ``ratio`` of root spans, deterministically.

    The decision stream comes from a seeded :class:`random.Random`, so
    two tracers built with the same seed sample the same sequence of
    roots — reproducible sampled profiles.
    """

    def __init__(self, ratio: float, seed: int = 0):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"sampling ratio must be in [0, 1], got {ratio}")
        self.ratio = ratio
        self.seed = seed
        self._rng = random.Random(seed)

    def sample(self, name: str) -> bool:
        return self._rng.random() < self.ratio


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

class InMemorySpanExporter:
    """A bounded ring buffer of finished spans (tests, the CLI).

    Holds the most recent ``capacity`` finished spans.  Because parents
    finish after their children, a parent evicting its own children is
    possible at tiny capacities; :meth:`roots` only reports roots still
    in the buffer.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("exporter capacity must be >= 1")
        self._spans: Deque[Span] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._spans.maxlen

    def export(self, span: Span) -> None:
        self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        """Every buffered span, in finish (postorder) order."""
        return list(self._spans)

    def roots(self) -> List[Span]:
        """Buffered root spans in finish order (one per kept trace)."""
        return [span for span in self._spans if span.is_root]

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


class JSONLinesSpanExporter:
    """Writes one JSON record per finished span to a file.

    The records round-trip through :func:`load_trace`.  Usable as a
    context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w", encoding="utf-8")

    def export(self, span: Span) -> None:
        self._file.write(
            json.dumps(span.to_dict(), separators=(",", ":"), default=str)
            + "\n"
        )

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "JSONLinesSpanExporter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

class Tracer:
    """Process-wide span factory with an explicit on/off switch.

    :meth:`span` decides whether a region costs anything: disabled → the
    shared no-op span; enabled but head-sampled out → a suppression
    scope; otherwise a recording :class:`Span` parented under the
    current one.  The package's own hot paths reach it through
    :func:`repro.observability.ops.instrument`.

    ``capture_metrics`` controls whether each recording span diffs the
    metrics registry around its body (cost attribution per span); turn
    it off for minimum-overhead pure timing.
    """

    def __init__(self, enabled: bool = False, sampler=None,
                 exporters: Sequence[Any] = (),
                 capture_metrics: bool = True,
                 registry: Optional[MetricsRegistry] = None):
        self.enabled = enabled
        self.sampler = sampler if sampler is not None else AlwaysOnSampler()
        self.exporters: List[Any] = list(exporters)
        self.capture_metrics = capture_metrics
        self._registry = registry if registry is not None else get_registry()
        self._current: Optional[Span] = None
        self._suppressed = 0
        self._next_span_id = 1

    # -- span creation ---------------------------------------------------

    def span(self, name: str, /, **attributes: Any):
        """A context manager timing one region; no-op when disabled::

            with tracer.span("document.relabel", scheme="ordpath") as span:
                ...
                span.set_attribute("nodes", count)
        """
        if not self.enabled:
            return _NOOP_SPAN
        if self._suppressed:
            return _NOOP_SPAN
        parent = self._current
        if parent is None and not self.sampler.sample(name):
            return _SuppressedScope(self)
        span_id = self._next_span_id
        self._next_span_id += 1
        trace_id = span_id if parent is None else parent.trace_id
        span = Span(name, span_id, trace_id, parent, attributes)
        return _SpanScope(self, span)

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open recording span, if any."""
        return self._current

    # -- configuration ---------------------------------------------------

    def enable(self, sampler=None, exporter=None,
               capture_metrics: Optional[bool] = None) -> None:
        """Switch tracing on, optionally swapping sampler/exporters."""
        if sampler is not None:
            self.sampler = sampler
        if exporter is not None:
            self.exporters = [exporter]
        if capture_metrics is not None:
            self.capture_metrics = capture_metrics
        self.enabled = True

    def disable(self) -> None:
        """Switch tracing off (open spans still finish normally)."""
        self.enabled = False

    def add_exporter(self, exporter: Any) -> None:
        self.exporters.append(exporter)

    # -- internals -------------------------------------------------------

    def _finish(self, span: Span) -> None:
        self._current = span.parent
        if span.parent is not None:
            span.parent.children.append(span)
        for exporter in self.exporters:
            exporter.export(span)


#: The process-wide tracer every instrumented path consults; disabled by
#: default so the hot paths stay at no-op cost.
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer` singleton."""
    return _GLOBAL_TRACER


def configure_tracing(enabled: bool = True, sampler=None, exporter=None,
                      capture_metrics: Optional[bool] = None) -> Tracer:
    """(Re)configure the global tracer in one call; returns it."""
    tracer = _GLOBAL_TRACER
    if enabled:
        tracer.enable(sampler=sampler, exporter=exporter,
                      capture_metrics=capture_metrics)
    else:
        tracer.disable()
    return tracer


class tracing_enabled:
    """Scope the global tracer on, restoring its prior state on exit::

        exporter = InMemorySpanExporter()
        with tracing_enabled(exporter):
            run_workload()
        tree = exporter.roots()

    Benchmarks and tests use this so a traced phase cannot leak an
    enabled tracer into the rest of the process.
    """

    def __init__(self, exporter=None, sampler=None,
                 capture_metrics: Optional[bool] = None):
        self._exporter = exporter
        self._sampler = sampler
        self._capture_metrics = capture_metrics
        self._saved = None

    def __enter__(self) -> Tracer:
        tracer = _GLOBAL_TRACER
        self._saved = (tracer.enabled, tracer.sampler,
                       list(tracer.exporters), tracer.capture_metrics)
        tracer.enable(sampler=self._sampler, exporter=self._exporter,
                      capture_metrics=self._capture_metrics)
        return tracer

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        tracer = _GLOBAL_TRACER
        (tracer.enabled, tracer.sampler,
         tracer.exporters, tracer.capture_metrics) = self._saved


# ----------------------------------------------------------------------
# Offline records: load, summarize, render
# ----------------------------------------------------------------------

@dataclass
class SpanRecord:
    """One span as read back from a JSONL export.

    Mirrors the read-only surface of :class:`Span` (name, attributes,
    timings, metrics, children), so the analysis helpers work on live
    spans and loaded records interchangeably.
    """

    span_id: int
    trace_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float
    status: str = "ok"
    error: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def self_s(self) -> float:
        return self.duration_s - sum(child.duration_s for child in self.children)

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def walk(self) -> Iterator["SpanRecord"]:
        yield self
        for child in self.children:
            yield from child.walk()


AnySpan = Union[Span, SpanRecord]


def load_trace(path) -> List[SpanRecord]:
    """Read a JSONL span export back into root-span trees.

    Returns the root :class:`SpanRecord` objects with children attached
    (children sorted by start time), in root finish order — the
    round-trip counterpart of :class:`JSONLinesSpanExporter`.
    """
    records: List[SpanRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            records.append(SpanRecord(
                span_id=int(raw["span_id"]),
                trace_id=int(raw["trace_id"]),
                parent_id=(None if raw.get("parent_id") is None
                           else int(raw["parent_id"])),
                name=raw["name"],
                start_s=float(raw["start_s"]),
                end_s=float(raw["end_s"]),
                status=raw.get("status", "ok"),
                error=raw.get("error"),
                attributes=dict(raw.get("attributes", {})),
                metrics=dict(raw.get("metrics", {})),
            ))
    by_id = {record.span_id: record for record in records}
    roots: List[SpanRecord] = []
    for record in records:
        if record.parent_id is not None and record.parent_id in by_id:
            by_id[record.parent_id].children.append(record)
        else:
            roots.append(record)
    for record in records:
        record.children.sort(key=lambda child: child.start_s)
    return roots


def summarize_trace(roots: Iterable[AnySpan]) -> List[Dict[str, Any]]:
    """Aggregate a span forest into per-name hotspot rows.

    Each row reports ``name``, ``count``, ``cumulative_s`` (sum of span
    durations), ``self_s`` (durations minus child time — the span's own
    cost) and ``max_s``; rows come back sorted by ``self_s`` descending,
    name ascending, so the first row is the hottest code region.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for root in roots:
        for span in root.walk():
            row = totals.get(span.name)
            if row is None:
                row = totals[span.name] = {
                    "name": span.name, "count": 0,
                    "cumulative_s": 0.0, "self_s": 0.0, "max_s": 0.0,
                }
            row["count"] += 1
            row["cumulative_s"] += span.duration_s
            row["self_s"] += span.self_s
            if span.duration_s > row["max_s"]:
                row["max_s"] = span.duration_s
    return sorted(totals.values(),
                  key=lambda row: (-row["self_s"], row["name"]))


def _format_attributes(attributes: Dict[str, Any]) -> str:
    if not attributes:
        return ""
    rendered = " ".join(
        f"{key}={value}" for key, value in attributes.items()
    )
    return f"  [{rendered}]"


def render_span_tree(roots: Sequence[AnySpan],
                     max_spans: Optional[int] = None) -> str:
    """Plain-text tree of a span forest (the ``trace`` CLI's output).

    Each line shows cumulative and self milliseconds, the span name and
    its attributes; ``max_spans`` truncates large forests with a
    trailing note rather than flooding the terminal.
    """
    lines: List[str] = []
    truncated = 0

    def emit(span: AnySpan, depth: int) -> None:
        nonlocal truncated
        if max_spans is not None and len(lines) >= max_spans:
            truncated += 1
            for child in span.children:
                emit(child, depth + 1)
            return
        marker = " !" if span.status == "error" else ""
        lines.append(
            f"{span.duration_s * 1e3:9.3f}ms {span.self_s * 1e3:9.3f}ms  "
            f"{'  ' * depth}{span.name}{marker}"
            f"{_format_attributes(span.attributes)}"
        )
        for child in span.children:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    if not lines:
        return "(no spans recorded)"
    header = f"{'cumulative':>11s} {'self':>11s}  span"
    body = "\n".join([header] + lines)
    if truncated:
        body += f"\n... {truncated} span(s) not shown"
    return body


def render_summary(rows: Sequence[Dict[str, Any]],
                   top: Optional[int] = None) -> str:
    """Plain-text hotspot table from :func:`summarize_trace` rows."""
    if not rows:
        return "(no spans recorded)"
    if top is not None:
        rows = rows[:top]
    width = max(len(row["name"]) for row in rows)
    lines = [f"{'span':{width}s} {'count':>7s} {'self ms':>10s} "
             f"{'cum ms':>10s} {'max ms':>10s}"]
    for row in rows:
        lines.append(
            f"{row['name']:{width}s} {row['count']:7d} "
            f"{row['self_s'] * 1e3:10.3f} {row['cumulative_s'] * 1e3:10.3f} "
            f"{row['max_s'] * 1e3:10.3f}"
        )
    return "\n".join(lines)
