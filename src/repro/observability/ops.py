"""Structured operations log, and the one instrumentation event.

The metrics registry aggregates (*how much*, in total) and the tracer
attributes (*which region*, per call tree); neither answers the
operational question a live repository raises: *what happened in the
last few seconds, and did it go wrong?*  This module keeps a bounded
ring buffer of :class:`OpEvent` records — one per instrumented
operation, with its kind (``document.insert``, ``journal.append``,
``repository.xpath`` ...), the document and scheme it touched, its
duration, node counts, outcome (``ok``/``error``/``rollback``), error
type, and the trace span it correlates with when tracing is on.

Every instrumented site goes through :func:`instrument`, one scope that
produces one event for both consumers: the op-log records it, and the
tracer records a span of the same name whose ``span_id`` the op event
carries.  Design constraints:

* **Disabled instrumentation must cost nothing.**  With the op-log and
  the tracer both off, :func:`instrument` returns one shared, falsy
  no-op event — no event object, no timestamps, no allocation beyond
  the call itself.  Sites compute extra attributes only ``if event:``.
* **Bounded memory.**  The ring holds the most recent ``capacity``
  events; the oldest are evicted and only counted
  (``ops.evicted``), never resurrected.  Monotonic counters
  (``ops.recorded``, ``ops.errors``, ``ops.rollbacks``, ``ops.slow``)
  survive eviction, so rates stay truthful even when the ring wraps.
* **Slow-op capture.**  Events at or above ``slow_threshold_s`` keep
  their full attribute dict (and are flagged ``slow``); fast, healthy
  events drop their attributes — outliers carry the evidence, the
  steady state stays small.
* **Thread-safe.**  One :class:`threading.RLock` guards the ring; the
  exporter thread (``repro serve-metrics``) reads while workload
  threads record.

Per-kind duration histograms are published to the metrics registry as
``ops.<kind>.ms``, which is what feeds the per-kind p50/p95/p99 columns
of ``repro top`` and the OpenMetrics exposition.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.observability.metrics import (
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.observability.tracing import Span, Tracer, get_tracer

__all__ = [
    "OpEvent",
    "OpLog",
    "get_oplog",
    "configure_oplog",
    "instrument",
    "iso_ts",
    "oplog_enabled",
    "render_oplog",
]


def iso_ts(epoch: float) -> str:
    """Render an epoch-seconds float as ISO-8601 UTC (second precision).

    Human-facing renderers (``render_oplog``, ``repro top``) use this;
    JSON payloads keep the numeric ``ts`` for machine consumers.
    """
    from datetime import datetime, timezone

    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")

#: Outcomes an operation can report.
OUTCOMES = ("ok", "error", "rollback")


@dataclass
class OpEvent:
    """One completed operation, as kept in the ring.

    ``attributes`` is populated only for slow or non-``ok`` events (see
    the module docstring); ``span_id``/``trace_id`` are set when a
    recording trace span was open around the operation.
    """

    seq: int
    ts: float
    kind: str
    duration_s: float
    outcome: str = "ok"
    document: Optional[str] = None
    scheme: Optional[str] = None
    nodes: int = 0
    error_type: Optional[str] = None
    span_id: Optional[int] = None
    trace_id: Optional[int] = None
    slow: bool = False
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (the ``repro health --json`` wire format)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "duration_s": self.duration_s,
            "outcome": self.outcome,
            "document": self.document,
            "scheme": self.scheme,
            "nodes": self.nodes,
            "error_type": self.error_type,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "slow": self.slow,
            "attributes": self.attributes,
        }


def _valid_capacity(capacity: int) -> int:
    if capacity < 1:
        raise ValueError("op-log capacity must be >= 1")
    return capacity


class OpLog:
    """Bounded, thread-safe ring of :class:`OpEvent` records.

    ``enabled`` is the switch :func:`instrument` checks (the global
    instance starts disabled, like the tracer).  ``capacity`` bounds the
    ring (assigning a smaller one evicts the oldest events);
    ``slow_threshold_s`` flags outliers and preserves their attributes.
    """

    DEFAULT_CAPACITY = 4096
    DEFAULT_SLOW_THRESHOLD_S = 0.100

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
                 enabled: bool = False,
                 registry: Optional[MetricsRegistry] = None):
        self.enabled = enabled
        self.slow_threshold_s = slow_threshold_s
        self._registry = registry if registry is not None else get_registry()
        self._events: Deque[OpEvent] = deque(maxlen=_valid_capacity(capacity))
        self._lock = threading.RLock()
        self._seq = 0
        self._kind_histograms: Dict[str, Histogram] = {}
        self._recorded = self._registry.counter("ops.recorded")
        self._evicted = self._registry.counter("ops.evicted")
        self._errors = self._registry.counter("ops.errors")
        self._rollbacks = self._registry.counter("ops.rollbacks")
        self._slow = self._registry.counter("ops.slow")

    @property
    def capacity(self) -> int:
        return self._events.maxlen

    @capacity.setter
    def capacity(self, capacity: int) -> None:
        capacity = _valid_capacity(capacity)
        with self._lock:
            evicted = len(self._events) - capacity
            if evicted > 0:
                self._evicted.increment(evicted)
            self._events = deque(self._events, maxlen=capacity)

    # -- recording --------------------------------------------------------

    def record(self, kind: str, duration_s: float = 0.0, *,
               document: Optional[str] = None,
               scheme: Optional[str] = None,
               nodes: int = 0,
               outcome: str = "ok",
               error_type: Optional[str] = None,
               span: Any = None,
               attributes: Optional[Dict[str, Any]] = None,
               ) -> Optional[OpEvent]:
        """Append one completed operation to the ring.

        Returns the recorded event, or ``None`` when the log is
        disabled.  Attributes are kept only when the event is slow or
        its outcome is not ``ok``.
        """
        if not self.enabled:
            return None
        if outcome not in OUTCOMES:
            raise ValueError(
                f"op outcome must be one of {OUTCOMES}, got {outcome!r}")
        slow = duration_s >= self.slow_threshold_s
        keep_attributes = attributes if (slow or outcome != "ok") else None
        with self._lock:
            self._seq += 1
            event = OpEvent(
                seq=self._seq, ts=time.time(), kind=kind,
                duration_s=duration_s, outcome=outcome,
                document=document, scheme=scheme, nodes=nodes,
                error_type=error_type,
                span_id=getattr(span, "span_id", None),
                trace_id=getattr(span, "trace_id", None),
                slow=slow,
                attributes=dict(keep_attributes or {}),
            )
            if len(self._events) == self._events.maxlen:
                self._evicted.increment()
            self._events.append(event)
            histogram = self._kind_histograms.get(kind)
            if histogram is None:
                histogram = self._registry.histogram(f"ops.{kind}.ms")
                self._kind_histograms[kind] = histogram
        self._recorded.increment()
        histogram.observe(duration_s * 1e3)
        if outcome == "error":
            self._errors.increment()
        elif outcome == "rollback":
            self._rollbacks.increment()
        if slow:
            self._slow.increment()
        return event

    # -- reading ----------------------------------------------------------

    def events(self, kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[OpEvent]:
        """Buffered events, oldest first; optionally filtered/limited
        (``limit`` keeps the most recent ones)."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [event for event in events if event.kind == kind]
        if limit is not None and len(events) > limit:
            events = events[-limit:]
        return events

    def kinds(self) -> List[str]:
        """Distinct op kinds currently in the ring, sorted."""
        with self._lock:
            return sorted({event.kind for event in self._events})

    def rates(self, window_s: float = 10.0,
              now: Optional[float] = None) -> Dict[str, float]:
        """Per-kind operations/second over the trailing window.

        Computed from ring timestamps, so a wrapped ring underestimates
        only when the window outlives the buffer — the monotonic
        ``ops.recorded`` counter covers the total.
        """
        if now is None:
            now = time.time()
        cutoff = now - window_s
        counts: Dict[str, int] = {}
        with self._lock:
            for event in reversed(self._events):
                if event.ts < cutoff:
                    break
                counts[event.kind] = counts.get(event.kind, 0) + 1
        return {kind: count / window_s for kind, count in counts.items()}

    def tail(self, outcome: Optional[str] = None,
             limit: int = 10) -> List[OpEvent]:
        """The most recent events (optionally one outcome), oldest first."""
        with self._lock:
            events = list(self._events)
        if outcome is not None:
            events = [event for event in events if event.outcome == outcome]
        return events[-limit:]

    def clear(self) -> None:
        """Drop every buffered event (counters stay monotonic)."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[OpEvent]:
        return iter(self.events())

    # -- serialisation ----------------------------------------------------

    def to_payload(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """JSON-ready dump of the log's configuration and recent events."""
        return {
            "schema_version": 1,
            "enabled": self.enabled,
            "capacity": self.capacity,
            "slow_threshold_s": self.slow_threshold_s,
            "recorded_total": self._recorded.value,
            "evicted_total": self._evicted.value,
            "events": [event.to_dict() for event in self.events(limit=limit)],
        }


#: The process-wide op-log every instrumented path consults; disabled by
#: default so the hot paths stay at no-op cost.
_GLOBAL_OPLOG = OpLog(enabled=False)


def get_oplog() -> OpLog:
    """The process-wide :class:`OpLog` singleton."""
    return _GLOBAL_OPLOG


def configure_oplog(enabled: bool = True,
                    capacity: Optional[int] = None,
                    slow_threshold_s: Optional[float] = None) -> OpLog:
    """(Re)configure the global op-log in one call; returns it.

    Shrinking ``capacity`` evicts the oldest buffered events, exactly
    like recording past the cap would.
    """
    oplog = _GLOBAL_OPLOG
    if capacity is not None:
        oplog.capacity = capacity
    if slow_threshold_s is not None:
        oplog.slow_threshold_s = slow_threshold_s
    oplog.enabled = enabled
    return oplog


class _NoopEvent:
    """The shared, falsy event :func:`instrument` returns while both
    consumers are off: entering, exiting and setting it do nothing."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NoopEvent":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        pass


_NOOP_EVENT = _NoopEvent()


class _Event:
    """One live instrumentation event (see :func:`instrument`).

    ``attributes`` is the span's view: the typed fields ``document``,
    ``scheme`` and ``nodes`` sit beside the free-form ones, and are
    split out into :class:`OpEvent` fields when the op event is
    recorded.
    """

    __slots__ = ("kind", "outcome", "error_type", "attributes",
                 "_oplog", "_scope", "_span", "_started")

    def __init__(self, kind: str, attributes: Dict[str, Any],
                 oplog: OpLog, tracer: Tracer):
        self.kind = kind
        self.outcome = "ok"
        self.error_type: Optional[str] = None
        self.attributes = attributes
        self._oplog = oplog if oplog.enabled else None
        self._scope = (tracer.span(kind, **attributes) if tracer.enabled
                       else None)
        self._span: Optional[Span] = None
        self._started = 0.0

    def __enter__(self) -> "_Event":
        if self._scope is not None:
            span = self._scope.__enter__()
            if isinstance(span, Span):  # not head-sampled out
                self._span = span
        self._started = time.perf_counter()
        return self

    def set(self, nodes: Optional[int] = None,
            outcome: Optional[str] = None,
            error_type: Optional[str] = None,
            document: Optional[str] = None,
            scheme: Optional[str] = None,
            **attributes: Any) -> None:
        """Fill the op event's typed fields and the span's attributes."""
        if outcome is not None:
            self.outcome = outcome
        if error_type is not None:
            self.error_type = error_type
        typed = {name: value for name, value in (
            ("document", document), ("scheme", scheme), ("nodes", nodes),
        ) if value is not None}
        typed.update(attributes)
        self.attributes.update(typed)
        if self._span is not None:
            self._span.attributes.update(typed)

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        duration = time.perf_counter() - self._started
        if exc_type is not None:
            self.outcome = "error"
            self.error_type = exc_type.__name__
        span = self._span
        if span is not None and self.outcome == "error":
            span.status = "error"
            span.error = self.error_type
        if self._scope is not None:
            # A raised exception overwrites the error with its message.
            self._scope.__exit__(exc_type, exc_value, traceback)
        if self._oplog is not None:
            attributes = self.attributes
            document, scheme, nodes = (attributes.pop(name, None) for name
                                       in ("document", "scheme", "nodes"))
            self._oplog.record(
                self.kind, duration, document=document, scheme=scheme,
                nodes=nodes or 0, outcome=self.outcome,
                error_type=self.error_type, span=span,
                attributes=attributes,
            )
        return False


_GLOBAL_TRACER = get_tracer()


def instrument(kind: str, /, **attributes: Any) -> "_Event | _NoopEvent":
    """One instrumentation event around a block::

        with instrument("document.insert", scheme=scheme.name) as event:
            result = insert()
            if event:
                event.set(nodes=1 + result.relabeled_nodes,
                          overflow=bool(result.overflow_events))

    With the op-log on, the block becomes one :class:`OpEvent` (with
    the ``ops.<kind>.ms`` histogram); with tracing on, one span named
    ``kind``, which the op event links by ``span_id``.  ``document``,
    ``scheme`` and ``nodes`` fill the op event's typed fields; every
    attribute also lands on the span.  An exception records
    ``outcome="error"`` with its type (and an ``error`` span) and is
    re-raised.  With both consumers off this returns one shared, falsy
    no-op event.  ``kind`` is positional-only, so a site may carry an
    attribute called ``kind``.
    """
    if _GLOBAL_OPLOG.enabled or _GLOBAL_TRACER.enabled:
        return _Event(kind, attributes, _GLOBAL_OPLOG, _GLOBAL_TRACER)
    return _NOOP_EVENT


class oplog_enabled:
    """Scope the global op-log on, restoring prior state on exit::

        with oplog_enabled(slow_threshold_s=0.5) as oplog:
            run_workload()
        errors = oplog.tail(outcome="error")

    Clears the ring on entry (pass ``clear=False`` to append to an
    existing buffer); buffered events stay readable after exit so tests
    can assert on them.
    """

    def __init__(self, capacity: Optional[int] = None,
                 slow_threshold_s: Optional[float] = None,
                 clear: bool = True):
        self._capacity = capacity
        self._slow_threshold_s = slow_threshold_s
        self._clear = clear
        self._saved = None

    def __enter__(self) -> OpLog:
        oplog = _GLOBAL_OPLOG
        self._saved = (oplog.enabled, oplog.capacity, oplog.slow_threshold_s)
        if self._clear:
            oplog.clear()
        configure_oplog(enabled=True, capacity=self._capacity,
                        slow_threshold_s=self._slow_threshold_s)
        return oplog

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        oplog = _GLOBAL_OPLOG
        (oplog.enabled, oplog.capacity, oplog.slow_threshold_s) = self._saved


def render_oplog(oplog: Optional[OpLog] = None, limit: int = 20) -> str:
    """Plain-text table of the most recent op events (CLI output)."""
    if oplog is None:
        oplog = _GLOBAL_OPLOG
    events = oplog.events(limit=limit)
    if not events:
        return "(no operations recorded)"
    lines = [f"{'time (UTC)':20s} {'seq':>6s} {'kind':28s} {'ms':>9s} "
             f"{'nodes':>6s} {'outcome':8s} {'scheme':10s} detail"]
    for event in events:
        detail = event.error_type or ""
        if event.slow:
            detail = (detail + " slow").strip()
        if event.document:
            detail = (detail + f" doc={event.document}").strip()
        lines.append(
            f"{iso_ts(event.ts):20s} "
            f"{event.seq:6d} {event.kind:28s} {event.duration_s * 1e3:9.3f} "
            f"{event.nodes:6d} {event.outcome:8s} "
            f"{(event.scheme or '-'):10s} {detail}"
        )
    return "\n".join(lines)
