"""A lightweight in-process metrics registry: counters and histograms.

The evaluation framework already counts divisions, recursions and
comparisons inside each scheme (:mod:`repro.analysis.instrumentation`);
this module generalises that idea into one process-wide registry that any
layer can publish into — the update log, the batch engine, the structural
joins, the repository.  The design goals are the
ones a hot path dictates:

* recording must be cheap — a counter increment is one attribute add on a
  long-lived object callers cache themselves;
* reading must be consistent — :meth:`MetricsRegistry.snapshot` returns a
  plain dict that renders, diffs and serialises without touching the live
  objects again;
* scoping must be easy — :meth:`MetricsRegistry.scoped` diffs two
  snapshots so a benchmark can report exactly what one phase cost.

Durations are not a separate instrument: every instrumented operation
is one :func:`~repro.observability.ops.instrument` event, and the
op-log publishes its duration as the ``ops.<kind>.ms`` histogram.

Thread-safety: the registry itself is thread-safe — a single
:class:`threading.RLock` serialises instrument creation,
:meth:`MetricsRegistry.snapshot`, :meth:`MetricsRegistry.scoped` and
:meth:`MetricsRegistry.reset`, so a background exporter thread (the
interval sampler, ``repro serve-metrics``) can snapshot while hot paths
keep publishing.  Individual instrument *updates* stay lock-free
single-attribute writes: under CPython's GIL an ``int``/``float``
attribute update never tears, and for telemetry a lock per counter
increment would cost more than the instrumented work it measures.  The
race that matters — a registry dict resizing mid-iteration while another
thread registers a new instrument — is the one the lock removes.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MetricsError


class Counter:
    """A monotonically increasing count (events, nodes, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    inc = increment  # short alias for hot call sites

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Distribution summary of observed values (label sizes, batch sizes).

    Keeps count/sum/min/max plus a fixed set of power-of-two bucket
    upper bounds — enough for the skewed-growth analyses without storing
    every observation.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    #: Upper bounds of the power-of-two buckets (the last is open-ended).
    BOUNDS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                               1024, 4096, 16384, 65536)

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets: List[int] = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.BOUNDS):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile of the observations.

        Returns ``None`` when the histogram is empty — an empty
        distribution has no quantiles, and reporting ``0.0`` made it
        indistinguishable from a real all-zero distribution.

        The estimate is the upper bound of the power-of-two bucket
        holding the ``q``-th observation, clamped to the observed
        minimum and maximum — exact at the extremes, within one bucket
        width in between.  That is all the snapshot's p50/p95/p99, the
        OpenMetrics summaries and ``repro top`` need from a fixed-memory
        summary.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, observed in enumerate(self.buckets):
            cumulative += observed
            if cumulative >= target:
                if index >= len(self.BOUNDS):  # open-ended tail bucket
                    return float(self.maximum)
                bound = float(self.BOUNDS[index])
                return min(max(bound, float(self.minimum)),
                           float(self.maximum))
        return float(self.maximum)  # pragma: no cover - counts always sum

    @property
    def p50(self) -> Optional[float]:
        """Estimated median observation (``None`` when empty)."""
        return self.quantile(0.50)

    @property
    def p95(self) -> Optional[float]:
        """Estimated 95th-percentile observation (``None`` when empty)."""
        return self.quantile(0.95)

    @property
    def p99(self) -> Optional[float]:
        """Estimated 99th-percentile observation (``None`` when empty)."""
        return self.quantile(0.99)

    def reset(self) -> None:
        """Forget every observation."""
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        self.buckets = [0] * (len(self.BOUNDS) + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


class MetricsRegistry:
    """Named counters and histograms under one roof.

    Instruments are created on first access and live for the registry's
    lifetime, so hot paths fetch them once and increment a cached
    reference.  Names are dotted paths by convention
    (``"updates.insertions"``, ``"store.joins.semi"``).
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.RLock()

    # -- instrument access ------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    self._check_free(name, "counter")
                    counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    self._check_free(name, "histogram")
                    histogram = self._histograms[name] = Histogram(name)
        return histogram

    def _check_free(self, name: str, wanted: str) -> None:
        """Refuse to register one name as two instrument types."""
        for kind, instruments in (("counter", self._counters),
                                  ("histogram", self._histograms)):
            if name in instruments:
                raise MetricsError(
                    f"metric {name!r} is already registered as a {kind}; "
                    f"cannot re-register it as a {wanted}"
                )

    # -- reading ----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """A flat name -> value dict of every instrument.

        Counters contribute their value, histograms their count, sum,
        mean, min/max and estimated p50/p95/p99 — a usable distribution
        summary, not just the moments.  An *empty* histogram contributes
        only its ``.count`` and ``.sum`` keys: there is no distribution
        to summarise, and emitting ``0.0`` stats made "never observed"
        indistinguishable from "observed all zeros".  Keys come back
        sorted by name, so the snapshot serialises and diffs identically
        no matter when each instrument was first registered during the
        run.
        """
        values: Dict[str, float] = {}
        with self._lock:
            for name, counter in self._counters.items():
                values[name] = counter.value
            for name, histogram in self._histograms.items():
                values[name + ".count"] = histogram.count
                values[name + ".sum"] = histogram.total
                if histogram.count:
                    values[name + ".mean"] = histogram.mean
                    values[name + ".min"] = histogram.minimum
                    values[name + ".max"] = histogram.maximum
                    values[name + ".p50"] = histogram.p50
                    values[name + ".p95"] = histogram.p95
                    values[name + ".p99"] = histogram.p99
        return dict(sorted(values.items()))

    @contextmanager
    def scoped(self) -> Iterator[Dict[str, float]]:
        """Context manager yielding the metric *deltas* of its body::

            with registry.scoped() as delta:
                run_workload()
            print(delta["scheme.comparisons"])

        The yielded dict is filled in when the block exits.
        """
        before = self.snapshot()
        delta: Dict[str, float] = {}
        try:
            yield delta
        finally:
            after = self.snapshot()
            for name, value in after.items():
                change = value - before.get(name, 0)
                if change:
                    delta[name] = change

    def reset(self) -> None:
        """Zero every instrument (benchmarks call this between phases)."""
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for histogram in self._histograms.values():
                histogram.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)


#: The process-wide registry every built-in instrumented path publishes to.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` singleton."""
    return _GLOBAL_REGISTRY


def render_metrics(registry: Optional[MetricsRegistry] = None,
                   prefix: str = "") -> str:
    """Plain-text table of a registry's instruments (the CLI's output).

    ``prefix`` restricts the listing to names starting with it.
    """
    if registry is None:
        registry = _GLOBAL_REGISTRY
    values = registry.snapshot()
    names = sorted(name for name in values if name.startswith(prefix))
    if not names:
        return "(no metrics recorded)"
    width = max(len(name) for name in names)
    lines = []
    for name in names:
        value = values[name]
        rendered = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(
            value, float
        ) else str(value)
        lines.append(f"{name:{width}s}  {rendered}")
    return "\n".join(lines)
