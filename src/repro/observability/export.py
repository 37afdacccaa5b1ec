"""Continuous exporters: OpenMetrics text, interval sampling, HTTP.

Three ways out of the process for the registry and the health document:

* :func:`render_openmetrics` — the registry as OpenMetrics/Prometheus
  exposition text.  Dotted registry names map to underscore metric
  names (``updates.insertions`` → ``updates_insertions_total``);
  counters become ``counter`` families with a ``_total`` sample, and
  histograms become ``summary`` families with ``_count``/``_sum`` and
  (once observed) ``quantile``-labelled samples from the power-of-two
  bucket estimates.  The text ends with the
  ``# EOF`` terminator the OpenMetrics spec requires.
* :class:`IntervalSampler` — a daemon thread appending one JSON line
  ``{"ts": ..., "metrics": {...}}`` per interval to a file: the
  poor-engineer's time-series database, good enough to plot journal
  growth or relabel storms over a long soak run.  ``sample_once()`` is
  public so the CLI's ``--watch`` mode reuses the same sampling.
* :func:`serve_metrics` / :func:`start_metrics_server` — a stdlib
  ``http.server`` endpoint exposing ``GET /metrics`` (OpenMetrics) and
  ``GET /health`` (the JSON health document), the project's first
  network surface.  ``port=0`` binds an ephemeral port (CI and tests
  read it back from the returned server).

No third-party client library: everything renders from the snapshot
dict, and the server is ``ThreadingHTTPServer`` — which is why
:class:`~repro.observability.metrics.MetricsRegistry` had to grow its
lock.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Dict, Optional, Tuple

from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.ops import OpLog, get_oplog

__all__ = [
    "OPENMETRICS_CONTENT_TYPE",
    "openmetrics_name",
    "render_openmetrics",
    "IntervalSampler",
    "MetricsHTTPServer",
    "start_metrics_server",
    "serve_metrics",
]

#: Content type the OpenMetrics spec mandates for exposition text.
OPENMETRICS_CONTENT_TYPE = ("application/openmetrics-text; "
                            "version=1.0.0; charset=utf-8")

#: Histogram quantiles exposed as summary samples.
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def openmetrics_name(name: str) -> str:
    """Map a dotted registry name to an OpenMetrics metric name.

    Dots (and any other character outside ``[a-zA-Z0-9_]``) become
    underscores: ``axes.accelerator.builds`` →
    ``axes_accelerator_builds``.  Registry names are dotted lowercase
    by the REP006 lint rule, so the mapping is collision-free in
    practice.
    """
    mapped = "".join(ch if ch.isalnum() or ch == "_" else "_"
                     for ch in name)
    if not mapped or mapped[0].isdigit():
        mapped = "_" + mapped
    return mapped


def render_openmetrics(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry as OpenMetrics exposition text (``GET /metrics``)."""
    if registry is None:
        registry = get_registry()
    lines = []
    with registry._lock:
        counters = [(name, counter.value)
                    for name, counter in sorted(registry._counters.items())]
        histograms = [
            (name, histogram.count, histogram.total,
             {label: histogram.quantile(float(label))
              for label, _ in _QUANTILES} if histogram.count else {})
            for name, histogram in sorted(registry._histograms.items())
        ]
    for name, value in counters:
        metric = openmetrics_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")
    for name, count, total, quantiles in histograms:
        metric = openmetrics_name(name)
        lines.append(f"# TYPE {metric} summary")
        for label, value in quantiles.items():
            lines.append(f"{metric}{{quantile=\"{label}\"}} "
                         f"{_format_value(value)}")
        lines.append(f"{metric}_count {count}")
        lines.append(f"{metric}_sum {_format_value(total)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _format_value(value: Any) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class IntervalSampler:
    """Background thread appending one metrics snapshot per interval.

    Each line is ``{"ts": <epoch>, "elapsed_s": <since start>,
    "metrics": {...}}`` — JSON-lines, so a soak run's file tails and
    greps like any log.  The thread is a daemon: an exiting process
    never hangs on its sampler.  ``sample_once()`` is the synchronous
    core the CLI ``--watch`` mode calls directly.
    """

    def __init__(self, path: Optional[str] = None, interval_s: float = 5.0,
                 registry: Optional[MetricsRegistry] = None):
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.path = path
        self.interval_s = interval_s
        self._registry = registry if registry is not None else get_registry()
        self._file: Optional[IO[str]] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_ts = 0.0
        self.samples_written = 0

    def sample_once(self) -> Dict[str, Any]:
        """Take one snapshot; append it to the file when a path is set.

        The file opens lazily on the first sample, so the synchronous
        one-shot use (``repro metrics --watch``) writes without
        :meth:`start`; call :meth:`stop` to close it.
        """
        now = time.time()
        sample = {
            "ts": now,
            "elapsed_s": (now - self._started_ts) if self._started_ts else 0.0,
            "metrics": self._registry.snapshot(),
        }
        if self.path is not None:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(json.dumps(sample, separators=(",", ":"))
                             + "\n")
            self._file.flush()
            self.samples_written += 1
        return sample

    def start(self) -> "IntervalSampler":
        """Open the output file and start the daemon thread."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        if self.path is not None and self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
        self._started_ts = time.time()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-metrics-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def stop(self) -> None:
        """Stop the thread, take a final sample, close the file.

        Idempotent, and the sampler is reusable afterwards: a later
        :meth:`start` (or bare :meth:`sample_once`) reopens the file in
        append mode, so earlier samples are never clobbered.  If the
        thread refuses to die within the join timeout the sampler is
        left running — closing the file underneath a live thread would
        make its next sample race a dead handle — and a
        :class:`RuntimeError` surfaces the hang instead.
        """
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join(timeout=self.interval_s + 5)
            if thread.is_alive():  # pragma: no cover - defensive
                raise RuntimeError(
                    "metrics sampler thread did not stop within "
                    f"{self.interval_s + 5:.1f}s; file left open"
                )
            self._thread = None
            self.sample_once()
        if self._file is not None:
            self._file.close()
            self._file = None
        self._started_ts = 0.0

    def __enter__(self) -> "IntervalSampler":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()


class _MetricsRequestHandler(BaseHTTPRequestHandler):
    """``GET /metrics`` and ``GET /health`` over the process telemetry."""

    server: "MetricsHTTPServer"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_openmetrics(self.server.registry).encode("utf-8")
            self._reply(200, OPENMETRICS_CONTENT_TYPE, body)
        elif path == "/health":
            from repro.observability.health import run_health

            report = run_health(registry=self.server.registry,
                                oplog=self.server.oplog)
            body = (json.dumps(report.to_payload(), indent=2, sort_keys=True)
                    + "\n").encode("utf-8")
            self._reply(200 if report.status != "critical" else 503,
                        "application/json; charset=utf-8", body)
        else:
            self._reply(404, "text/plain; charset=utf-8",
                        b"not found; try /metrics or /health\n")

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # scrapes are periodic; stderr chatter helps nobody


class MetricsHTTPServer(ThreadingHTTPServer):
    """The serving socket plus the telemetry it exposes."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 registry: Optional[MetricsRegistry] = None,
                 oplog: Optional[OpLog] = None):
        super().__init__(address, _MetricsRequestHandler)
        self.registry = registry if registry is not None else get_registry()
        self.oplog = oplog if oplog is not None else get_oplog()

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self.server_address[1]


def start_metrics_server(host: str = "127.0.0.1", port: int = 0,
                         registry: Optional[MetricsRegistry] = None,
                         oplog: Optional[OpLog] = None,
                         ) -> Tuple[MetricsHTTPServer, threading.Thread]:
    """Bind and serve in a background daemon thread; returns both.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.port``.  Call ``server.shutdown()`` then
    ``server.server_close()`` to stop.
    """
    server = MetricsHTTPServer((host, port), registry=registry, oplog=oplog)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-metrics", daemon=True)
    thread.start()
    return server, thread


def serve_metrics(host: str = "127.0.0.1", port: int = 9464,
                  registry: Optional[MetricsRegistry] = None,
                  oplog: Optional[OpLog] = None) -> MetricsHTTPServer:
    """Serve ``/metrics`` + ``/health`` in the calling thread (blocking).

    The CLI's ``repro serve-metrics`` runs this; Ctrl-C returns cleanly.
    """
    server = MetricsHTTPServer((host, port), registry=registry, oplog=oplog)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
    return server
