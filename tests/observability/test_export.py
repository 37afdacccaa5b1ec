"""The continuous exporter: OpenMetrics text, sampler, HTTP endpoint."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.observability.export import (
    OPENMETRICS_CONTENT_TYPE,
    IntervalSampler,
    openmetrics_name,
    render_openmetrics,
    start_metrics_server,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.ops import OpLog


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestOpenMetricsRendering:
    def test_name_mapping(self):
        assert openmetrics_name("updates.insertions") == "updates_insertions"
        assert openmetrics_name("ops.document.insert.ms") == \
            "ops_document_insert_ms"
        assert openmetrics_name("9lives") == "_9lives"

    def test_counter_rendered_with_type_and_total(self, registry):
        registry.counter("updates.insertions").increment(3)
        text = render_openmetrics(registry)
        assert "# TYPE updates_insertions counter" in text
        assert "updates_insertions_total 3" in text

    def test_exposition_terminates_with_eof(self, registry):
        text = render_openmetrics(registry)
        assert text.endswith("# EOF\n")

    def test_histogram_quantiles_labelled(self, registry):
        histogram = registry.histogram("scheme.dewey.label_bits")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        text = render_openmetrics(registry)
        assert ('scheme_dewey_label_bits{quantile="0.5"} 2' in text)
        assert ('scheme_dewey_label_bits{quantile="0.99"} 3' in text)
        assert "scheme_dewey_label_bits_count 3" in text

    def test_empty_histogram_omits_quantiles_keeps_count(self, registry):
        registry.histogram("scheme.dewey.label_bits")
        text = render_openmetrics(registry)
        assert "quantile" not in text
        assert "scheme_dewey_label_bits_count 0" in text

    def test_exposition_is_line_oriented_and_ascii(self, registry):
        registry.counter("updates.insertions").increment()
        text = render_openmetrics(registry)
        for line in text.splitlines():
            assert line.startswith("#") or " " in line
        text.encode("ascii")


class TestIntervalSampler:
    def test_sample_once_shape(self, registry):
        registry.counter("updates.insertions").increment(2)
        sampler = IntervalSampler(registry=registry)
        sample = sampler.sample_once()
        assert set(sample) == {"ts", "elapsed_s", "metrics"}
        assert sample["metrics"]["updates.insertions"] == 2

    def test_jsonl_file_written(self, registry, tmp_path):
        path = tmp_path / "samples.jsonl"
        registry.counter("updates.insertions").increment()
        sampler = IntervalSampler(path=str(path), registry=registry)
        sampler.sample_once()
        registry.counter("updates.insertions").increment()
        sampler.sample_once()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["metrics"]["updates.insertions"] == 1
        assert second["metrics"]["updates.insertions"] == 2

    def test_background_thread_start_stop(self, registry, tmp_path):
        path = tmp_path / "bg.jsonl"
        with IntervalSampler(path=str(path), interval_s=30.0,
                             registry=registry):
            pass
        # stop() takes a final sample even if the interval never elapsed.
        lines = path.read_text().strip().splitlines()
        assert len(lines) >= 1


class TestHTTPEndpoint:
    def test_metrics_scrape_round_trip(self, registry):
        registry.counter("updates.insertions").increment(7)
        server, thread = start_metrics_server(port=0, registry=registry)
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                body = response.read().decode("utf-8")
                content_type = response.headers["Content-Type"]
            assert content_type == OPENMETRICS_CONTENT_TYPE
            assert "updates_insertions_total 7" in body
            assert body.endswith("# EOF\n")
        finally:
            server.shutdown()
            server.server_close()

    def test_health_endpoint_serves_json_verdict(self, registry):
        oplog = OpLog(registry=registry)
        server, thread = start_metrics_server(port=0, registry=registry,
                                              oplog=oplog)
        try:
            url = f"http://127.0.0.1:{server.port}/health"
            with urllib.request.urlopen(url, timeout=5) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["status"] == "ok"
            assert payload["schema_version"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_critical_health_returns_503(self, registry):
        registry.counter("store.backend.lock_refusals").increment(20)
        oplog = OpLog(registry=registry)
        server, thread = start_metrics_server(port=0, registry=registry,
                                              oplog=oplog)
        try:
            url = f"http://127.0.0.1:{server.port}/health"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["status"] == "critical"
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_path_is_404(self, registry):
        server, thread = start_metrics_server(port=0, registry=registry)
        try:
            url = f"http://127.0.0.1:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()


class TestIntervalSamplerLifecycle:
    """Regression: stop() must close the file and leave the sampler
    reusable — a stop/start cycle appends instead of clobbering."""

    def test_stop_closes_lazily_opened_file(self, registry, tmp_path):
        path = tmp_path / "oneshot.jsonl"
        sampler = IntervalSampler(path=str(path), registry=registry)
        sampler.sample_once()  # lazy open, no thread
        assert sampler._file is not None
        sampler.stop()
        assert sampler._file is None
        assert len(path.read_text().strip().splitlines()) == 1

    def test_stop_start_cycle_appends_without_clobbering(self, registry,
                                                         tmp_path):
        path = tmp_path / "cycles.jsonl"
        registry.counter("updates.insertions").increment()
        sampler = IntervalSampler(path=str(path), interval_s=30.0,
                                  registry=registry)
        sampler.start()
        sampler.stop()  # final sample -> 1 line
        first_round = len(path.read_text().strip().splitlines())
        assert first_round >= 1
        sampler.start()
        sampler.stop()
        lines = path.read_text().strip().splitlines()
        assert len(lines) >= first_round + 1
        for line in lines:
            assert json.loads(line)["metrics"]["updates.insertions"] == 1

    def test_stop_is_idempotent(self, registry, tmp_path):
        path = tmp_path / "idem.jsonl"
        sampler = IntervalSampler(path=str(path), interval_s=30.0,
                                  registry=registry)
        sampler.start()
        sampler.stop()
        written = len(path.read_text().strip().splitlines())
        sampler.stop()  # no thread, no open file: a no-op
        assert len(path.read_text().strip().splitlines()) == written
        assert sampler._file is None

    def test_elapsed_resets_between_runs(self, registry, tmp_path):
        sampler = IntervalSampler(registry=registry)
        sampler.start()
        sampler.stop()
        assert sampler._started_ts == 0.0
        sample = sampler.sample_once()
        assert sample["elapsed_s"] == 0.0
