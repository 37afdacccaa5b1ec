"""Metrics registry: counters, histograms, scoped deltas."""

import pytest

from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_metrics,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_increment_and_reset(self, registry):
        counter = registry.counter("a.b")
        counter.increment()
        counter.increment(5)
        counter.inc()
        assert counter.value == 7
        counter.reset()
        assert counter.value == 0

    def test_same_name_same_object(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_distinct_names_distinct_objects(self, registry):
        assert registry.counter("x") is not registry.counter("y")


class TestHistogram:
    def test_observations(self, registry):
        histogram = registry.histogram("h")
        for value in (1, 2, 4, 100):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.minimum == 1
        assert histogram.maximum == 100
        assert histogram.mean == pytest.approx(26.75)

    def test_open_ended_bucket(self):
        histogram = Histogram("h")
        histogram.observe(10 ** 9)
        assert histogram.buckets[-1] == 1

    def test_reset(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(3)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.minimum is None

    def test_quantiles_from_buckets(self, registry):
        histogram = registry.histogram("h")
        for value in range(1, 101):  # 1..100, power-of-two buckets
            histogram.observe(value)
        # bucket upper bounds are coarse; the estimate must bracket the
        # true quantile and stay clamped to the observed range
        assert histogram.quantile(0.0) == 1
        assert 50 <= histogram.p50 <= 64
        assert 95 <= histogram.p95 <= 100
        assert histogram.p99 == 100
        assert histogram.quantile(1.0) == 100

    def test_quantile_of_single_observation(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(7)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == 7

    def test_quantile_of_empty_histogram_is_none(self, registry):
        histogram = registry.histogram("h")
        assert histogram.quantile(0.5) is None
        assert histogram.p50 is None
        assert histogram.p95 is None
        assert histogram.p99 is None

    def test_empty_histogram_snapshot_omits_stats(self, registry):
        registry.histogram("h")
        values = registry.snapshot()
        assert values["h.count"] == 0
        assert values["h.sum"] == 0.0
        for stat in ("mean", "min", "max", "p50", "p95", "p99"):
            assert f"h.{stat}" not in values

    def test_histogram_stats_reappear_after_observation(self, registry):
        histogram = registry.histogram("h")
        histogram.observe(0)
        values = registry.snapshot()
        # a real all-zero distribution *does* report its stats
        assert values["h.min"] == 0.0
        assert values["h.p50"] == 0.0

    def test_quantile_rejects_out_of_range(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h").quantile(1.5)

    def test_snapshot_includes_percentiles(self, registry):
        histogram = registry.histogram("h")
        for value in (1, 2, 4, 100):
            histogram.observe(value)
        values = registry.snapshot()
        assert values["h.min"] == 1
        assert values["h.max"] == 100
        assert values["h.p50"] >= 1
        assert values["h.p95"] <= 100
        assert values["h.p99"] <= 100


class TestRegistry:
    def test_snapshot_flattens_everything(self, registry):
        registry.counter("c").increment(2)
        registry.histogram("h").observe(4)
        values = registry.snapshot()
        assert values["c"] == 2
        assert values["h.count"] == 1
        assert values["h.sum"] == 4
        assert values["h.mean"] == 4

    def test_scoped_yields_deltas_only(self, registry):
        registry.counter("before").increment(10)
        with registry.scoped() as delta:
            registry.counter("inside").increment(3)
        assert delta == {"inside": 3}

    def test_reset_zeroes_all(self, registry):
        registry.counter("c").increment()
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.snapshot()["c"] == 0
        assert registry.snapshot()["h.count"] == 0

    def test_len_counts_instruments(self, registry):
        registry.counter("c")
        registry.histogram("h")
        assert len(registry) == 2

    def test_two_thread_hammer(self, registry):
        """Registration + snapshot from concurrent threads must not race.

        Without the registry lock this reliably dies with ``RuntimeError:
        dictionary changed size during iteration`` — a writer thread
        registering fresh instruments while a reader thread snapshots.
        """
        import threading

        errors = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(2000):
                    registry.counter(f"hammer.c{i}").increment()
                    registry.histogram(f"hammer.h{i}").observe(i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    registry.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert registry.snapshot()["hammer.c1999"] == 1


class TestGlobalRegistry:
    def test_singleton(self):
        assert get_registry() is get_registry()

    def test_update_log_publishes_to_global(self):
        from repro.data.sample import sample_document
        from repro.schemes.registry import make_scheme
        from repro.updates.document import LabeledDocument

        registry = get_registry()
        before = registry.counter("updates.insertions").value
        ldoc = LabeledDocument(sample_document(), make_scheme("qed"))
        ldoc.updates.append_child(ldoc.document.root, "kid")
        assert registry.counter("updates.insertions").value == before + 1

    def test_scheme_instruments_mirror_to_global(self):
        from repro.schemes.registry import make_scheme

        registry = get_registry()
        before = registry.counter("scheme.comparisons").value
        scheme = make_scheme("qed")
        scheme.compare(("2",), ("3",))
        assert registry.counter("scheme.comparisons").value == before + 1


class TestRender:
    def test_render_empty(self):
        assert render_metrics(MetricsRegistry()) == "(no metrics recorded)"

    def test_render_and_prefix_filter(self, registry):
        registry.counter("a.one").increment(1)
        registry.counter("b.two").increment(2)
        text = render_metrics(registry)
        assert "a.one" in text and "b.two" in text
        filtered = render_metrics(registry, prefix="a.")
        assert "a.one" in filtered and "b.two" not in filtered

    def test_render_is_sorted_by_name(self, registry):
        registry.counter("zeta").increment()
        registry.counter("alpha").increment()
        registry.histogram("mid").observe(0.5)
        names = [line.split()[0] for line in render_metrics(registry).splitlines()]
        assert names == sorted(names)


class TestCrossTypeCollision:
    """One name, one instrument type: re-registration must not shadow."""

    def test_counter_then_histogram_raises(self, registry):
        from repro.errors import MetricsError

        registry.counter("x")
        with pytest.raises(MetricsError, match="already registered as a counter"):
            registry.histogram("x")

    def test_histogram_then_counter_raises(self, registry):
        from repro.errors import MetricsError

        registry.histogram("x")
        with pytest.raises(MetricsError,
                           match="already registered as a histogram"):
            registry.counter("x")

    def test_same_type_reaccess_is_fine(self, registry):
        assert registry.histogram("x") is registry.histogram("x")

    def test_snapshot_keys_are_sorted(self, registry):
        registry.counter("z").increment()
        registry.counter("a").increment()
        registry.histogram("m").observe(1)
        keys = list(registry.snapshot())
        assert keys == sorted(keys)
