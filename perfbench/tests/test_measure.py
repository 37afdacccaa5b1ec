"""The percentile rule and the result format."""

import json
import math

import pytest

from measure import (
    MIN_TAIL,
    InsufficientSamples,
    Samples,
    percentile,
    result_line,
    result_metrics,
    samples_needed,
    summarize,
    validate_declarations,
)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_needed(0.9) == 100
    assert percentile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(InsufficientSamples):
        percentile(list(range(1, 100)), 0.9)


def test_percentile_leaves_min_tail_beyond_the_rank():
    for count in range(100, 400, 37):
        values = [float(v) for v in range(count)]
        p90 = percentile(values, 0.9)
        assert sum(1 for value in values if value > p90) >= MIN_TAIL


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 30
    assert percentile(values, 0.9) == percentile(sorted(values), 0.9) == 9.0


def test_summarize_reports_median_p90_and_count():
    values = [float(v) for v in range(120)]
    summary = summarize(values)
    assert summary.count == 120
    assert summary.p50 == 59.5
    assert summary.p90 == 107.0


def test_empty_series_is_insufficient():
    with pytest.raises(InsufficientSamples):
        percentile([], 0.9)
    with pytest.raises(InsufficientSamples):
        Samples().median("open")


def test_samples_short_until_every_series_is_filled():
    samples = Samples()
    needs = {"request": 2, "query": 1}
    assert samples.short(needs)
    samples.add("request", 1.0)
    samples.add("query", 1.0)
    assert samples.short(needs)
    samples.add("request", 2.0)
    assert not samples.short(needs)
    assert samples.counts() == {"request": 2, "query": 1}


DECLARED = [{"name": "latency_ms", "unit": "ms"}, {"name": "setup_s", "unit": "s"}]


@pytest.mark.parametrize("entry", [
    {"name": "", "unit": "ms"},
    {"name": "_leading", "unit": "ms"},
    {"name": "has space", "unit": "ms"},
    {"name": "x" * 65, "unit": "ms"},
    {"name": "ok", "unit": ""},
    {"name": "ok", "unit": "u" * 17},
    {"name": "ok", "unit": "m s"},
    {"name": 7, "unit": "ms"},
])
def test_invalid_declarations_are_rejected(entry):
    with pytest.raises(ValueError):
        validate_declarations([entry])


def test_valid_names_and_units_pass():
    validate_declarations([
        {"name": "store.put.rows_per_changed_node", "unit": "ratio"},
        {"name": "ops_per_s", "unit": "ops/s"},
        {"name": "9lives", "unit": "%"},
        {"name": "x" * 64, "unit": "u" * 16},
    ])


def test_duplicate_names_are_rejected():
    with pytest.raises(ValueError):
        validate_declarations(DECLARED + DECLARED[:1])


def test_result_metrics_need_exactly_the_declared_names():
    metrics = result_metrics(DECLARED, {"latency_ms": 1.5, "setup_s": 2})
    assert metrics == {"latency_ms": {"value": 1.5, "unit": "ms"},
                       "setup_s": {"value": 2, "unit": "s"}}
    with pytest.raises(ValueError):
        result_metrics(DECLARED, {"latency_ms": 1.5})
    with pytest.raises(ValueError):
        result_metrics(DECLARED, {"latency_ms": 1.5, "setup_s": 2, "x": 1})


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "1.0", None])
def test_result_metrics_reject_values_that_are_not_finite_numbers(bad):
    with pytest.raises(ValueError):
        result_metrics(DECLARED, {"latency_ms": bad, "setup_s": 1.0})


def test_result_line_is_one_json_object_with_the_contract_keys():
    line = result_line(True, 10, 1, result_metrics(
        DECLARED, {"latency_ms": 1.0, "setup_s": 0.5}))
    payload = json.loads(line)
    assert "\n" not in line
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["attempted"] == 10 and payload["failed"] == 1
    with pytest.raises(ValueError):
        result_line(True, 0, 0, {})


def test_benchmark_declaration_is_valid():
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declaration = json.load(handle)
    validate_declarations(declaration["end_to_end"]
                          + declaration["per_layer"])
    names = {entry["name"] for entry in declaration["end_to_end"]}
    assert "setup_s" in names
    assert all(0 < entry["bound"] <= 0.25
               for entry in declaration["end_to_end"])


def _fake_clock(monkeypatch, step):
    import measure

    ticks = iter(range(0, 10_000))
    monkeypatch.setattr(measure.time, "perf_counter",
                        lambda: next(ticks) * step)


def test_timed_scales_wall_time_to_the_reference_cpu(monkeypatch):
    from measure import REFERENCE_S

    samples = Samples(calibration=lambda: 2 * REFERENCE_S)
    _fake_clock(monkeypatch, 0.001)
    with samples.timed("query") as interval:
        pass
    # One tick (1 ms) of wall time on a CPU half the reference's speed.
    assert interval.seconds == pytest.approx(0.0005)
    assert samples.get("query") == [interval.seconds]
    assert samples.calibrations == [2 * REFERENCE_S]
    assert samples.calibrating_s == pytest.approx(0.001)


def test_a_failed_block_adds_no_sample():
    samples = Samples(calibration=lambda: 1.0)
    with pytest.raises(KeyError):
        with samples.timed("request"):
            raise KeyError("refused")
    assert samples.get("request") == []


def test_scale_uses_the_median_of_the_recent_calibrations():
    from measure import CALIBRATION_WINDOW, REFERENCE_S

    readings = iter([REFERENCE_S] * 3 + [10 * REFERENCE_S] * 2
                    + [10 * REFERENCE_S] * CALIBRATION_WINDOW)
    samples = Samples(calibration=lambda: next(readings))
    scales = [samples.scale() for _ in range(5)]
    assert scales[-1] == pytest.approx(1.0)
    for _ in range(CALIBRATION_WINDOW):
        last = samples.scale()
    assert last == pytest.approx(0.1)
