"""Self-time arithmetic and the span recorder."""

import itertools

import pytest

from spans import HOOK, SpanRecorder, covered_length, self_times


def test_covered_length_merges_overlaps_and_skips_empty_intervals():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered_length([(4, 4), (3, 1)]) == 0.0
    assert covered_length([(0, 10), (2, 3), (4, 5)]) == 10.0


def test_self_time_subtracts_direct_children_only():
    #   0: root    0..10
    #   1:   child 1..4
    #   2:     grandchild 2..3
    #   3:   child 6..8
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 4.0, 3.0, 8.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [5.0, 2.0, 1.0, 2.0]


def test_overlapping_children_are_counted_once():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 5.0, 6.0]
    assert self_times(starts, ends, [-1, 0, 0])[0] == 5.0


def test_children_are_clipped_to_their_parent():
    starts = [0.0, 8.0]
    ends = [10.0, 12.0]
    assert self_times(starts, ends, [-1, 0]) == [8.0, 4.0]


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_wrapped_calls_nest_and_self_times_add_up_to_root_time():
    recorder = SpanRecorder(clock=_fake_clock())
    inner = recorder.wrap("layer.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = recorder.wrap("layer.outer", outer_body)
    outer()
    outer()
    totals = recorder.totals()
    assert totals["layer.outer"][0] == 2
    assert totals["layer.inner"][0] == 4
    assert sum(recorder.self_times()) == pytest.approx(recorder.root_time())
    assert recorder.parent_name(1) == "layer.outer"


def test_recursive_spans_count_one_call():
    recorder = SpanRecorder(clock=_fake_clock())

    def body(depth):
        if depth:
            traced(depth - 1)

    traced = recorder.wrap("axes.xpath", body)
    traced(3)
    calls, _seconds = recorder.totals()["axes.xpath"]
    assert calls == 1
    assert len(recorder.names) == 4


def test_hooks_run_outside_the_layer_span():
    recorder = SpanRecorder(clock=_fake_clock())
    seen = []

    def after(index, args, result, state):
        seen.append((recorder.names[index], args, result, state))
        recorder.counts["rows"] += len(result)

    traced = recorder.wrap("store.get", lambda n: [0] * n,
                           before=lambda args: "state", after=after)
    assert traced(3) == [0, 0, 0]
    assert seen == [("store.get", (3,), [0, 0, 0], "state")]
    assert recorder.counts["rows"] == 3
    assert recorder.names == [HOOK, "store.get", HOOK]
    assert recorder.parents == [-1, -1, -1]


def test_spans_close_even_when_the_call_raises():
    recorder = SpanRecorder(clock=_fake_clock())

    def fail():
        raise KeyError("boom")

    traced = recorder.wrap("updates.op", fail)
    with pytest.raises(KeyError):
        traced()
    assert recorder.ends[0] > recorder.starts[0]
    # The stack is empty again: the next span is a root.
    recorder.wrap("updates.op", lambda: None)()
    assert recorder.parents[1] == -1


def test_spans_carry_the_request_identifier_and_group_by_it():
    recorder = SpanRecorder(clock=_fake_clock())
    traced = recorder.wrap("store.get", lambda: None)
    recorder.request = "0:doc"
    traced()
    recorder.request = "1:doc"
    traced()
    assert recorder.requests == ["0:doc", "1:doc"]
    grouped = recorder.self_by_request()
    assert set(grouped) == {("store.get", "0:doc"), ("store.get", "1:doc")}


def test_write_jsonl_round_trips(tmp_path):
    import json

    recorder = SpanRecorder(clock=_fake_clock())
    recorder.wrap("a.b", lambda: None)()
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(str(path))
    (line,) = path.read_text().splitlines()
    span = json.loads(line)
    assert span["name"] == "a.b" and span["parent"] == -1
    assert span["end"] > span["start"]
