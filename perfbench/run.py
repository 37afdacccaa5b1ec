"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload auction-oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere inside a checkout; it imports the program from the
checkout's ``src/`` and writes only under the checkout's
``.perfbench_work/`` (stores, removed at exit; traces, kept).

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it prints every per-layer metric, taken from a
separate run in which each layer's entry points are wrapped in spans.
The last line of standard output is always the JSON result object.
A failed output check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Set-ups before the loop of an untraced run; ``setup_s`` is the median
#: of these and of the set-ups that start each later epoch.
SETUP_REPEATS = 3
#: The loop stops at ``--seconds`` once every p90 has its samples, and
#: after this many seconds (or three times ``--seconds``) regardless.
LOOP_CAP_S = 60


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def drive(workload, stop, recorder=None):
    """Run requests until ``stop(requests, elapsed)`` says so.

    ``stop`` is asked at each epoch boundary only.  Returns
    ``(requests, operations, loop seconds)``: the loop seconds add up the
    completed requests in reference-CPU seconds (see ``measure``),
    leaving out epoch resets and calibrations.  A request that raises,
    or during which the program counts a rollback or a stale index
    refusal, is recorded as failed.
    """
    from repro.observability.metrics import get_registry

    registry = get_registry()
    watched = [registry.counter(name) for name in (
        "durability.rollbacks", "batch.rollbacks",
        "axes.accelerator.stale_errors")]
    samples = workload.samples
    count = operations = 0
    loop_s = paused = 0.0
    started = time.perf_counter()
    for request in workload.requests():
        if workload.at_boundary():
            now = time.perf_counter()
            if stop(count, now - started - paused):
                break
            if recorder is not None:
                recorder.request = "setup"
            workload.begin_epoch()
            paused += time.perf_counter() - now
        if recorder is not None:
            recorder.request = f"{count}:{workload.label(request)}"
        before = sum(counter.value for counter in watched)
        try:
            with samples.timed() as interval:
                calibrating = samples.calibrating_s
                done = workload.execute(request)
        except Exception as error:  # a failed request; the loop goes on
            workload.failures.append(
                f"request {count} ({workload.label(request)}): "
                f"{type(error).__name__}: {error}")
        else:
            operations += done
            loop_s += interval.seconds - interval.scale * (
                samples.calibrating_s - calibrating)
            if sum(counter.value for counter in watched) != before:
                workload.failures.append(
                    f"request {count} ({workload.label(request)}): "
                    f"rollback or stale-index refusal")
        count += 1
    return count, operations, loop_s


def end_to_end(workload, seconds: int) -> dict:
    """The untraced run: set-up, timed loop, checks; end-to-end metrics."""
    from measure import peak_rss_mb, summarize

    workload.set_up(SETUP_REPEATS)

    def stop(_count, elapsed):
        if elapsed >= max(LOOP_CAP_S, 3 * seconds):
            return True
        return elapsed >= seconds and not workload.samples.short(
            workload.needs)

    requests, operations, wall = drive(workload, stop)
    tail = workload.finish()
    request = summarize(workload.samples.get("request"))
    query = summarize(workload.samples.get("query"))
    values = {
        "setup_s": workload.samples.median("setup"),
        "ops_per_s": operations / wall,
        "request_ms_p50": 1e3 * request.p50,
        "request_ms_p90": 1e3 * request.p90,
        "query_ms_p50": 1e3 * query.p50,
        "query_ms_p90": 1e3 * query.p90,
        "point_query_ms_p50": 1e3 * workload.samples.median("point_query"),
        "open_s": workload.samples.median("open"),
        "store_bytes_per_xml_byte": tail["store_bytes_per_xml_byte"],
        "label_bits_per_node": tail["label_bits_per_node"],
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = workload.samples.counts()
    workload.extras["calibration_ms"] = (
        1e3 * statistics.median(workload.samples.calibrations), "ms",
        len(workload.samples.calibrations))
    counts = {"setup_s": samples["setup"],
              "request_ms_p50": request.count, "request_ms_p90": request.count,
              "query_ms_p50": query.count, "query_ms_p90": query.count,
              "point_query_ms_p50": samples["point_query"],
              "open_s": samples["open"]}
    if workload.samples.get("checkpoint"):
        workload.extras["checkpoint_ms_p50"] = (
            1e3 * workload.samples.median("checkpoint"), "ms",
            samples["checkpoint"])
    if workload.request_name:
        for suffix, value in (("p50", request.p50), ("p90", request.p90)):
            workload.extras[f"{workload.request_name}_{suffix}"] = (
                1e3 * value, "ms", request.count)
    return {"values": values, "counts": counts, "requests": requests,
            "wall": wall}


def traced(workload_class, seed: int, seconds: int, workdir: str) -> dict:
    """The traced run: an untraced half-length pass counts the requests
    and times them; a traced pass repeats exactly those requests, from
    set-up to the last check, inside layer spans.  One epoch (or round)
    runs untraced first, so that neither timed pass runs cold code."""
    from layers import LayerTracer, per_node_table
    from spans import SpanRecorder

    baseline = workload_class(seed, os.path.join(workdir, "untraced"))
    baseline.set_up()
    try:
        warm_up, _operations, _loop_s = drive(
            baseline, lambda count, _elapsed: count > 0)
        requests, _operations, untraced_wall = drive(
            baseline, lambda _count, elapsed: elapsed >= seconds / 2)
    finally:
        baseline.close()

    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    workload = workload_class(seed, os.path.join(workdir, "traced"))
    tracer.install(workload.schemes)
    try:
        started = time.perf_counter()
        recorder.request = "setup"
        workload.set_up()
        _count, _operations, traced_wall = drive(
            workload, lambda count, _elapsed: count >= requests, recorder)
        recorder.request = "finish"
        workload.finish()
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    covered = sum(recorder.self_times())
    if abs(covered - recorder.root_time()) > 1e-6 * max(1.0, wall):
        raise RuntimeError("span self times do not add up to the time "
                           "the root spans cover")
    values = tracer.metrics(wall, traced_wall / untraced_wall - 1.0)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK, "traces",
                              f"{workload.name}-seed{seed}.jsonl")
    recorder.write_jsonl(trace_path)
    documents = workload.documents()
    table = per_node_table(recorder, documents) if documents else None
    workload.failures[:0] = baseline.failures
    return {"values": values, "requests": warm_up + requests * 2,
            "wall": traced_wall,
            "counts": {}, "trace": trace_path, "table": table,
            "workload": workload}


def _print_report(name, args, outcome, declared, workload) -> None:
    units = {entry["name"]: entry["unit"] for entry in declared}
    counts = outcome["counts"]
    print(f"# {name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  requests={outcome['requests']}  "
          f"loop_s={outcome['wall']:.3f}")
    for metric, value in outcome["values"].items():
        count = counts.get(metric)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {metric:<36} {value:>14.6g} {units[metric]}{suffix}")
    for metric, (value, unit, count) in workload.extras.items():
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"  {metric:<36} {shown} {unit}  (n={count}, not gated)")
    if outcome.get("table"):
        print("# per-layer self time per labelled node per visit (us)")
        print(outcome["table"])
    if outcome.get("trace"):
        print(f"# spans written to {os.path.relpath(outcome['trace'], ROOT)}")
    for message in workload.failures[:5]:
        print(f"! failed: {message}")
    for message in workload.problems[:10]:
        print(f"! check: {message}")


def run_one(name: str, args, declaration: dict) -> bool:
    from measure import result_line, result_metrics
    from workloads import WORKLOADS

    workdir = os.path.join(WORK, f"{name}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            outcome = traced(WORKLOADS[name], args.seed, args.seconds, workdir)
            workload = outcome["workload"]
            declared = declaration["per_layer"]
        else:
            workload = WORKLOADS[name](args.seed, workdir)
            try:
                outcome = end_to_end(workload, args.seconds)
            finally:
                workload.close()
            declared = declaration["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result_metrics(declared, outcome["values"])
    _print_report(name, args, outcome, declared, workload)
    correct = not workload.problems
    print(result_line(correct, outcome["requests"], len(workload.failures),
                      metrics), flush=True)
    return correct


def main(argv=None) -> int:
    declaration = _declaration()
    names = [entry["name"] for entry in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _load_program()
    selected = names if args.workload == "all" else [args.workload]
    correct = True
    for name in selected:
        try:
            correct = run_one(name, args, declaration) and correct
        except Exception:
            traceback.print_exc()
            return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
