"""Command-line interface: the library's experiments at your fingertips.

::

    python -m repro schemes                         # list all schemes
    python -m repro label FILE --scheme qed         # label a document
    python -m repro table FILE --scheme prepost     # Figure 2-style table
    python -m repro query FILE '//book/title'       # mini XPath
    python -m repro explain FILE '//book' --analyze # query plan + actuals
    python -m repro stats FILE --scheme qed         # cardinality statistics
    python -m repro matrix [--extensions]           # regenerate Figure 7
    python -m repro figure N                        # reproduce figure N
    python -m repro growth --schemes qed,vector     # skewed growth series
    python -m repro suggest version-control compact # section 5.2 advice
    python -m repro metrics --scheme dewey --json   # metrics snapshot
    python -m repro trace --scheme ordpath --ops 200 # span tree + hotspots
    python -m repro journal inspect FILE            # list journal records
    python -m repro journal replay FILE --verify    # recover + verify
    python -m repro store ingest URL NAME FILE      # load into a backend
    python -m repro store ls URL                    # list stored documents
    python -m repro store query URL NAME title      # point query from disk
    python -m repro health --workload --json        # watchdog verdict
    python -m repro health --inject transaction.commit  # fault drill
    python -m repro serve-metrics --port 9464       # /metrics + /health
    python -m repro top --interval 1                # live ops dashboard
    python -m repro metrics --watch 5 --samples 3   # JSONL snapshots
    python -m repro profile query FILE '//item'     # flight-recorder run
    python -m repro --profile out.collapsed top --iterations 3  # any command
    python -m repro lint [--json]                   # static checks (CI gate)
    python -m repro update run FILE PROG.ulang      # declarative updates
    python -m repro update check FILE PROG --query '//price'  # analyze only
    python -m repro update explain FILE PROG        # predicted vs actual

Every command prints plain text and exits non-zero on failure, so the
tool scripts cleanly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def _cmd_schemes(args: argparse.Namespace) -> int:
    from repro.schemes.registry import available_schemes, make_scheme

    print(f"{'name':18s} {'family':12s} {'order':7s} {'encoding':9s} "
          f"{'reference':24s} notes")
    for name in available_schemes():
        meta = make_scheme(name).metadata
        flag = " *" if meta.extension else ""
        print(f"{name + flag:18s} {meta.family.value:12s} "
              f"{str(meta.document_order):7s} "
              f"{str(meta.encoding_representation):9s} "
              f"{meta.reference:24s} {meta.notes}")
    print("\n* extension scheme (no Figure 7 row)")
    return 0


def _load(args: argparse.Namespace):
    from repro.schemes.registry import make_scheme
    from repro.updates.document import LabeledDocument
    from repro.xmlmodel.parser import parse

    with open(args.file, encoding="utf-8") as handle:
        document = parse(handle.read())
    return LabeledDocument(document, make_scheme(args.scheme))


def _cmd_label(args: argparse.Namespace) -> int:
    ldoc = _load(args)
    width = max(
        len(ldoc.format_label(node))
        for node in ldoc.document.labeled_nodes()
    )
    for node in ldoc.document.labeled_nodes():
        indent = "  " * node.depth()
        kind = "@" if node.is_attribute else "<>"
        print(f"{ldoc.format_label(node):{width}s}  {indent}{kind}{node.name}")
    bits = ldoc.total_label_bits()
    print(f"\n{len(ldoc.labels)} labels, {bits} bits "
          f"({bits / max(len(ldoc.labels), 1):.1f} bits/label)")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.encoding.table import EncodingTable

    ldoc = _load(args)
    print(EncodingTable.from_labeled_document(ldoc).render())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.axes.xpath import xpath
    from repro.xmlmodel.serializer import serialize_node

    ldoc = _load(args)
    result = xpath(ldoc, args.path)
    for node in result:
        if node.is_attribute:
            print(f"{ldoc.format_label(node)}  @{node.name}={node.value!r}")
        else:
            print(f"{ldoc.format_label(node)}  {serialize_node(node)}")
    print(f"-- {len(result)} node(s)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN a mini-XPath query: per-step strategy and cardinality."""
    from repro.observability.explain import explain_query
    from repro.observability.jsonio import emit_json
    from repro.observability.stats import StatsCollector

    ldoc = _load(args)
    plan = explain_query(ldoc, args.path,
                         stats=StatsCollector.collect(ldoc),
                         analyze=args.analyze)
    if args.json:
        emit_json(plan.to_payload())
    else:
        print(plan.render())
    return 0


def _read_program(source: str) -> str:
    """A program operand: a ``.ulang`` file path or literal source."""
    import os

    if os.path.exists(source):
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    return source


def _cmd_update(args: argparse.Namespace) -> int:
    """Run, check or EXPLAIN a declarative update program."""
    from repro.observability.jsonio import emit_json
    from repro.observability.stats import StatsCollector
    from repro.ulang import check_program, parse_program, run_program
    from repro.ulang.analysis import RULES

    if getattr(args, "list_rules", False):
        for rule_id, (name, severity, description) in sorted(RULES.items()):
            print(f"{rule_id}  {severity:7s}  {name}: {description}")
        return 0
    if not args.file or not args.program:
        print("error: update needs an XML file and a program",
              file=sys.stderr)
        return 2
    source = _read_program(args.program)
    ldoc = _load(args)
    queries = list(args.query or [])

    if args.action == "run":
        result = run_program(ldoc, source)
        print(f"applied {result.operations} operation(s): "
              f"{result.labels_assigned} label(s) assigned "
              f"({result.deferred_labels} deferred), "
              f"{result.deletions} deletion(s), "
              f"{result.content_updates} content update(s), "
              f"{result.relabel_passes} relabel pass(es)")
        if args.out:
            from repro.xmlmodel.serializer import serialize

            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(serialize(ldoc.document))
            print(f"wrote {args.out}")
        return 0

    from pathlib import Path

    program = parse_program(source, path=args.program)
    baseline = Path(args.baseline) if getattr(args, "baseline", None) else None
    report = check_program(
        program, queries=queries,
        stats=StatsCollector.collect(ldoc),
        scheme_name=ldoc.scheme.metadata.name,
        baseline_path=baseline,
    )

    if args.action == "check":
        if args.json:
            emit_json(report.to_payload())
        else:
            print(report.render())
        return report.exit_code

    # explain: pair the static prediction with the executed actuals.
    result, plan = run_program(ldoc, program, collect_plan=True)
    if args.json:
        payload = report.to_payload()
        payload["plan"] = plan.to_payload()
        emit_json(payload)
    else:
        print(report.render())
        print()
        print(plan.render())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Collect and print one document's cardinality statistics."""
    from repro.observability.jsonio import emit_json
    from repro.observability.stats import StatsCollector, render_stats

    ldoc = _load(args)
    stats = StatsCollector.collect(ldoc)
    if args.json:
        emit_json(stats.to_payload())
    else:
        print(render_stats(stats))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run another repro command under the sampling flight recorder."""
    import time

    from repro.observability.profiler import (
        DEFAULT_HERTZ,
        SamplingProfiler,
        render_top,
        write_collapsed,
    )

    command = list(args.profile_command)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("error: profile needs a command to run, e.g. "
              "`repro profile query FILE '//item'`", file=sys.stderr)
        return 2
    if command[0] == "profile":
        print("error: refusing to profile the profiler", file=sys.stderr)
        return 2
    hertz = args.hertz if args.hertz else DEFAULT_HERTZ
    profiler = SamplingProfiler(hertz=hertz)
    started = time.perf_counter()
    with profiler:
        code = main(command)
    elapsed = time.perf_counter() - started
    counts = profiler.collapsed()
    out = args.out or "profile.collapsed"
    stacks = write_collapsed(counts, out)
    print(f"\n-- profile: {profiler.samples} samples at {hertz:g} Hz "
          f"over {elapsed:.2f} s; {stacks} stack(s) -> {out}")
    print(render_top(counts, limit=args.top,
                     total_samples=profiler.samples))
    return code


def _run_profiled(args: argparse.Namespace) -> int:
    """Dispatch one handler under ``--profile FILE`` (flight recorder)."""
    from repro.observability.profiler import (
        DEFAULT_HERTZ,
        SamplingProfiler,
        write_collapsed,
    )

    hertz = args.profile_hertz if args.profile_hertz else DEFAULT_HERTZ
    profiler = SamplingProfiler(hertz=hertz)
    with profiler:
        code = _HANDLERS[args.command](args)
    stacks = write_collapsed(profiler.collapsed(), args.profile_out)
    print(f"-- profile: {profiler.samples} samples at {hertz:g} Hz; "
          f"{stacks} stack(s) -> {args.profile_out}", file=sys.stderr)
    return code


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.core.matrix import EvaluationMatrix
    from repro.core.report import most_generic_scheme, reproduction_report

    matrix = EvaluationMatrix.generate(include_extensions=args.extensions)
    print(reproduction_report(matrix))
    print()
    print("most generic scheme (section 5.2):", most_generic_scheme(matrix))
    return 0 if matrix.matches_paper() else 1


def _run_all_module():
    """``benchmarks/run_all.py``: the reproduction's sections, in order.

    The ``bench_*`` scripts behind ``figure`` and ``report`` live in the
    source checkout beside ``src/``, not in the package; importing
    ``run_all`` puts that directory on ``sys.path`` for them too.
    Returns ``None``, after saying why, when the checkout is absent.
    """
    import importlib
    import os

    benchmarks_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "benchmarks",
    )
    if not os.path.isfile(os.path.join(benchmarks_dir, "run_all.py")):
        print("the benchmarks/ directory is not available in this install",
              file=sys.stderr)
        return None
    if benchmarks_dir not in sys.path:
        sys.path.insert(0, benchmarks_dir)
    return importlib.import_module("run_all")


def _cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    run_all = _run_all_module()
    if run_all is None:
        return 1
    prefix = f"bench_figure{args.number}_"
    (module_name,) = [name for kind, name in run_all.SECTIONS
                      if kind == "figure" and name.startswith(prefix)]
    # explicit empty argv: main(None) would parse this process's sys.argv
    importlib.import_module(module_name).main([])
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every figure/claim report in one run."""
    run_all = _run_all_module()
    if run_all is None:
        return 1
    return run_all.main(args.kinds)


def _cmd_growth(args: argparse.Namespace) -> int:
    from repro.analysis.growth import (
        growth_table,
        linearity_ratio,
        render_growth_table,
    )

    names = [name.strip() for name in args.schemes.split(",") if name.strip()]
    table = growth_table(names, args.inserts, step=args.step)
    print(render_growth_table(table))
    print()
    for name, series in table.items():
        print(f"  {name:16s} bits/insert = {linearity_ratio(series):.3f}")
    return 0


def _workload_document(args: argparse.Namespace):
    from repro.xmlmodel.parser import parse

    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as handle:
            return parse(handle.read())
    return parse(
        "<library><shelf><book/><book/></shelf><shelf><book/></shelf>"
        "</library>"
    )


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run an update workload and dump the observability registry."""
    import random

    from repro.observability.jsonio import emit_json
    from repro.observability.metrics import get_registry, render_metrics
    from repro.schemes.registry import make_scheme
    from repro.updates.document import LabeledDocument

    document = _workload_document(args)
    registry = get_registry()
    registry.reset()
    ldoc = LabeledDocument(document, make_scheme(args.scheme))
    rng = random.Random(args.seed)
    targets = [
        node for node in document.all_nodes()
        if node.is_element and node.parent is not None
    ]
    if args.batch:
        with ldoc.batch() as batch:
            for index in range(args.ops):
                batch.insert_after(rng.choice(targets), f"n{index}")
        ldoc.verify_order()
        result = ldoc.last_batch_result
        summary = (f"batch: {result.operations} ops, "
                   f"{result.relabel_passes} relabel pass(es), "
                   f"{result.relabels_avoided} relabels avoided")
    else:
        for index in range(args.ops):
            ldoc.updates.insert_after(rng.choice(targets), f"n{index}")
        ldoc.verify_order()
        summary = (f"per-op: {args.ops} ops, "
                   f"{ldoc.log.relabel_events} relabel event(s)")
    if args.watch is not None:
        import json
        import time

        from repro.observability.export import IntervalSampler

        sampler = IntervalSampler(interval_s=args.watch, registry=registry)
        emitted = 0
        try:
            while args.samples is None or emitted < args.samples:
                if emitted:
                    time.sleep(args.watch)
                sample = sampler.sample_once()
                if args.prefix:
                    sample["metrics"] = {
                        name: value
                        for name, value in sample["metrics"].items()
                        if name.startswith(args.prefix)
                    }
                print(json.dumps(sample, sort_keys=True))
                sys.stdout.flush()
                emitted += 1
        except KeyboardInterrupt:
            pass
        return 0
    if args.json:
        values = {
            name: value for name, value in registry.snapshot().items()
            if name.startswith(args.prefix)
        }
        emit_json(values)
        return 0
    print(summary)
    print()
    print(render_metrics(registry, prefix=args.prefix))
    return 0


def _observed_workload(args: argparse.Namespace) -> None:
    """A transaction stream under the op-log, with optional faults.

    Populates the global metrics registry and op-log so the health
    probes and the exporter report live evidence.  ``--inject POINT``
    arms the named fault point every ``--inject-every`` transactions;
    each firing rolls one transaction back, which is exactly the
    telemetry the rollback-rate and op-error-rate probes watch.
    """
    import random

    from repro.durability.faults import InjectedFault, get_injector
    from repro.observability.metrics import get_registry
    from repro.observability.ops import configure_oplog, get_oplog
    from repro.schemes.registry import make_scheme
    from repro.updates.document import LabeledDocument

    # The verdict should describe *this* workload, so start from zero —
    # exactly like `repro metrics` does.
    get_registry().reset()
    configure_oplog(enabled=True)
    get_oplog().clear()
    document = _workload_document(args)
    ldoc = LabeledDocument(document, make_scheme(args.scheme))
    rng = random.Random(args.seed)
    injector = get_injector()
    points = args.inject or []
    every = max(1, args.inject_every)
    try:
        for index in range(args.ops):
            if points and index % every == 0:
                for point in points:
                    injector.arm(point)
            # Committed appends add targets: re-read them each round.
            targets = [
                node for node in ldoc.document.all_nodes() if node.is_element
            ]
            try:
                with ldoc.transaction() as txn:
                    txn.append_child(rng.choice(targets), f"n{index}")
            except (InjectedFault, ReproError):
                continue
    finally:
        injector.reset()


def _cmd_health(args: argparse.Namespace) -> int:
    """Evaluate the watchdog probes; optionally run a workload first."""
    from repro.observability.health import render_health, run_health
    from repro.observability.jsonio import emit_json

    if args.workload or args.inject:
        _observed_workload(args)
    report = run_health()
    if args.json:
        emit_json(report.to_payload())
    else:
        print(render_health(report))
    return report.exit_code


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    """Expose /metrics (OpenMetrics) and /health over HTTP, blocking."""
    from repro.observability.export import serve_metrics
    from repro.observability.ops import configure_oplog

    configure_oplog(enabled=True)
    if args.workload or args.inject:
        _observed_workload(args)
    print(f"serving OpenMetrics on http://{args.host}:{args.port}/metrics "
          f"(health at /health; Ctrl-C to stop)")
    serve_metrics(host=args.host, port=args.port)
    return 0


def _render_top_frame(window_s: float) -> str:
    """One dashboard frame: op rates, per-kind latency, probe verdicts."""
    import time

    from repro.observability.health import run_health
    from repro.observability.metrics import get_registry
    from repro.observability.ops import get_oplog, iso_ts

    oplog = get_oplog()
    snapshot = get_registry().snapshot()
    rates = oplog.rates(window_s)
    recorded = snapshot.get("ops.recorded", 0)
    errors = snapshot.get("ops.errors", 0)
    slow = snapshot.get("ops.slow", 0)
    lines = [
        f"repro top — {iso_ts(time.time())} — {recorded:.0f} ops recorded, "
        f"{errors:.0f} errors, "
        f"{slow:.0f} slow, {len(oplog)} buffered",
        f"{'kind':28s} {'ops/s':>8s} {'p50 ms':>9s} {'p95 ms':>9s} "
        f"{'p99 ms':>9s} {'count':>8s}",
    ]
    kinds = sorted(
        name[len("ops."):-len(".ms.count")]
        for name in snapshot
        if name.startswith("ops.") and name.endswith(".ms.count")
    )
    for kind in kinds:
        base = f"ops.{kind}.ms"

        def _cell(stat: str) -> str:
            value = snapshot.get(f"{base}.{stat}")
            return f"{value:9.3f}" if value is not None else f"{'-':>9s}"

        lines.append(
            f"{kind:28s} {rates.get(kind, 0.0):8.1f} {_cell('p50')} "
            f"{_cell('p95')} {_cell('p99')} "
            f"{snapshot.get(f'{base}.count', 0):8.0f}"
        )
    report = run_health()
    lines.append("")
    lines.append(f"health: {report.status}")
    for result in report.results:
        if result.status != "ok":
            lines.append(f"  {result.probe}: {result.status} — "
                         f"{result.evidence}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live operations dashboard over an XMark ingest/bidding loop."""
    import threading
    import time

    from repro.observability.ops import configure_oplog
    from repro.store.repository import open_repository
    from repro.xmlmodel.xmark import bidding_stream, xmark_document

    configure_oplog(enabled=True)
    stop = threading.Event()

    def worker() -> None:
        with open_repository("memory://") as repository:
            round_no = 0
            while not stop.is_set():
                name = f"auctions-{round_no}"
                stored = repository.add(
                    name, xmark_document(scale=args.scale, seed=round_no),
                    scheme=args.scheme,
                )
                bidding_stream(stored.ldoc, args.ops, seed=round_no)
                stored.xpath("//bidder")
                repository.remove(name)
                round_no += 1

    thread = threading.Thread(target=worker, name="repro-top-workload",
                              daemon=True)
    thread.start()
    frames = 0
    try:
        while args.iterations == 0 or frames < args.iterations:
            time.sleep(args.interval)
            frames += 1
            frame = _render_top_frame(window_s=max(5 * args.interval, 1.0))
            if not args.plain:
                print("\x1b[2J\x1b[H", end="")
            print(frame)
            sys.stdout.flush()
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        thread.join(timeout=5.0)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced update workload and print the span tree + hotspots."""
    import random

    from repro.errors import SchemeConfigurationError
    from repro.observability.tracing import (
        InMemorySpanExporter,
        JSONLinesSpanExporter,
        RatioSampler,
        render_span_tree,
        render_summary,
        summarize_trace,
        tracing_enabled,
    )
    from repro.schemes.registry import make_scheme
    from repro.updates.document import LabeledDocument

    document = _workload_document(args)
    # Tighten overflow-prone bounds (when the scheme has them) so short
    # traces exhibit the overflow→relabel cascades the tracer exists to
    # attribute; schemes without bounded fields keep their defaults, and
    # persistent schemes legitimately show no relabel spans at all.
    scheme = None
    if args.overflow_at:
        try:
            scheme = make_scheme(args.scheme, max_magnitude=args.overflow_at)
        except SchemeConfigurationError:
            scheme = None
    if scheme is None:
        scheme = make_scheme(args.scheme)
    ldoc = LabeledDocument(document, scheme)
    rng = random.Random(args.seed)
    targets = [
        node for node in document.all_nodes()
        if node.is_element and node.parent is not None
    ]
    hot = targets[min(1, len(targets) - 1)]
    sampler = (RatioSampler(args.sample, seed=args.seed)
               if args.sample < 1.0 else None)
    buffer = InMemorySpanExporter()
    file_exporter = (JSONLinesSpanExporter(args.export)
                     if args.export else None)
    try:
        with tracing_enabled(buffer, sampler=sampler) as tracer:
            if file_exporter is not None:
                tracer.add_exporter(file_exporter)
            if args.batch:
                with ldoc.batch() as batch:
                    for index in range(args.ops):
                        if index % 2 == 0:
                            batch.insert_before(hot, f"s{index}")
                        else:
                            batch.insert_after(rng.choice(targets),
                                               f"n{index}")
            else:
                # Half the inserts crowd one hot position (the skewed
                # pattern behind careting cascades and QED growth), the
                # rest scatter; deletes every 16 ops exercise on_delete.
                for index in range(args.ops):
                    if index % 16 == 15:
                        victim = ldoc.updates.insert_after(
                            rng.choice(targets), f"d{index}"
                        ).node
                        ldoc.updates.delete(victim)
                    elif index % 2 == 0:
                        ldoc.updates.insert_before(hot, f"s{index}")
                    else:
                        ldoc.updates.insert_after(rng.choice(targets),
                                                  f"n{index}")
    finally:
        if file_exporter is not None:
            file_exporter.close()
    ldoc.verify_order()
    roots = buffer.roots()
    print(f"{args.ops} ops under {args.scheme}: {len(buffer)} span(s) in "
          f"{len(roots)} trace(s), {ldoc.log.relabel_events} relabel "
          f"event(s), {ldoc.log.overflow_events} overflow(s)")
    print()
    print(render_span_tree(roots, max_spans=args.max_spans))
    print()
    print(render_summary(summarize_trace(roots), top=args.top))
    if args.export:
        print(f"\nspans exported to {args.export}")
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """Inspect or replay a write-ahead update journal."""
    from repro.durability.journal import read_journal, recover

    if args.action == "inspect":
        records, torn_tail = read_journal(args.file)
        for number, record in enumerate(records, start=1):
            kind = record["type"]
            if kind == "base":
                print(f"{number:4d}  base     scheme={record['scheme']} "
                      f"name={record['name']!r} "
                      f"config={record.get('config', {})}")
            elif kind == "op":
                print(f"{number:4d}  op       txn={record['txn']} "
                      f"{record['kind']} target={record['target']} "
                      f"name={record.get('name', '')!r}")
            else:
                print(f"{number:4d}  {kind:8s} txn={record['txn']}")
        if torn_tail:
            print("--   torn tail line discarded")
        print(f"-- {len(records)} record(s)")
        return 0

    result = recover(args.file)
    print(f"recovered {result.name!r} under scheme {result.scheme_name}: "
          f"{result.transactions_applied} transaction(s), "
          f"{result.operations_applied} operation(s) replayed, "
          f"{result.transactions_discarded} discarded"
          + (", torn tail dropped" if result.torn_tail else ""))
    if args.verify:
        result.ldoc.verify_order()
        print(f"verify: document order decided correctly for "
              f"{len(result.ldoc.labels)} labels")
    from repro.xmlmodel.serializer import serialize

    print(serialize(result.ldoc.document))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Operate a storage backend through ``open_repository``."""
    from repro.store import open_repository

    with open_repository(args.url) as repository:
        if args.store_action == "ls":
            names = repository.names()
            for name in names:
                snapshot = repository.snapshot(name)
                print(f"{name:24s} scheme={snapshot.scheme_name:16s} "
                      f"stream={len(snapshot.label_stream)}B "
                      f"xml={len(snapshot.xml)}B")
            print(f"-- {len(names)} document(s), "
                  f"{repository.backend.storage_bytes()} bytes at rest "
                  f"({repository.backend.url_scheme})")
            return 0
        if args.store_action == "ingest":
            with open(args.file, encoding="utf-8") as handle:
                xml = handle.read()
            stored = repository.add(args.name, xml, scheme=args.scheme)
            print(f"ingested {args.name!r}: {len(stored.ldoc.labels)} "
                  f"labels under {stored.ldoc.scheme.metadata.name}, "
                  f"{stored.storage_bits()} label bits")
            return 0
        if args.store_action == "get":
            snapshot = repository.snapshot(args.name)
            if args.xml:
                print(snapshot.xml)
            else:
                print(f"{snapshot.name}: scheme={snapshot.scheme_name} "
                      f"config={snapshot.scheme_config} "
                      f"stream={len(snapshot.label_stream)}B "
                      f"xml={len(snapshot.xml)}B")
            return 0
        if args.store_action == "query":
            records = repository.point_query(args.name, args.node)
            for record in records:
                print(f"key={record.ordinal:<6d} {record.kind:9s} "
                      f"{record.name}  value={record.value!r}  "
                      f"label={record.label}")
            print(f"-- {len(records)} node(s)")
            return 0
        repository.remove(args.name)
        print(f"removed {args.name!r}")
        return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from repro.store.repository import REQUIREMENT_PROPERTIES, suggest_scheme

    if not args.requirements:
        print("known requirements:", ", ".join(sorted(REQUIREMENT_PROPERTIES)))
        return 0
    matches = suggest_scheme(args.requirements)
    if matches:
        print("schemes satisfying", ", ".join(args.requirements) + ":")
        for name in matches:
            print(f"  {name}")
        return 0
    print("no Figure 7 scheme satisfies that combination")
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static property verification + repo lint (the CI gate)."""
    from pathlib import Path

    from repro.observability.jsonio import emit_json
    from repro.staticcheck.lint import LintConfig, run_lint, select_rules

    if args.list_rules:
        for rule in select_rules(None, ()):
            print(f"{rule.id}  {rule.severity:7s}  {rule.name}: "
                  f"{rule.description}")
        print("REP100  error    consistency-drift: static verdicts vs "
              "dynamic counters vs Figure 7")
        return 0

    baseline_path = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    elif args.update_baseline:
        from repro.staticcheck.baseline import DEFAULT_BASELINE
        baseline_path = Path(DEFAULT_BASELINE)
    else:
        from repro.staticcheck.baseline import DEFAULT_BASELINE
        default = Path(DEFAULT_BASELINE)
        if default.exists():
            baseline_path = default

    config = LintConfig(
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else (),
        baseline_path=baseline_path,
        update_baseline=args.update_baseline,
        fast=args.fast,
    )
    result = run_lint(config)
    if args.json:
        emit_json(result.to_payload())
    else:
        print(result.render())
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic XML labelling schemes and the "
                    "O'Connor/Roantree evaluation framework",
    )
    parser.add_argument("--profile", dest="profile_out", metavar="FILE",
                        default=None,
                        help="run the command under the sampling profiler "
                             "and write collapsed stacks to FILE")
    parser.add_argument("--profile-hertz", type=float, default=None,
                        metavar="HZ",
                        help="sampling rate for --profile "
                             "(default ~97 Hz)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("schemes", help="list implemented schemes")

    label = commands.add_parser("label", help="label an XML file")
    label.add_argument("file")
    label.add_argument("--scheme", default="cdqs")

    table = commands.add_parser("table", help="print the encoding table")
    table.add_argument("file")
    table.add_argument("--scheme", default="prepost")

    query = commands.add_parser("query", help="run a mini-XPath query")
    query.add_argument("file")
    query.add_argument("path")
    query.add_argument("--scheme", default="cdqs")

    explain = commands.add_parser(
        "explain", help="EXPLAIN a mini-XPath query: strategy + cardinality"
    )
    explain.add_argument("file")
    explain.add_argument("path")
    explain.add_argument("--scheme", default="cdqs")
    explain.add_argument("--analyze", action="store_true",
                         help="execute the query and record actual "
                              "cardinalities and per-step wall time")
    explain.add_argument("--json", action="store_true",
                         help="emit the plan as JSON")

    stats = commands.add_parser(
        "stats", help="per-document cardinality statistics"
    )
    stats.add_argument("file")
    stats.add_argument("--scheme", default="cdqs")
    stats.add_argument("--json", action="store_true",
                       help="emit the statistics payload as JSON")

    matrix = commands.add_parser("matrix", help="regenerate Figure 7")
    matrix.add_argument("--extensions", action="store_true",
                        help="include non-Figure-7 schemes")

    figure = commands.add_parser("figure", help="reproduce one paper figure")
    figure.add_argument("number", type=int, choices=range(1, 8))

    report = commands.add_parser(
        "report", help="regenerate every figure/claim report"
    )
    # No argparse choices here: nargs="*" + choices rejects the empty
    # list, breaking the bare `repro report`.  run_all.main validates.
    report.add_argument("kinds", nargs="*", metavar="kind",
                        help="restrict to report kinds: figure, claim, "
                             "extension (default: all)")

    growth = commands.add_parser("growth", help="skewed growth series")
    growth.add_argument("--schemes", default="qed,cdqs,vector")
    growth.add_argument("--inserts", type=int, default=200)
    growth.add_argument("--step", type=int, default=40)

    suggest = commands.add_parser(
        "suggest", help="section 5.2 scheme selection advice"
    )
    suggest.add_argument("requirements", nargs="*")

    metrics = commands.add_parser(
        "metrics", help="run an update workload and dump metrics"
    )
    metrics.add_argument("file", nargs="?", default=None,
                         help="XML file (default: a built-in sample)")
    metrics.add_argument("--scheme", default="dewey")
    metrics.add_argument("--ops", type=int, default=200)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--batch", action="store_true",
                         help="apply the workload through an UpdateBatch")
    metrics.add_argument("--prefix", default="",
                         help="only show metrics whose name starts with this")
    metrics.add_argument("--watch", type=float, metavar="SECONDS",
                         default=None,
                         help="after the workload, emit a JSON-lines "
                              "snapshot every SECONDS (Ctrl-C to stop)")
    metrics.add_argument("--samples", type=int, default=None,
                         help="with --watch, stop after this many samples")
    metrics.add_argument("--json", action="store_true",
                         help="emit the snapshot as JSON (machine-readable)")

    trace = commands.add_parser(
        "trace", help="run a traced update workload; print the span tree"
    )
    trace.add_argument("file", nargs="?", default=None,
                       help="XML file (default: a built-in sample)")
    trace.add_argument("--scheme", default="dewey")
    trace.add_argument("--ops", type=int, default=200)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--batch", action="store_true",
                       help="apply the workload through an UpdateBatch")
    trace.add_argument("--export", metavar="FILE", default=None,
                       help="also write spans as JSON lines to FILE")
    trace.add_argument("--top", type=int, default=10,
                       help="hotspot rows to show (default 10)")
    trace.add_argument("--sample", type=float, default=1.0,
                       help="head-based sampling ratio in [0, 1] (default 1)")
    trace.add_argument("--max-spans", type=int, default=None,
                       help="truncate the printed tree after this many spans")
    trace.add_argument("--overflow-at", type=int, default=63,
                       help="cap overflow-prone label fields at this "
                            "magnitude so relabel cascades appear in short "
                            "traces (0 = scheme defaults)")

    journal = commands.add_parser(
        "journal", help="inspect or replay a write-ahead update journal"
    )
    journal.add_argument("action", choices=["inspect", "replay"])
    journal.add_argument("file", help="journal file path")
    journal.add_argument("--verify", action="store_true",
                         help="after replay, verify document order")

    store = commands.add_parser(
        "store", help="operate a storage backend (memory/sqlite/pagefile)"
    )
    store_actions = store.add_subparsers(dest="store_action", required=True)

    store_ls = store_actions.add_parser(
        "ls", help="list a backend's documents and storage size"
    )
    store_ls.add_argument("url", help="storage URL, e.g. sqlite:///x.db")

    store_ingest = store_actions.add_parser(
        "ingest", help="label an XML file and persist it"
    )
    store_ingest.add_argument("url")
    store_ingest.add_argument("name", help="document name in the store")
    store_ingest.add_argument("file", help="XML file to ingest")
    store_ingest.add_argument("--scheme", default="cdqs")

    store_get = store_actions.add_parser(
        "get", help="show one stored document's snapshot"
    )
    store_get.add_argument("url")
    store_get.add_argument("name")
    store_get.add_argument("--xml", action="store_true",
                           help="print the document text instead of a summary")

    store_query = store_actions.add_parser(
        "query", help="point-query nodes by name, straight from storage"
    )
    store_query.add_argument("url")
    store_query.add_argument("name")
    store_query.add_argument("node", help="element/attribute name to find")

    store_rm = store_actions.add_parser(
        "rm", help="remove one stored document"
    )
    store_rm.add_argument("url")
    store_rm.add_argument("name")

    def _add_workload_options(command: argparse.ArgumentParser) -> None:
        command.add_argument("file", nargs="?", default=None,
                             help="XML file for the workload "
                                  "(default: a built-in document)")
        command.add_argument("--scheme", default="dewey")
        command.add_argument("--ops", type=int, default=60,
                             help="transactions in the workload "
                                  "(default 60)")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--inject", action="append", metavar="POINT",
                             default=None,
                             help="arm this fault point during the "
                                  "workload (repeatable; e.g. "
                                  "transaction.commit)")
        command.add_argument("--inject-every", type=int, default=2,
                             help="re-arm --inject points every N "
                                  "transactions (default 2)")

    health = commands.add_parser(
        "health",
        help="evaluate the health watchdog probes",
    )
    _add_workload_options(health)
    health.add_argument("--workload", action="store_true",
                        help="run an op-logged update workload before "
                             "evaluating (implied by --inject)")
    health.add_argument("--json", action="store_true",
                        help="emit the health document as JSON")

    serve = commands.add_parser(
        "serve-metrics",
        help="serve /metrics (OpenMetrics) and /health over HTTP",
    )
    _add_workload_options(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9464)
    serve.add_argument("--workload", action="store_true",
                       help="run an op-logged workload before serving "
                            "(implied by --inject)")

    top = commands.add_parser(
        "top",
        help="live op-rate/latency/health dashboard over an XMark loop",
    )
    top.add_argument("--scheme", default="dewey")
    top.add_argument("--scale", type=float, default=0.1,
                     help="XMark document scale per round (default 0.1)")
    top.add_argument("--ops", type=int, default=100,
                     help="bids per XMark round (default 100)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between frames (default 1)")
    top.add_argument("--iterations", type=int, default=0,
                     help="frames to render then exit (default 0: "
                          "run until Ctrl-C)")
    top.add_argument("--plain", action="store_true",
                     help="append frames instead of clearing the screen")

    profile = commands.add_parser(
        "profile",
        help="run another repro command under the sampling profiler",
    )
    profile.add_argument("--hertz", type=float, default=None,
                         help="sampling rate (default ~97 Hz)")
    profile.add_argument("--out", metavar="FILE", default=None,
                         help="collapsed-stack output path "
                              "(default profile.collapsed)")
    profile.add_argument("--top", type=int, default=10,
                         help="hottest-function rows to print (default 10)")
    profile.add_argument("profile_command", nargs=argparse.REMAINDER,
                         metavar="command",
                         help="the repro command line to profile, e.g. "
                              "`query FILE '//item'`")

    lint = commands.add_parser(
        "lint",
        help="static property verifier + repo lint (CI gate)",
    )
    lint.add_argument("--json", action="store_true",
                      help="emit findings and scheme verdicts as JSON")
    lint.add_argument("--fast", action="store_true",
                      help="skip the dynamic probe/matrix cross-check")
    lint.add_argument("--select", metavar="RULES", default=None,
                      help="comma-separated rule ids to run "
                           "(default: all, plus REP100 drift checks)")
    lint.add_argument("--ignore", metavar="RULES", default="",
                      help="comma-separated rule ids to skip")
    lint.add_argument("--baseline", metavar="FILE", default=None,
                      help="JSON-lines baseline of grandfathered findings "
                           "(default: LINT_BASELINE.jsonl when present)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from the current findings")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    update = commands.add_parser(
        "update",
        help="declarative update language: run/check/explain a program",
    )
    update_actions = update.add_subparsers(dest="action", required=True)

    def _update_common(sub):
        sub.add_argument("file", nargs="?", help="XML document")
        sub.add_argument("program", nargs="?",
                         help="a .ulang file, or literal program text")
        sub.add_argument("--scheme", default="cdqs")
        sub.add_argument("--query", action="append", metavar="XPATH",
                         help="registered query to decide independence "
                              "for (repeatable)")

    update_run = update_actions.add_parser(
        "run", help="execute the program through one UpdateBatch")
    _update_common(update_run)
    update_run.add_argument("--out", metavar="FILE", default=None,
                            help="write the updated document here")

    update_check = update_actions.add_parser(
        "check", help="static analysis only; non-zero exit on any "
                      "error-severity finding (CI gate)")
    _update_common(update_check)
    update_check.add_argument("--json", action="store_true",
                              help="emit the analysis report as JSON")
    update_check.add_argument("--baseline", metavar="FILE", default=None,
                              help="JSON-lines baseline of grandfathered "
                                   "findings")
    update_check.add_argument("--list-rules", action="store_true",
                              help="print the UPD rule catalogue and exit")

    update_explain = update_actions.add_parser(
        "explain", help="pair the predicted relabel extent with the "
                        "executed batch actuals")
    _update_common(update_explain)
    update_explain.add_argument("--json", action="store_true",
                                help="emit report + plan as JSON")

    return parser


_HANDLERS = {
    "schemes": _cmd_schemes,
    "label": _cmd_label,
    "table": _cmd_table,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "stats": _cmd_stats,
    "matrix": _cmd_matrix,
    "figure": _cmd_figure,
    "growth": _cmd_growth,
    "report": _cmd_report,
    "suggest": _cmd_suggest,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "journal": _cmd_journal,
    "store": _cmd_store,
    "health": _cmd_health,
    "serve-metrics": _cmd_serve_metrics,
    "top": _cmd_top,
    "profile": _cmd_profile,
    "lint": _cmd_lint,
    "update": _cmd_update,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "profile_out", None) and args.command != "profile":
            return _run_profiled(args)
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
