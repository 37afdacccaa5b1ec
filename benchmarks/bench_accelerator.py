"""Index-backed axis steps vs label scans, and splices vs rebuilds.

Two claims, measured on XMark documents:

* **query**: with the document's
  :class:`~repro.axes.accelerator.AxisAccelerator`, descendant/
  following/preceding steps are window range scans — on a 50k-node
  document they must beat the ``_filter_by_label`` full scan by >=5x;
* **maintenance**: keeping the index current through the structural
  delta stream (order-maintained splices) must beat rebuilding it after
  every update, on a mixed insert/delete/move workload.

Equality with the scan path is asserted on every timed query, so the
speedup rows can never come from wrong answers.  Section 3.1.1's pre/post
plane is checked too: on a PrePost-labelled document the index's
positions are the pre ranks, so its windows are Grust's rectangular
region queries, and they must answer the four major axes exactly as the
label scan does.
"""

import time

from _common import bench_args
from repro.axes.evaluator import AxisEvaluator
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.xmark import xmark_document

#: scale 85 ~= 51k labelled nodes (the acceptance floor is 50k).
FULL_SCALE = 85
QUICK_SCALE = 2

TIMED_AXES = ("descendant", "following", "preceding")
EXTRA_AXES = ("ancestor", "following-sibling", "preceding-sibling")


def build(scale, scheme_name="dewey"):
    document = xmark_document(scale=scale, seed=11)
    ldoc = LabeledDocument(document, make_scheme(scheme_name))
    accelerator = ldoc.accelerator()
    accelerator.refresh()  # built up front: the rows time queries
    return ldoc, accelerator


def sample_contexts(document, count):
    """Elements spread through the document: mixed depths and sizes."""
    elements = [
        node for node in document.labeled_nodes() if node.is_element
    ]
    step = max(1, len(elements) // count)
    return elements[::step][:count]


def ids(nodes):
    return [node.node_id for node in nodes]


def bench_axis_steps(scale, contexts_count):
    ldoc, accelerator = build(scale)
    scan = AxisEvaluator(ldoc, allow_fallback=True)
    fast = AxisEvaluator(ldoc, allow_fallback=True, accelerator=accelerator)
    contexts = sample_contexts(ldoc.document, contexts_count)
    rows = []
    for axis in TIMED_AXES + EXTRA_AXES:
        start = time.perf_counter()
        scan_results = [scan.evaluate(axis, node) for node in contexts]
        scan_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        fast_results = [fast.evaluate(axis, node) for node in contexts]
        fast_ms = (time.perf_counter() - start) * 1000
        for expected, got in zip(scan_results, fast_results):
            assert ids(expected) == ids(got)
        speedup = scan_ms / fast_ms if fast_ms else float("inf")
        rows.append({
            "workload": "axis-step",
            "axis": axis,
            "nodes": ldoc.document.labeled_size(),
            "contexts": len(contexts),
            "scan_ms": round(scan_ms, 3),
            "accelerated_ms": round(fast_ms, 3),
            "speedup": round(speedup, 1),
        })
        print(f"{axis:18s} scan={scan_ms:9.1f} ms  "
              f"accelerated={fast_ms:7.1f} ms  ({speedup:6.1f}x, "
              f"{len(contexts)} contexts)")
    return rows


def run_update_workload(ldoc, per_update):
    """A deterministic mixed workload: inserts, deletes, one move each."""
    root = ldoc.document.root
    region = next(
        node for node in root.labeled_children() if node.is_element
    )
    inserted = []
    updates = 0
    index = 0
    while True:
        fresh = ldoc.updates.append_child(region, f"claim{index}").node
        inserted.append(fresh)
        updates += 1
        per_update()
        if updates >= UPDATE_BUDGET:
            break
        sibling = ldoc.updates.insert_after(fresh, f"probe{index}").node
        inserted.append(sibling)
        updates += 1
        per_update()
        if updates >= UPDATE_BUDGET:
            break
        if len(inserted) >= 3:
            ldoc.updates.delete(inserted.pop(0))
            updates += 1
            per_update()
            if updates >= UPDATE_BUDGET:
                break
        ldoc.updates.move(inserted[-1], root, len(root.attributes()))
        inserted[-1:] = []
        updates += 1
        per_update()
        if updates >= UPDATE_BUDGET:
            break
        index += 1
    return updates


def bench_maintenance(scale):
    """Incremental (delta splices) vs rebuild-per-update, same workload."""
    probe_axis = "descendant"

    # Incremental: attached accelerator consumes deltas; each update is
    # followed by one accelerated query (the serving pattern).
    ldoc, accelerator = build(scale)
    fast = AxisEvaluator(ldoc, allow_fallback=True, accelerator=accelerator)
    context = ldoc.document.root
    start = time.perf_counter()
    updates = run_update_workload(
        ldoc, lambda: fast.evaluate(probe_axis, context)
    )
    incremental_ms = (time.perf_counter() - start) * 1000

    # Rebuild-per-update: an index cut off from the delta stream must
    # refresh() before each post-update query or raise StaleIndexError.
    ldoc2, accelerator2 = build(scale)
    ldoc2.unsubscribe_deltas(accelerator2)
    fast2 = AxisEvaluator(ldoc2, allow_fallback=True,
                          accelerator=accelerator2)
    context2 = ldoc2.document.root

    def refresh_and_query():
        accelerator2.refresh()
        fast2.evaluate(probe_axis, context2)

    start = time.perf_counter()
    run_update_workload(ldoc2, refresh_and_query)
    rebuild_ms = (time.perf_counter() - start) * 1000

    # Both strategies answer identically at the end — against the scan.
    scan = AxisEvaluator(ldoc, allow_fallback=True)
    assert ids(scan.evaluate(probe_axis, context)) == ids(
        fast.evaluate(probe_axis, context)
    )
    assert ids(fast.evaluate(probe_axis, context)) == ids(
        fast2.evaluate(probe_axis, context2)
    )

    advantage = rebuild_ms / incremental_ms if incremental_ms else float("inf")
    print(f"maintenance        incremental={incremental_ms:9.1f} ms  "
          f"rebuild-per-update={rebuild_ms:9.1f} ms  ({advantage:5.1f}x, "
          f"{updates} updates)")
    return [{
        "workload": "maintenance",
        "nodes": ldoc.document.labeled_size(),
        "updates": updates,
        "incremental_ms": round(incremental_ms, 3),
        "rebuild_per_update_ms": round(rebuild_ms, 3),
        "advantage": round(advantage, 1),
    }]


def check_prepost_plane(scale, contexts_count):
    """The pre/post plane: the index's windows against the label scan."""
    ldoc, plane = build(scale, "prepost")
    nodes = plane.nodes()
    assert all(ldoc.label_of(node).pre == position
               for position, node in enumerate(nodes))
    scan = AxisEvaluator(ldoc)  # PrePost decides these axes from labels
    contexts = sample_contexts(ldoc.document, contexts_count)
    for node in contexts:
        for axis in ("descendant", "ancestor", "following", "preceding"):
            assert ids(plane.evaluate(axis, node)) == ids(
                scan.evaluate(axis, node)), (axis, node.name)
    print(f"pre/post plane     windows == label scan on {len(contexts)} "
          f"contexts x 4 major axes ({len(nodes)} nodes)")


# -- pytest-benchmark entries (quick sizes) -----------------------------


def bench_accelerated_descendant_step(benchmark):
    ldoc, accelerator = build(QUICK_SCALE)
    fast = AxisEvaluator(ldoc, accelerator=accelerator)
    result = benchmark(fast.evaluate, "descendant", ldoc.document.root)
    assert result


def bench_scan_descendant_step(benchmark):
    ldoc, _accelerator = build(QUICK_SCALE)
    scan = AxisEvaluator(ldoc, allow_fallback=True)
    result = benchmark(scan.evaluate, "descendant", ldoc.document.root)
    assert result


def bench_insert_splice(benchmark):
    ldoc, accelerator = build(QUICK_SCALE)
    region = next(
        node for node in ldoc.document.root.labeled_children()
        if node.is_element
    )

    def insert():
        ldoc.updates.append_child(region, "spliced")
        return accelerator.stale

    assert benchmark(insert) is False


def main(argv=None):
    global UPDATE_BUDGET

    args = bench_args(__doc__, argv)
    scale = QUICK_SCALE if args.quick else FULL_SCALE
    contexts = 6 if args.quick else 20
    UPDATE_BUDGET = 12 if args.quick else 60
    rows = bench_axis_steps(scale, contexts)
    rows.extend(bench_maintenance(scale))
    check_prepost_plane(scale, contexts)
    if not args.quick:
        for row in rows:
            if row["workload"] == "axis-step" and row["axis"] in TIMED_AXES:
                assert row["nodes"] >= 50_000, row
                assert row["speedup"] >= 5.0, row
            if row["workload"] == "maintenance":
                assert row["advantage"] > 1.0, row


UPDATE_BUDGET = 60

if __name__ == "__main__":
    main()
