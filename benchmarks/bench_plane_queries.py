"""The XPath Accelerator's acceleration: plane windows vs label scans.

Section 3.1.1 quotes Grust: major-axis steps are "rectangular region
queries in the pre/post labelled plane".  This benchmark compares the
plane's window evaluation against the generic full-table label scan for
the same axes on the same document — the windows avoid visiting nodes
outside the answer's pre range.
"""

from _common import bench_args
from repro.axes.evaluator import AxisEvaluator
from repro.axes.plane import PrePostPlane
from repro.xmlmodel.generator import random_document

DOCUMENT_NODES = 400


def build():
    document = random_document(DOCUMENT_NODES, seed=17)
    plane = PrePostPlane(document)
    scan = AxisEvaluator(plane.ldoc, allow_fallback=False)
    context = document.root.element_children()[0]
    return plane, scan, context


def bench_plane_descendant_window(benchmark):
    plane, _scan, context = build()
    result = benchmark(plane.descendants, context)
    assert result is not None


def bench_scan_descendant_axis(benchmark):
    plane, scan, context = build()
    result = benchmark(scan.evaluate, "descendant", context)
    assert result is not None


def bench_plane_matches_scan(benchmark):
    """Same answers either way, for all four major axes."""
    def check():
        plane, scan, _context = build()
        nodes = list(plane.document.labeled_nodes())[:20]
        for node in nodes:
            assert [x.node_id for x in plane.descendants(node)] == [
                x.node_id for x in scan.evaluate("descendant", node)
            ]
            assert [x.node_id for x in plane.ancestors(node)] == [
                x.node_id for x in scan.evaluate("ancestor", node)
            ]
            assert [x.node_id for x in plane.following(node)] == [
                x.node_id for x in scan.evaluate("following", node)
            ]
            assert [x.node_id for x in plane.preceding(node)] == [
                x.node_id for x in scan.evaluate("preceding", node)
            ]
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)


def main(argv=None):
    import time

    args = bench_args(__doc__, argv)
    evaluations = 10 if args.quick else 50
    plane, scan, context = build()
    rows = []
    for axis, plane_call in (
        ("descendant", plane.descendants),
        ("ancestor", plane.ancestors),
        ("following", plane.following),
        ("preceding", plane.preceding),
    ):
        start = time.perf_counter()
        for _ in range(evaluations):
            plane_call(context)
        plane_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        for _ in range(evaluations):
            scan.evaluate(axis, context)
        scan_ms = (time.perf_counter() - start) * 1000
        print(f"{axis:11s} plane={plane_ms:7.1f} ms  scan={scan_ms:7.1f} ms "
              f"({evaluations} evaluations, {DOCUMENT_NODES}-node document)")
        rows.append({"axis": axis, "evaluations": evaluations,
                     "plane_ms": round(plane_ms, 3),
                     "scan_ms": round(scan_ms, 3)})
    return rows


if __name__ == "__main__":
    main()
