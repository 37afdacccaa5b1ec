"""Section 2.2 claim: label-decidable relationships cut XPath costs.

Times axis evaluation over the label table for schemes at each XPath
Evaluations grade — full prefix schemes answer every axis from labels,
containment schemes answer ancestor/descendant, and the fallback path
(tree navigation) is what the partial schemes pay elsewhere.
"""

import pytest

from _common import bench_args, fresh
from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath import XPathEvaluator
from repro.xmlmodel.generator import random_document

DOCUMENT_NODES = 150


def build(scheme_name):
    return fresh(scheme_name, random_document(DOCUMENT_NODES, seed=88))


@pytest.mark.parametrize("scheme_name", ["qed", "dewey", "prepost", "vector"])
def bench_descendant_axis(benchmark, scheme_name):
    """Ancestor-descendant: decidable from labels for every graded row."""
    ldoc = build(scheme_name)
    evaluator = AxisEvaluator(ldoc, allow_fallback=True)
    root = ldoc.document.root

    result = benchmark(evaluator.evaluate, "descendant", root)
    assert len(result) == ldoc.document.labeled_size() - 1


@pytest.mark.parametrize("scheme_name", ["qed", "dewey"])
def bench_sibling_axis_label_only(benchmark, scheme_name):
    """Sibling axes: only XPath-F schemes answer without the tree."""
    ldoc = build(scheme_name)
    evaluator = AxisEvaluator(ldoc, allow_fallback=False)
    node = ldoc.document.root.element_children()[0]

    benchmark(evaluator.evaluate, "following-sibling", node)
    assert evaluator.fallbacks == 0


def bench_vector_sibling_axis_needs_fallback(benchmark):
    ldoc = build("vector")
    evaluator = AxisEvaluator(ldoc, allow_fallback=True)
    node = ldoc.document.root.element_children()[0]

    benchmark(evaluator.evaluate, "following-sibling", node)
    assert evaluator.fallbacks > 0


@pytest.mark.parametrize("scheme_name", ["qed", "prepost"])
def bench_xpath_location_path(benchmark, scheme_name):
    """A whole location path over the labelled document."""
    ldoc = build(scheme_name)
    evaluator = XPathEvaluator(ldoc)

    result = benchmark(evaluator.evaluate, "//record/ancestor::*")
    assert isinstance(result, list)


def main(argv=None):
    import time

    args = bench_args(__doc__, argv)
    contexts = 10 if args.quick else 30
    print(f"Axis evaluation over a {DOCUMENT_NODES}-node document")
    for scheme_name in ("qed", "dewey", "prepost", "vector"):
        ldoc = build(scheme_name)
        evaluator = AxisEvaluator(ldoc, allow_fallback=True)
        start = time.perf_counter()
        for node in list(ldoc.document.labeled_nodes())[:contexts]:
            evaluator.evaluate("descendant", node)
            evaluator.evaluate("ancestor", node)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"  {scheme_name:10s} {2 * contexts} axis evaluations: "
              f"{elapsed:7.1f} ms (fallbacks: {evaluator.fallbacks})")

    # Flight-recorder overhead: the same workload bare vs. with the
    # sampling profiler already running at the default rate (the
    # steady-state cost a soak run pays — lifecycle excluded, as the
    # recorder starts once, not per operation).  Each pair times a
    # bare min-of-3 and a profiled min-of-3 back to back so
    # machine-load drift cancels within the pair; the reported
    # overhead is the median of the per-pair ratios, which a single
    # noisy pair cannot skew.
    from repro.observability.profiler import DEFAULT_HERTZ, SamplingProfiler

    ldoc = build("qed")
    evaluator = AxisEvaluator(ldoc, allow_fallback=True)
    nodes = list(ldoc.document.labeled_nodes())[:contexts]

    def workload():
        for _ in range(20):
            for node in nodes:
                evaluator.evaluate("descendant", node)
                evaluator.evaluate("ancestor", node)

    def rep():
        start = time.perf_counter()
        workload()
        return (time.perf_counter() - start) * 1000

    profiler = SamplingProfiler(hertz=DEFAULT_HERTZ)
    pairs = []
    for _ in range(5):
        workload()  # untimed warm rep before each timed pair
        bare = min(rep() for _ in range(3))
        profiler.start()
        try:
            workload()  # absorb thread-start perturbation untimed
            pairs.append((bare, min(rep() for _ in range(3))))
        finally:
            profiler.stop()
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    baseline_ms, profiled_ms = pairs[len(pairs) // 2]
    overhead_pct = 100.0 * (profiled_ms - baseline_ms) / max(baseline_ms,
                                                             1e-9)
    print(f"  profiler overhead at {DEFAULT_HERTZ:g} Hz (qed workload): "
          f"bare {baseline_ms:.1f} ms, profiled {profiled_ms:.1f} ms "
          f"({overhead_pct:+.1f}%)")


if __name__ == "__main__":
    main()
