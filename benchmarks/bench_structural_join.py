"""Structural joins (reference [1]): stack-based merge vs nested loop.

The survey's opening motivation is "XML databases capable of processing
queries efficiently"; structural joins over labels are the canonical
query primitive.  This bench verifies the stack-tree join's output
against the nested-loop baseline and times both, over several schemes —
the join code is scheme-agnostic because it only needs ``compare`` and
``is_ancestor`` (section 2.2's label-decidable relationships).
"""

import pytest

from _common import bench_args, fresh
from repro.store.joins import count_join, nested_loop_join, stack_tree_join
from repro.xmlmodel.generator import GeneratorProfile, random_document

DOCUMENT_NODES = 500


def build(scheme_name):
    ldoc = fresh(
        scheme_name,
        random_document(
            DOCUMENT_NODES, seed=7, profile=GeneratorProfile.bibliography()
        ),
    )
    ancestors = [
        (ldoc.label_of(node), node)
        for node in ldoc.document.labeled_nodes()
        if node.name in ("section", "chapter", "record")
    ]
    descendants = [
        (ldoc.label_of(node), node)
        for node in ldoc.document.labeled_nodes()
        if node.is_element and not node.labeled_children()
    ]
    return ldoc, ancestors, descendants


@pytest.mark.parametrize("scheme_name", ["prepost", "qed", "vector"])
def bench_stack_tree_join(benchmark, scheme_name):
    ldoc, ancestors, descendants = build(scheme_name)
    result = benchmark(stack_tree_join, ldoc.scheme, ancestors, descendants)
    assert len(result) == count_join(ldoc.scheme, ancestors, descendants)


@pytest.mark.parametrize("scheme_name", ["prepost"])
def bench_nested_loop_join(benchmark, scheme_name):
    ldoc, ancestors, descendants = build(scheme_name)
    baseline = benchmark(
        nested_loop_join, ldoc.scheme, ancestors, descendants
    )
    merged = stack_tree_join(ldoc.scheme, ancestors, descendants)
    assert sorted(
        (a.node_id, d.node_id) for a, d in baseline
    ) == sorted((a.node_id, d.node_id) for a, d in merged)


def bench_join_comparison_counts(benchmark):
    """The stack join touches far fewer label pairs than nested loop."""
    def measure():
        ldoc, ancestors, descendants = build("prepost")
        ldoc.scheme.instruments.reset()
        stack_tree_join(ldoc.scheme, ancestors, descendants)
        merge_comparisons = ldoc.scheme.instruments.comparisons
        nested_pairs = len(ancestors) * len(descendants)
        return merge_comparisons, nested_pairs

    merge_comparisons, nested_pairs = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert merge_comparisons < nested_pairs / 4


def main(argv=None):
    import time

    bench_args(__doc__, argv)  # join inputs are already CI-sized
    for scheme_name in ("prepost", "qed", "vector"):
        ldoc, ancestors, descendants = build(scheme_name)
        start = time.perf_counter()
        merged = stack_tree_join(ldoc.scheme, ancestors, descendants)
        merge_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        nested_loop_join(ldoc.scheme, ancestors, descendants)
        nested_ms = (time.perf_counter() - start) * 1000
        print(f"{scheme_name:10s} |A|={len(ancestors):3d} "
              f"|D|={len(descendants):3d} out={len(merged):4d}  "
              f"stack={merge_ms:6.1f} ms  nested={nested_ms:6.1f} ms")


if __name__ == "__main__":
    main()
