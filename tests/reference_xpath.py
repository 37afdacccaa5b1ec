"""The scan-path XPath evaluator, kept as the oracle for the index path.

Before every query went through the document's axis accelerator, bare
``xpath()`` evaluated each axis step with ``AxisEvaluator``'s label
scan (tree pointers where labels cannot decide, ``allow_fallback``)
and merged results in document order through a whole-document order
map.  :func:`reference_xpath` is that evaluator, unchanged in
semantics: every result the index path returns must equal it node for
node.
"""

from __future__ import annotations

from typing import List, Optional

from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath_ast import apply_node_tests, parse_path, split_union


def reference_xpath(ldoc, path: str, context=None) -> List:
    """All nodes ``path`` selects, in document order, by label scans."""
    branches = split_union(path)
    if len(branches) > 1:
        gathered: List = []
        for branch in branches:
            gathered.extend(reference_xpath(ldoc, branch, context))
        return _dedupe(ldoc, gathered)
    return _evaluate_single(ldoc, path, context)


def _evaluate_single(ldoc, path: str, context: Optional[object]) -> List:
    axes = AxisEvaluator(ldoc, allow_fallback=True)
    absolute, steps = parse_path(path)
    root = ldoc.document.root
    if root is None:
        return []
    if absolute:
        current = [root]
        if steps:
            first = steps[0]
            if first.axis == "child":
                current = apply_node_tests(first, [root])
                steps = steps[1:]
            elif first.axis == "descendant":
                current = apply_node_tests(
                    first, axes.evaluate("descendant-or-self", root))
                steps = steps[1:]
    else:
        current = [context or root]
    for step in steps:
        gathered: List = []
        for node in current:
            gathered.extend(
                apply_node_tests(step, axes.evaluate(step.axis, node)))
        current = _dedupe(ldoc, gathered)
    return _dedupe(ldoc, current)


def _dedupe(ldoc, nodes: List) -> List:
    """Duplicates dropped, sorted by a whole-document order map."""
    seen = set()
    unique = []
    for node in nodes:
        if node.node_id not in seen:
            seen.add(node.node_id)
            unique.append(node)
    if len(unique) < 2:
        return unique
    order = {
        node.node_id: position
        for position, node in enumerate(ldoc.document.labeled_nodes())
    }
    return sorted(unique, key=lambda node: order[node.node_id])
