"""``resolve_targets`` as it was before it numbered the tree lazily.

:func:`reference_resolve_targets` numbers the whole document in preorder
on every call and sorts every step's merged result by that map, whatever
the path.  It is the oracle for :func:`repro.ulang.compiler.
resolve_targets`, which builds the map only for a ``following`` or
``preceding`` step or a merge of several contexts or union branches.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.axes.xpath_ast import LocationPath, apply_node_tests, parse_xpath
from repro.ulang.compiler import _axis_candidates


def reference_resolve_targets(ldoc, paths: Union[str, Sequence[LocationPath]],
                              ) -> List:
    """All nodes the path expression selects, by tree navigation."""
    if isinstance(paths, str):
        paths = parse_xpath(paths)
    root = ldoc.document.root
    if root is None:
        return []
    order = {
        node.node_id: position
        for position, node in enumerate(root.preorder())
    }
    gathered: List = []
    for branch in paths:
        steps = list(branch.steps)
        if branch.absolute:
            current = [root]
            if steps:
                first = steps[0]
                if first.axis == "child":
                    current = apply_node_tests(first, [root])
                    steps = steps[1:]
                elif first.axis == "descendant":
                    current = apply_node_tests(
                        first, [root] + list(root.descendants())
                    )
                    steps = steps[1:]
        else:
            current = [root]
        for step in steps:
            step_gathered: List = []
            seen = set()
            for node in current:
                candidates = _axis_candidates(step.axis, node, order)
                for match in apply_node_tests(step, candidates):
                    if match.node_id not in seen:
                        seen.add(match.node_id)
                        step_gathered.append(match)
            current = sorted(step_gathered,
                             key=lambda node: order[node.node_id])
        gathered.extend(current)
    seen = set()
    unique = []
    for node in gathered:
        if node.node_id not in seen:
            seen.add(node.node_id)
            unique.append(node)
    return sorted(unique, key=lambda node: order[node.node_id])
