"""Update-target resolution by tree pointers, the resolver it replaced.

:func:`reference_resolve_targets` resolves a path by walking the tree:
each axis step from each context node follows parent and child pointers
(:func:`axis_candidates`, every node kind included, so the node tests
keep only elements and attributes), and every merged step is sorted by
a preorder numbering of the whole document.  It needs no label and no
index, so it answers while a batch holds pending nodes.  It is the
oracle for :func:`repro.ulang.compiler.resolve_targets` and for
``xpath()``, which both run the index's step loop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.axes.xpath_ast import LocationPath, apply_node_tests, parse_xpath


def axis_candidates(axis: str, node, order: Dict[int, int]) -> List:
    """One axis step via tree pointers, in document order."""
    if axis == "self":
        return [node]
    if axis == "child":
        return list(node.children)
    if axis == "parent":
        return [node.parent] if node.parent is not None else []
    if axis == "ancestor":
        return list(node.ancestors())[::-1]
    if axis == "ancestor-or-self":
        return list(node.ancestors())[::-1] + [node]
    if axis == "descendant":
        return list(node.descendants())
    if axis == "descendant-or-self":
        return [node] + list(node.descendants())
    if axis == "following-sibling":
        return list(node.following_siblings())
    if axis == "preceding-sibling":
        if node.parent is None:
            return []
        return node.parent.children[:node.parent.child_index(node)]
    if axis == "attribute":
        return node.attributes()
    if axis in ("following", "preceding"):
        position = order[node.node_id]
        subtree = {child.node_id for child in node.preorder()}
        ancestors = {anc.node_id for anc in node.ancestors()}
        root = node
        while root.parent is not None:
            root = root.parent
        if axis == "following":
            return [
                other for other in root.preorder()
                if order[other.node_id] > position
                and other.node_id not in subtree
            ]
        return [
            other for other in root.preorder()
            if order[other.node_id] < position
            and other.node_id not in ancestors
        ]
    raise ValueError(f"unsupported axis {axis!r}")


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
                candidates = axis_candidates(step.axis, node, order)
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
