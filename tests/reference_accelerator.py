"""The dense-array axis index, kept as the oracle for the maintained one.

Before the document's index kept an order-maintained list, it numbered
document order densely: ``nodes`` in preorder, ``end[p]`` the exclusive
end of the subtree window at position ``p`` and ``pos`` each node's
position.  Every axis is then a slice or a jump over whole windows.  An
insert had to shift every later entry, which is why it was replaced,
but built from scratch it is trivially right: :class:`DenseAccelerator`
is that index, built from the document on construction, and
``ldoc.accelerator()`` must answer every axis as it does, node for node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class DenseAccelerator:
    """A static dense window index over one labelled document."""

    def __init__(self, ldoc):
        labels = ldoc.labels
        nodes = [node for node in ldoc.document.labeled_nodes()
                 if node.node_id in labels]
        total = len(nodes)
        end = [0] * total
        pos: Dict[int, int] = {}
        stack: List[tuple] = []  # (node_id, position) of open subtrees
        for index, node in enumerate(nodes):
            parent = node.parent
            parent_id = parent.node_id if parent is not None else None
            while stack and stack[-1][0] != parent_id:
                end[stack.pop()[1]] = index
            stack.append((node.node_id, index))
            pos[node.node_id] = index
        while stack:
            end[stack.pop()[1]] = total
        self._nodes = nodes
        self._end = end
        self._pos = pos

    def nodes(self) -> List:
        return list(self._nodes)

    def document_order(self, nodes: List) -> List:
        return sorted(nodes, key=lambda node: self._pos[node.node_id])

    def evaluate(self, axis: str, node, name: Optional[str] = None,
                 attribute: Optional[Tuple[str, str]] = None) -> List:
        """``axis`` from ``node`` in document order, then ``name``'s nodes,
        then those with an attribute ``attribute[0]`` valued
        ``attribute[1]``."""
        position = self._pos[node.node_id]
        assert self._nodes[position] is node
        result = getattr(self, "_axis_" + axis.replace("-", "_"))(position)
        if name is not None:
            result = [other for other in result if other.name == name]
        if attribute is not None:
            result = [other for other in result
                      if any(child.is_attribute
                             and (child.name, child.value) == attribute
                             for child in other.children)]
        return result

    def value_map(self, name: str) -> Dict[str, List[int]]:
        """Value -> node ids, in document order, of the attributes called
        ``name``: what the index's value map for ``name`` must hold."""
        values: Dict[str, List[int]] = {}
        for node in self._nodes:
            if node.is_attribute and node.name == name:
                values.setdefault(node.value, []).append(node.node_id)
        return values

    def _axis_self(self, position):
        return [self._nodes[position]]

    def _axis_attribute(self, position):
        return self._nodes[position].attributes()

    def _axis_descendant(self, position):
        return self._nodes[position + 1:self._end[position]]

    def _axis_descendant_or_self(self, position):
        return self._nodes[position:self._end[position]]

    def _axis_following(self, position):
        return self._nodes[self._end[position]:]

    def _axis_preceding(self, position):
        # A window closing at or before the context is preceding; one
        # still open there is an ancestor's.
        result = []
        j = 0
        while j < position:
            stop = self._end[j]
            if stop <= position:
                result.extend(self._nodes[j:stop])
                j = stop
            else:
                j += 1
        return result

    def _axis_ancestor(self, position):
        result = []
        j = 0
        while j < position:
            if self._end[j] > position:
                result.append(self._nodes[j])
                j += 1
            else:
                j = self._end[j]
        return result

    def _axis_ancestor_or_self(self, position):
        return self._axis_ancestor(position) + [self._nodes[position]]

    def _axis_parent(self, position):
        return self._axis_ancestor(position)[-1:]

    def _axis_child(self, position):
        result = []
        j = position + 1
        stop = self._end[position]
        while j < stop:
            result.append(self._nodes[j])
            j = self._end[j]
        return result

    def _axis_following_sibling(self, position):
        ancestors = self._axis_ancestor(position)
        if not ancestors:
            return []
        result = []
        j = self._end[position]
        stop = self._end[self._pos[ancestors[-1].node_id]]
        while j < stop:
            result.append(self._nodes[j])
            j = self._end[j]
        return result

    def _axis_preceding_sibling(self, position):
        ancestors = self._axis_ancestor(position)
        if not ancestors:
            return []
        result = []
        j = self._pos[ancestors[-1].node_id] + 1
        while j < position:
            result.append(self._nodes[j])
            j = self._end[j]
        return result


def assert_value_maps(index, dense: DenseAccelerator) -> None:
    """Every value map ``index`` keeps equals the one built from scratch."""
    for name, values in index._values.items():
        got = {value: sorted(node.node_id for node in holders)
               for value, holders in values.items()}
        expected = {value: sorted(node_ids)
                    for value, node_ids in dense.value_map(name).items()}
        assert got == expected, name


def attribute_pairs(nodes,
                    limit: Optional[int] = None) -> List[Tuple[str, str]]:
    """The distinct ``(name, value)`` pairs of the attributes among
    ``nodes``, in order (the first ``limit`` of them), and an ``id``
    value no attribute has: the attribute tests to check an index with."""
    pairs: List[Tuple[str, str]] = []
    for node in nodes:
        pair = (node.name, node.value)
        if node.is_attribute and pair not in pairs:
            pairs.append(pair)
    return pairs[:limit] + [("id", "absent")]
