"""XPath axis evaluation over a labelled document.

Evaluates the major axes *from labels* wherever the scheme's labels
decide the necessary relationship, falling back to tree pointers only if
the caller allows it.  This is the machinery behind the paper's section
2.2 observation that label-decidable relationships "contribute
significantly to the reduction of XPath processing costs": a
label-decided axis is one pass over the label table, no tree navigation.

That pass is the label-decidability probe (the benchmarks report how
often labels sufficed) and the oracle the document's index is tested
against.  Queries and EXPLAIN plans never scan:
:class:`~repro.axes.xpath.XPathEvaluator` hands its evaluator the
document's :class:`~repro.axes.accelerator.AxisAccelerator`, which then
answers every axis from its windows or refuses.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Tuple

from repro.errors import UnsupportedRelationshipError
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

# The canonical axis list lives with the grammar; re-exported here
# because this module is where axis *evaluation* is looked up.
from repro.axes.xpath_ast import AXES, with_attribute


class AxisEvaluator:
    """Axis queries over one :class:`LabeledDocument`.

    ``allow_fallback=True`` lets axes the scheme's labels cannot decide
    be answered from tree pointers instead (with the fallback counted),
    so the same evaluator runs on every scheme while the benchmarks can
    report how often labels sufficed.

    ``accelerator`` (the document's own index,
    ``ldoc.accelerator()``) answers every axis instead of the O(n)
    label-table scan; without one, every axis takes the scan.  A
    ``name`` passed to :meth:`evaluate` keeps only the nodes so called,
    an ``attribute`` pair ``(name, value)`` only the elements carrying
    that attribute value.
    """

    def __init__(self, ldoc: LabeledDocument, allow_fallback: bool = False,
                 accelerator=None):
        self.ldoc = ldoc
        self.scheme = ldoc.scheme
        self.allow_fallback = allow_fallback
        self.accelerator = accelerator
        self.fallbacks = 0
        self.accelerated_hits = 0

    # ------------------------------------------------------------------

    def evaluate(self, axis: str, node: XMLNode, name: Optional[str] = None,
                 attribute: Optional[Tuple[str, str]] = None
                 ) -> List[XMLNode]:
        """All nodes on ``axis`` from ``node``, in document order.

        With ``name``, only the nodes called ``name``: the index then
        reads that name's nodes instead of the whole axis.  With
        ``attribute``, only the elements whose attribute
        ``attribute[0]`` has the value ``attribute[1]``: on the child,
        descendant and descendant-or-self axes the index then reads
        that value's owners.
        """
        if self.accelerator is not None:
            self.accelerated_hits += 1
            return self.accelerator.evaluate(axis, node, name, attribute)
        if axis not in AXES:
            raise UnsupportedRelationshipError(f"unknown axis {axis!r}")
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        nodes = handler(node)
        if name is not None:
            nodes = [other for other in nodes if other.name == name]
        if attribute is None:
            return nodes
        return with_attribute(nodes, *attribute)

    def document_order(self, nodes: List[XMLNode]) -> List[XMLNode]:
        """``nodes`` sorted by label comparison (Definition 1)."""
        return sorted(
            nodes,
            key=functools.cmp_to_key(
                lambda a, b: self.scheme.compare(
                    self.ldoc.label_of(a), self.ldoc.label_of(b)
                )
            ),
        )

    # -- axes ------------------------------------------------------------

    def _axis_self(self, node: XMLNode) -> List[XMLNode]:
        return [node]

    def _axis_ancestor(self, node: XMLNode) -> List[XMLNode]:
        return self._filter_by_label(
            node, lambda label, other: self.scheme.is_ancestor(other, label),
            fallback=lambda: list(node.ancestors())[::-1],
        )

    def _axis_ancestor_or_self(self, node: XMLNode) -> List[XMLNode]:
        return self._merge(self._axis_ancestor(node), [node])

    def _axis_descendant(self, node: XMLNode) -> List[XMLNode]:
        return self._filter_by_label(
            node, lambda label, other: self.scheme.is_ancestor(label, other),
            fallback=lambda: [
                child for child in node.descendants() if child.kind.is_labeled
            ],
        )

    def _axis_descendant_or_self(self, node: XMLNode) -> List[XMLNode]:
        return self._merge([node], self._axis_descendant(node))

    def _axis_parent(self, node: XMLNode) -> List[XMLNode]:
        result = self._filter_by_label(
            node, lambda label, other: self.scheme.is_parent(other, label),
            fallback=lambda: [node.parent] if node.parent is not None else [],
        )
        return result

    def _axis_child(self, node: XMLNode) -> List[XMLNode]:
        return self._filter_by_label(
            node, lambda label, other: self.scheme.is_parent(label, other),
            fallback=node.labeled_children,
        )

    def _axis_following(self, node: XMLNode) -> List[XMLNode]:
        # Nodes after this one in document order, minus its descendants.
        def predicate(label, other):
            return (
                self.scheme.compare(label, other) < 0
                and not self.scheme.is_ancestor(label, other)
            )

        return self._filter_by_label(
            node, predicate, fallback=lambda: self._following_by_tree(node)
        )

    def _axis_preceding(self, node: XMLNode) -> List[XMLNode]:
        def predicate(label, other):
            return (
                self.scheme.compare(other, label) < 0
                and not self.scheme.is_ancestor(other, label)
            )

        return self._filter_by_label(
            node, predicate, fallback=lambda: self._preceding_by_tree(node)
        )

    def _axis_following_sibling(self, node: XMLNode) -> List[XMLNode]:
        def predicate(label, other):
            return (
                self.scheme.is_sibling(label, other)
                and self.scheme.compare(label, other) < 0
            )

        return self._filter_by_label(
            node, predicate,
            fallback=lambda: [
                sibling for sibling in node.following_siblings()
                if sibling.kind.is_labeled
            ],
        )

    def _axis_preceding_sibling(self, node: XMLNode) -> List[XMLNode]:
        def predicate(label, other):
            return (
                self.scheme.is_sibling(label, other)
                and self.scheme.compare(other, label) < 0
            )

        return self._filter_by_label(
            node, predicate,
            fallback=lambda: [
                sibling for sibling in node.preceding_siblings()
                if sibling.kind.is_labeled
            ][::-1],
        )

    def _axis_attribute(self, node: XMLNode) -> List[XMLNode]:
        return node.attributes()

    # -- helpers -----------------------------------------------------------

    def _filter_by_label(
        self,
        node: XMLNode,
        predicate: Callable,
        fallback: Optional[Callable] = None,
    ) -> List[XMLNode]:
        """Scan the label table with ``predicate(node_label, other_label)``.

        Nodes a batch has deferred carry no label yet and are skipped.
        """
        labels = self.ldoc.labels
        label = labels[node.node_id]
        try:
            matches = []
            for other in self.ldoc.document.labeled_nodes():
                other_label = labels.get(other.node_id)
                if (other_label is not None
                        and other.node_id != node.node_id
                        and predicate(label, other_label)):
                    matches.append(other)
            return matches
        except UnsupportedRelationshipError:
            if not self.allow_fallback or fallback is None:
                raise
            self.fallbacks += 1
            result = fallback()
            return [item for item in result if item is not None]

    def _merge(self, first: List[XMLNode], second: List[XMLNode]) -> List[XMLNode]:
        combined = {node.node_id: node for node in first + second}
        return self.document_order(list(combined.values()))

    def _following_by_tree(self, node: XMLNode) -> List[XMLNode]:
        order = list(self.ldoc.document.labeled_nodes())
        position = next(
            index for index, other in enumerate(order)
            if other.node_id == node.node_id
        )
        descendants = {child.node_id for child in node.descendants()}
        return [
            other for other in order[position + 1 :]
            if other.node_id not in descendants
        ]

    def _preceding_by_tree(self, node: XMLNode) -> List[XMLNode]:
        order = list(self.ldoc.document.labeled_nodes())
        position = next(
            index for index, other in enumerate(order)
            if other.node_id == node.node_id
        )
        ancestors = {anc.node_id for anc in node.ancestors()}
        return [
            other for other in order[:position]
            if other.node_id not in ancestors
        ]
