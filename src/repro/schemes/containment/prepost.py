"""Preorder/postorder containment labelling — the XPath Accelerator [9].

Dietz's observation (section 3.1.1): node ``u`` is an ancestor of ``v``
iff ``u`` precedes ``v`` in preorder and follows it in postorder, so a
``(pre, post)`` pair per node turns the four major XPath axes into
rectangular region queries in the pre/post plane.  Grust's XPath
Accelerator additionally stores the level, making parent-child decidable.

Figure 1(b) of the paper is this scheme applied to the sample document;
the Figure 1 benchmark asserts our labels equal the figure's.

Figure 7 row: Global order, Fixed encoding, Persistent N (every insertion
shifts the global ranks of all following nodes), XPath P (ancestor and
parent, but not siblinghood), Level F, Overflow N, Orthogonal N,
Compact F, Division F, Recursion F.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from repro.core.properties import (
    Compliance,
    DocumentOrderApproach,
    EncodingRepresentation,
)
from repro.schemes.base import (
    InsertOutcome,
    LabelingScheme,
    SchemeFamily,
    SchemeMetadata,
    SiblingInsertContext,
)
from repro.schemes.storage import FixedWidthStorage
from repro.xmlmodel.tree import Document


class PrePostLabel(NamedTuple):
    """One XPath Accelerator label: preorder rank, postorder rank, level."""

    pre: int
    post: int
    level: int


class PrePostScheme(LabelingScheme):
    """The preorder/postorder/level plane of Grust [9]."""

    metadata = SchemeMetadata(
        name="prepost",
        display_name="XPath Accelerator",
        reference="Grust [9]",
        family=SchemeFamily.CONTAINMENT,
        document_order=DocumentOrderApproach.GLOBAL,
        encoding_representation=EncodingRepresentation.FIXED,
        declared_compactness=Compliance.FULL,
        notes="pre/post region queries; full relabel on every insertion",
    )

    def __init__(self, width_bits: int = 32):
        super().__init__()
        self.storage = FixedWidthStorage(width_bits=width_bits)

    # ------------------------------------------------------------------

    def label_tree(self, document: Document) -> Dict[int, PrePostLabel]:
        """Single iterative traversal assigning pre/post/level ranks.

        Iterative on purpose: the published construction is one document
        scan, which is why the scheme grades F on Recursion.
        """
        labels: Dict[int, PrePostLabel] = {}
        if document.root is None:
            return labels
        pre = 0
        post = 0
        # Stack of (node, level, visited-children-flag) frames.
        pending: Dict[int, tuple] = {}
        stack = [(document.root, 0, False)]
        while stack:
            node, level, expanded = stack.pop()
            if not expanded:
                if node.kind.is_labeled:
                    pending[node.node_id] = (pre, level)
                    pre += 1
                stack.append((node, level, True))
                for child in reversed(node.children):
                    stack.append((child, level + 1, False))
            elif node.kind.is_labeled:
                node_pre, node_level = pending.pop(node.node_id)
                self.storage.check(node_pre, "preorder rank")
                labels[node.node_id] = PrePostLabel(node_pre, post, node_level)
                post += 1
        return labels

    def compare(self, left: PrePostLabel, right: PrePostLabel) -> int:
        self.instruments.note_comparison()
        if left.pre == right.pre:
            return 0
        return -1 if left.pre < right.pre else 1

    def is_ancestor(self, ancestor: PrePostLabel, descendant: PrePostLabel) -> bool:
        return ancestor.pre < descendant.pre and ancestor.post > descendant.post

    def is_parent(self, parent: PrePostLabel, child: PrePostLabel) -> bool:
        return self.is_ancestor(parent, child) and child.level == parent.level + 1

    def level(self, label: PrePostLabel) -> int:
        return label.level

    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        """Global ranks leave no room: recompute the whole plane.

        This is the survey's point about global order being "unsuitable
        for a dynamic labelling scheme because insertions modify the
        positional values of all nodes after the inserted node".
        """
        return self.relabel_insert(context, overflowed=False)

    def plan_insert(self, context: SiblingInsertContext) -> None:
        """Always ``None``: global ranks shift on every insertion.

        Returning ``None`` without computing the throwaway relabel lets
        the bulk engine fold an entire batch into one rank recomputation.
        """
        return None

    def label_size_bits(self, label: PrePostLabel) -> int:
        return 3 * self.storage.width_bits

    def format_label(self, label: PrePostLabel) -> str:
        return f"{label.pre},{label.post}"
