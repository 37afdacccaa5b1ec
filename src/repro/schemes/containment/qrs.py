"""QRS — the robust numbering scheme of Amagasa, Yoshikawa & Uemura [2].

QRS replaces the integer begin/end positions of region labelling with
*real numbers* so that a value can always be generated between two
existing values.  The survey's verdict (section 3.1.1): "computers
represent floating point numbers with a fixed number of bits and thus in
practice the solution is similar to an integer representation of labels
with sparse allocation and consequently suffers from the same
limitations" — this implementation uses IEEE-754 doubles and therefore
*exhibits* that failure: after roughly 50 midpoint insertions at one
position the midpoint collides with an endpoint and a full relabel is
forced, which is exactly what the persistence probe records.

Midpoints are computed as ``(low + high) * 0.5`` — a multiplication, not
a division, matching the scheme's F grade on Division Computation.

Figure 7 row: Global, Fixed, Persistent N, XPath P, Level N, Overflow N,
Orthogonal N, Compact P, Division F, Recursion F.
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
from repro.xmlmodel.tree import Document


class QRSLabel(NamedTuple):
    """A QRS label: floating-point begin and end positions."""

    begin: float
    end: float


class QRSScheme(LabelingScheme):
    """Floating-point region labelling."""

    metadata = SchemeMetadata(
        name="qrs",
        display_name="QRS",
        reference="Amagasa et al. [2]",
        family=SchemeFamily.CONTAINMENT,
        document_order=DocumentOrderApproach.GLOBAL,
        encoding_representation=EncodingRepresentation.FIXED,
        declared_compactness=Compliance.PARTIAL,
        notes="float labels; precision exhaustion forces relabelling",
    )

    def label_tree(self, document: Document) -> Dict[int, QRSLabel]:
        """Iterative scan assigning consecutive whole-number positions."""
        labels: Dict[int, QRSLabel] = {}
        if document.root is None:
            return labels
        begins: Dict[int, float] = {}
        position = 0.0
        stack = [(document.root, False)]
        while stack:
            node, expanded = stack.pop()
            if not node.kind.is_labeled:
                continue
            if not expanded:
                position += 1.0
                begins[node.node_id] = position
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
            else:
                position += 1.0
                labels[node.node_id] = QRSLabel(begins.pop(node.node_id), position)
        return labels

    def compare(self, left: QRSLabel, right: QRSLabel) -> int:
        self.instruments.note_comparison()
        if left.begin == right.begin:
            return 0
        return -1 if left.begin < right.begin else 1

    def is_ancestor(self, ancestor: QRSLabel, descendant: QRSLabel) -> bool:
        return ancestor.begin < descendant.begin and descendant.end < ancestor.end

    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        parent = context.parent_label
        left = context.left_label
        right = context.right_label
        low = left.end if left is not None else parent.begin
        high = right.begin if right is not None else parent.end
        begin = self.instruments.multiply(low + high, 0.5)
        end = self.instruments.multiply(begin + high, 0.5)
        if not (low < begin < end < high):
            # Double precision exhausted: "the same limitations" as
            # integers with sparse allocation.
            return self.relabel_insert(context, overflowed=False)
        return InsertOutcome(label=QRSLabel(begin, end))

    def label_size_bits(self, label: QRSLabel) -> int:
        return 2 * 64

    def format_label(self, label: QRSLabel) -> str:
        return f"[{label.begin:g},{label.end:g}]"
