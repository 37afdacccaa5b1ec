"""Begin/end region (interval) containment labelling — XRel [30].

Each node stores the begin and end positions of its element in the
document plus its level; ancestor-descendant is interval containment
(section 3.1.1).  Following the gap extensions of [17, 9, 11], bulk
labelling leaves a configurable gap between consecutive positions so a
few insertions can be absorbed without relabelling — and, exactly as the
survey argues, the gaps "only postpone the relabelling process until the
interval gaps have been consumed", which the persistence probe observes.

Figure 7 row: Global, Fixed, Persistent N, XPath P, Level F, Overflow N,
Orthogonal N, Compact F, Division F, Recursion F.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from repro.core.properties import (
    Compliance,
    DocumentOrderApproach,
    EncodingRepresentation,
)
from repro.errors import UpdateError
from repro.schemes.base import (
    InsertOutcome,
    LabelingScheme,
    SchemeFamily,
    SchemeMetadata,
    SiblingInsertContext,
)
from repro.schemes.storage import FixedWidthStorage
from repro.xmlmodel.tree import Document


class RegionLabel(NamedTuple):
    """An XRel-style label: begin position, end position, level."""

    begin: int
    end: int
    level: int


class RegionScheme(LabelingScheme):
    """Begin/end intervals with sparse (gapped) allocation."""

    metadata = SchemeMetadata(
        name="xrel",
        display_name="XRel",
        reference="Yoshikawa et al. [30]",
        family=SchemeFamily.CONTAINMENT,
        document_order=DocumentOrderApproach.GLOBAL,
        encoding_representation=EncodingRepresentation.FIXED,
        declared_compactness=Compliance.FULL,
        notes="interval containment with gap allocation per [17, 9, 11]",
    )

    def __init__(self, gap: int = 8, width_bits: int = 32):
        super().__init__()
        if gap < 1:
            raise UpdateError("gap must be at least 1")
        self.gap = gap
        self.storage = FixedWidthStorage(width_bits=width_bits)

    # ------------------------------------------------------------------

    def label_tree(self, document: Document) -> Dict[int, RegionLabel]:
        """One iterative scan; consecutive positions spaced by ``gap``."""
        labels: Dict[int, RegionLabel] = {}
        if document.root is None:
            return labels
        begins: Dict[int, tuple] = {}
        position = 0
        stack = [(document.root, 0, False)]
        while stack:
            node, level, expanded = stack.pop()
            if not node.kind.is_labeled and not expanded:
                continue
            if not expanded:
                position += self.gap
                begins[node.node_id] = (position, level)
                stack.append((node, level, True))
                for child in reversed(node.children):
                    stack.append((child, level + 1, False))
            else:
                position += self.gap
                begin, node_level = begins.pop(node.node_id)
                self.storage.check(position, "end position")
                labels[node.node_id] = RegionLabel(begin, position, node_level)
        return labels

    def compare(self, left: RegionLabel, right: RegionLabel) -> int:
        self.instruments.note_comparison()
        if left.begin == right.begin:
            return 0
        return -1 if left.begin < right.begin else 1

    def is_ancestor(self, ancestor: RegionLabel, descendant: RegionLabel) -> bool:
        # "u is an ancestor of v iff u.begin < v.begin and v.end < u.end"
        return ancestor.begin < descendant.begin and descendant.end < ancestor.end

    def is_parent(self, parent: RegionLabel, child: RegionLabel) -> bool:
        # "u is a parent of v iff u is an ancestor of v and
        #  u.level = v.level - 1"
        return self.is_ancestor(parent, child) and child.level == parent.level + 1

    def level(self, label: RegionLabel) -> int:
        return label.level

    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        """Consume two positions from the local gap, or relabel.

        The available open interval runs from the left neighbour's end
        (or the parent's begin) to the right neighbour's begin (or the
        parent's end).  Allocation is left-packed — ``low+1, low+2`` —
        deliberately avoiding midpoint division, matching the scheme's F
        grade on Division Computation.
        """
        parent = context.parent_label
        left = context.left_label
        right = context.right_label
        low = left.end if left is not None else parent.begin
        high = right.begin if right is not None else parent.end
        if high - low < 3:
            # Gap exhausted: the postponed relabelling arrives.
            return self.relabel_insert(context, overflowed=False)
        label = RegionLabel(low + 1, low + 2, parent.level + 1)
        return InsertOutcome(label=label)

    def label_size_bits(self, label: RegionLabel) -> int:
        return 3 * self.storage.width_bits

    def format_label(self, label: RegionLabel) -> str:
        return f"[{label.begin},{label.end}]@{label.level}"
