"""The Sector labelling scheme — Thonangi [23], reconstructed.

The survey describes the scheme in one paragraph: "a hybrid ordering
approach is adopted whereby sectors are used instead of intervals and
mathematical formulae are presented to determine ancestor-descendant and
document-order relationships between label pairs".  The original COMAD'06
formulation is not reproduced verbatim; DESIGN.md documents this module
as a faithful-behaviour reconstruction that matches every Figure 7 grade
for the row:

* Hybrid order — a node's sector is carved *locally* out of its parent's
  sector, while sector start values are globally comparable.
* Fixed encoding — two machine integers per label.
* Persistent N — sibling insertions are absorbed while spare subsectors
  remain, then force a relabel.
* XPath P, Level N — ancestor-descendant by sector containment; no level
  information is stored, so parent-child is undecidable.
* Compact P — the sparse geometric allocation wastes space.
* Division F — subsector widths come from a precomputed power table
  (multiplication only).
* Recursion N — the construction recursively partitions sectors.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.core.properties import (
    Compliance,
    DocumentOrderApproach,
    EncodingRepresentation,
)
from repro.errors import OverflowEvent
from repro.schemes.base import (
    InsertOutcome,
    LabelingScheme,
    SchemeFamily,
    SchemeMetadata,
    SiblingInsertContext,
)
from repro.xmlmodel.tree import Document, XMLNode


#: Storage word width for sector integers.  The geometric width budget
#: inflates values quickly when the budget grows (unit^depth), so the
#: fixed representation needs wide words — one reason the scheme grades
#: only Partial on Compact Encoding.
SECTOR_WORD_BITS = 192


class SectorLabel(NamedTuple):
    """A sector: start angle-unit and span (half-open ``[start, start+span)``)."""

    start: int
    span: int


class SectorScheme(LabelingScheme):
    """Nested integer sectors with geometric width budgets."""

    metadata = SchemeMetadata(
        name="sector",
        display_name="Sector",
        reference="Thonangi [23]",
        family=SchemeFamily.CONTAINMENT,
        document_order=DocumentOrderApproach.HYBRID,
        encoding_representation=EncodingRepresentation.FIXED,
        declared_compactness=Compliance.PARTIAL,
        notes="faithful-behaviour reconstruction (see DESIGN.md)",
    )

    def __init__(self, unit: int = 16, max_depth: int = 10):
        super().__init__()
        self.unit = unit
        self.max_depth = max_depth
        # Power table built with multiplications only (Division grade F):
        # width at depth d is unit^(max_depth - d).
        self._widths: List[int] = [1]
        for _ in range(max_depth):
            self._widths.append(self.instruments.multiply(self._widths[-1], unit))
        self._widths.reverse()

    def _width_at(self, depth: int) -> int:
        if depth >= len(self._widths):
            raise OverflowEvent(
                f"sector scheme exceeded its maximum depth {self.max_depth}"
            )
        return self._widths[depth]

    # ------------------------------------------------------------------

    def label_tree(self, document: Document) -> Dict[int, SectorLabel]:
        """Label the tree, growing the fixed budget when it is too tight.

        A fixed-encoding scheme must pick its integer budget up front;
        when a document outgrows it (too deep, or fan-out beyond the
        spare-slot capacity) the only recourse is relabelling everything
        with a wider budget — which is what this retry loop models, and
        why the scheme cannot be persistent.
        """
        if document.root is None:
            return {}
        for _ in range(12):
            try:
                labels: Dict[int, SectorLabel] = {}
                root_label = SectorLabel(0, self._width_at(0))
                labels[document.root.node_id] = root_label
                self._partition(document.root, root_label, 0, labels)
                return labels
            except OverflowEvent:
                self._grow_budget(document)
        raise OverflowEvent("sector budget could not accommodate the document")

    def _grow_budget(self, document: Document) -> None:
        """Double the unit and extend the depth table, then rebuild."""
        self.unit *= 2
        self.max_depth += 2
        self._widths = [1]
        for _ in range(self.max_depth):
            self._widths.append(self.instruments.multiply(self._widths[-1], self.unit))
        self._widths.reverse()

    def _partition(self, node: XMLNode, sector: SectorLabel, depth: int,
                   labels: Dict[int, SectorLabel]) -> None:
        """Recursively carve child subsectors out of ``sector``.

        Children occupy every *other* subsector slot, leaving spare slots
        for future insertions — the hybrid, locally allocated part of the
        design.
        """
        with self.instruments.recursive_call():
            children = node.labeled_children()
            if not children:
                return
            child_width = self._width_at(depth + 1)
            capacity = self._slot_capacity(sector.span, child_width)
            if 2 * len(children) > capacity:
                raise OverflowEvent(
                    f"sector at depth {depth} cannot host {len(children)} children"
                )
            for index, child in enumerate(children):
                offset = self.instruments.multiply(2 * index + 1, child_width)
                child_sector = SectorLabel(
                    self.instruments.add(sector.start, offset), child_width
                )
                labels[child.node_id] = child_sector
                self._partition(child, child_sector, depth + 1, labels)

    def _slot_capacity(self, span: int, child_width: int) -> int:
        # span // child_width computed by repeated subtraction-free
        # multiplication: widths are exact powers of the unit, so the
        # capacity is simply the unit itself for a full sector, and 0 for
        # a leaf-width sector.
        capacity = 0
        total = child_width
        while total < span and capacity < self.unit:
            capacity += 1
            total = self.instruments.add(total, child_width)
        return capacity

    # ------------------------------------------------------------------

    def compare(self, left: SectorLabel, right: SectorLabel) -> int:
        self.instruments.note_comparison()
        if left.start == right.start:
            return 0
        return -1 if left.start < right.start else 1

    def is_ancestor(self, ancestor: SectorLabel, descendant: SectorLabel) -> bool:
        return (
            ancestor.start <= descendant.start
            and descendant.start + descendant.span
            <= ancestor.start + ancestor.span
            and ancestor.span > descendant.span
        )

    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        """Take the spare subsector next to the left neighbour, or relabel."""
        parent = context.parent_label
        left = context.left_label
        right = context.right_label
        # The child width is recoverable from any sibling's span, or from
        # the parent's span via the width table.
        if left is not None:
            child_width = left.span
            candidate_start = left.start + left.span
        elif right is not None:
            child_width = right.span
            candidate_start = right.start - right.span
        else:
            depth = self._depth_of_span(parent.span)
            try:
                child_width = self._width_at(depth + 1)
            except OverflowEvent:
                return self.relabel_insert(context, overflowed=True)
            candidate_start = parent.start + child_width
        fits_left = candidate_start > parent.start
        fits_right = candidate_start + child_width <= parent.start + parent.span
        gap_free = (left is None or candidate_start >= left.start + left.span) and (
            right is None or candidate_start + child_width <= right.start
        )
        if fits_left and fits_right and gap_free:
            return InsertOutcome(label=SectorLabel(candidate_start, child_width))
        return self.relabel_insert(context, overflowed=False)

    def _depth_of_span(self, span: int) -> int:
        for depth, width in enumerate(self._widths):
            if width == span:
                return depth
        raise OverflowEvent(f"span {span} is not on the width table")

    def label_size_bits(self, label: SectorLabel) -> int:
        # Two wide words; the geometric budget needs large integers,
        # hence the Partial compactness grade.
        return 2 * SECTOR_WORD_BITS

    def format_label(self, label: SectorLabel) -> str:
        return f"<{label.start}+{label.span}>"
