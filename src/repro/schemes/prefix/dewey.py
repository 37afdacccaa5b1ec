"""DeweyID prefix labelling — Tatarinov et al. [22].

The naive prefix scheme (section 3.1.2): the n-th child of a node takes
positional identifier ``n``, concatenated onto the parent's label.
Figure 3 of the paper shows this scheme on the abstract example tree;
the Figure 3 benchmark asserts our labels reproduce it digit for digit.

"The insertion of new nodes requires the relabelling of any
follow-sibling nodes (and their descendants) which can have significant
costs" — :meth:`insert_sibling` implements exactly that shift, and the
persistence probe counts the fallout.

Figure 7 row: Hybrid, Variable, Persistent N, XPath F, Level F,
Overflow N, Orthogonal N, Compact N, Division F, Recursion F.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.properties import (
    Compliance,
    DocumentOrderApproach,
    EncodingRepresentation,
)
from repro.schemes.base import (
    InsertOutcome,
    LabelingScheme,
    PrefixSchemeBase,
    SchemeFamily,
    SchemeMetadata,
    SiblingInsertContext,
)
from repro.schemes.storage import LengthFieldStorage
from repro.xmlmodel.tree import XMLNode


class DeweyScheme(PrefixSchemeBase):
    """Integer path labels, 1-based per level, shown as ``1.2.3``."""

    metadata = SchemeMetadata(
        name="dewey",
        display_name="DeweyID",
        reference="Tatarinov et al. [22]",
        family=SchemeFamily.PREFIX,
        document_order=DocumentOrderApproach.HYBRID,
        encoding_representation=EncodingRepresentation.VARIABLE,
        declared_compactness=Compliance.NONE,
        notes="follow-sibling relabelling on insert",
    )

    def __init__(self, component_bits: int = 16, length_field_bits: int = 8):
        super().__init__()
        self.component_bits = component_bits
        self.storage = LengthFieldStorage(
            length_field_bits=length_field_bits, unit_bits=component_bits
        )

    def root_label(self) -> Tuple:
        # The paper's Figure 3 shows the root labelled "1": DeweyID roots
        # the path at 1 rather than using an empty label.
        return (1,)

    # -- component algebra ----------------------------------------------

    def initial_child_components(self, count: int) -> List[int]:
        return list(range(1, count + 1))

    def component_before(self, first: int) -> int:
        # Dense integers have no room before 1; handled by the overridden
        # insert_sibling, which shifts the suffix instead.
        return first

    def component_after(self, last: int) -> int:
        return last + 1

    def component_between(self, left: int, right: int) -> int:
        return left + 1

    def compare_components(self, left: int, right: int) -> int:
        if left == right:
            return 0
        return -1 if left < right else 1

    def component_size_bits(self, component: int) -> int:
        return self.component_bits

    def level(self, label: Tuple[int, ...]) -> int:
        # The root carries the fixed component 1, so depth is one less
        # than the path length.
        return len(label) - 1

    def label_size_bits(self, label: Tuple[int, ...]) -> int:
        return self.storage.stored_bits(len(label))

    # -- insertion with follow-sibling relabelling ------------------------

    def plan_insert(self, context: SiblingInsertContext):
        """Generic probe, not component algebra.

        Dense integer components have no "between", so the prefix-base
        fast path would mint duplicates; instead ask the real
        :meth:`insert_sibling` and defer whenever it would shift
        followers.
        """
        return LabelingScheme.plan_insert(self, context)

    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        """Take the slot after the left sibling; shift colliding followers.

        The new node gets ``left + 1`` (or 1 at the front).  Any following
        sibling whose component no longer fits is renumbered, and
        renumbering a sibling changes the prefix of *its entire subtree* —
        the "significant costs" the survey calls out.  Gaps opened by
        earlier deletions are reused, so only genuinely colliding
        followers move.
        """
        parent = context.parent
        parent_label = context.parent_label
        # Siblings not yet labelled (later nodes of a subtree graft) are
        # invisible: they will be labelled after this node.
        siblings = [
            child for child in parent.labeled_children()
            if child.node_id == context.new_id
            or child.node_id in context.labels
        ]
        new_index = next(
            index
            for index, child in enumerate(siblings)
            if child.node_id == context.new_id
        )
        left_component = (
            context.labels[siblings[new_index - 1].node_id][-1]
            if new_index > 0
            else 0
        )
        new_component = left_component + 1
        new_label = parent_label + (new_component,)
        relabeled: Dict[int, Any] = {}
        running = new_component
        for sibling in siblings[new_index + 1 :]:
            old_label = context.labels[sibling.node_id]
            if old_label[-1] > running:
                running = old_label[-1]
                continue
            running += 1
            self._relabel_subtree(sibling, parent_label + (running,),
                                  context, relabeled)
        return InsertOutcome(label=new_label, relabeled=relabeled)

    def _relabel_subtree(self, node: XMLNode, new_label: Tuple[int, ...],
                         context: SiblingInsertContext,
                         relabeled: Dict[int, Any]) -> None:
        """Give ``node`` ``new_label`` and its labelled descendants the new
        prefix, over an explicit stack (depth is not bounded)."""
        stack = [(node, new_label)]
        while stack:
            node, label = stack.pop()
            relabeled[node.node_id] = label
            # Reversed, so they pop in document order.  Descendants
            # without labels yet (batch-deferred insertions) are
            # invisible: the consolidated pass will label them.
            for child in node.labeled_children()[::-1]:
                old_child = context.labels.get(child.node_id)
                if old_child is not None:
                    stack.append((child, label + (old_child[-1],)))
