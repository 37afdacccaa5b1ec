"""Labelling-scheme abstractions: metadata, insert outcomes, base classes.

Definition 1 of the paper: a labelling scheme assigns unique identifiers
to each node in the XML tree such that document order is decidable.  The
:class:`LabelingScheme` interface captures exactly that contract plus the
optional structural relationships (ancestor/parent/sibling/level) whose
availability the Figure 7 "XPath Evaluations" and "Level Encoding" columns
grade, and the dynamic sibling-insertion primitive whose relabelling
behaviour the "Persistent Labels" and "Overflow Problem" columns grade.

Two base classes factor the families of section 3.1:

* :class:`PrefixSchemeBase` — labels are tuples of per-level positional
  components (DeweyID, ORDPATH, DLN, LSDX, ImprovedBinary, QED, CDBS,
  CDQS, DDE ...).  Subclasses provide component algebra only.
* Containment schemes share only comparison/containment shapes and
  implement :class:`LabelingScheme` directly.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Any, Collection, Dict, List, Optional, Set, Tuple

from repro.analysis.instrumentation import Instrumentation
from repro.core.properties import (
    Compliance,
    DocumentOrderApproach,
    EncodingRepresentation,
)
from repro.errors import OverflowEvent, UnsupportedRelationshipError
from repro.xmlmodel.tree import Document, XMLNode


class SchemeFamily(enum.Enum):
    """Section 3's broad classification of labelling schemes."""

    CONTAINMENT = "containment"
    PREFIX = "prefix"
    PRIME = "prime"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SchemeMetadata:
    """Descriptive facts about a scheme (the non-probed matrix columns).

    ``declared_compactness`` is the one judgment column (see DESIGN.md):
    the paper grades Compact Encoding from storage-representation
    reasoning; the framework reports the declaration and cross-checks it
    with measured growth rates.  ``orthogonal_strategy`` names the
    registered :class:`~repro.strategies.base.OrderedKeyStrategy` a scheme
    is built on, which the orthogonality probe instantiates in both
    skeleton families.
    """

    name: str
    display_name: str
    reference: str
    family: SchemeFamily
    document_order: DocumentOrderApproach
    encoding_representation: EncodingRepresentation
    declared_compactness: Compliance
    orthogonal_strategy: Optional[str] = None
    extension: bool = False
    notes: str = ""


@dataclass
class InsertOutcome:
    """What one insertion did to the label space.

    ``label`` is the new node's label; ``relabeled`` maps existing node
    ids to their *changed* labels (empty for persistent schemes);
    ``overflowed`` records that a fixed storage field was exhausted and
    forced the relabel (the section 4 overflow problem, as opposed to a
    scheme that relabels routinely).
    """

    label: Any
    relabeled: Dict[int, Any] = field(default_factory=dict)
    overflowed: bool = False


@dataclass
class SiblingInsertContext:
    """Everything a scheme may need to label one newly inserted node.

    The tree already contains the new node (``new_id``) positioned under
    ``parent`` (id ``parent_id``) between ``left_id`` and ``right_id``
    (either may be ``None`` at the ends); ``labels`` is the current label
    map, which the scheme must not mutate — changes are reported via
    :class:`InsertOutcome`.
    """

    document: Document
    labels: Dict[int, Any]
    parent: XMLNode
    parent_id: int
    left_id: Optional[int]
    right_id: Optional[int]
    new_id: int

    @property
    def parent_label(self) -> Any:
        return self.labels[self.parent_id]

    @property
    def left_label(self) -> Optional[Any]:
        return None if self.left_id is None else self.labels[self.left_id]

    @property
    def right_label(self) -> Optional[Any]:
        return None if self.right_id is None else self.labels[self.right_id]


class LabelingScheme(abc.ABC):
    """Interface every labelling scheme implements.

    Instances are stateless with respect to any particular document except
    for the :class:`Instrumentation` counters; the label map itself lives
    in :class:`~repro.updates.document.LabeledDocument`.
    """

    metadata: SchemeMetadata

    def __init__(self):
        self.instruments = Instrumentation()
        #: Constructor kwargs this instance was built with, recorded by
        #: :func:`~repro.schemes.registry.make_scheme` so snapshots and
        #: revisions can rebuild an identically configured scheme.
        self.configuration: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Bulk labelling
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def label_tree(self, document: Document) -> Dict[int, Any]:
        """Assign labels to every labelled node of ``document``.

        Returns a map ``node_id -> label``.  Implementations route any
        division or recursion their published algorithm performs through
        ``self.instruments``.
        """

    def relabel_scope(self, labels: Dict[int, Any],
                      parents: Collection[XMLNode]) -> Optional[List[XMLNode]]:
        """The nodes below which :meth:`relabel_below` relabels after
        changes under ``parents``, or ``None`` for the whole document (this
        default, for labels that encode global positions).  EXPLAIN
        counts a pass from it without running the pass."""
        return None

    def relabel_below(self, document: Document, labels: Dict[int, Any],
                      parents: Collection[XMLNode]) -> Dict[int, Any]:
        """Labels for the labelled nodes below the topmost changed parents.

        The only place a relabel is computed, for a batch's consolidated
        pass and every per-operation escape hatch
        (:meth:`relabel_insert`).  ``parents`` are the nodes whose
        labelled children changed, ``labels`` the current map (not
        mutated).  Each subtree below a node of :meth:`relabel_scope` is
        labelled as :meth:`label_tree` would label it from that node's
        current label; nodes outside those subtrees are absent from the
        result.  This default relabels the whole document.
        """
        return self.label_tree(document)

    # ------------------------------------------------------------------
    # Label-only relationship tests (Definition 1 + section 2.2)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def compare(self, left: Any, right: Any) -> int:
        """Three-way document-order comparison of two labels."""

    def is_ancestor(self, ancestor: Any, descendant: Any) -> bool:
        """Whether ``ancestor`` labels an ancestor of ``descendant``."""
        raise UnsupportedRelationshipError(
            f"{self.metadata.name} cannot decide ancestor-descendant from labels"
        )

    def is_parent(self, parent: Any, child: Any) -> bool:
        """Whether ``parent`` labels the parent of ``child``."""
        raise UnsupportedRelationshipError(
            f"{self.metadata.name} cannot decide parent-child from labels"
        )

    def is_sibling(self, left: Any, right: Any) -> bool:
        """Whether the two labels belong to sibling nodes."""
        raise UnsupportedRelationshipError(
            f"{self.metadata.name} cannot decide siblinghood from labels"
        )

    def level(self, label: Any) -> int:
        """The node's nesting depth, from the label alone (root = 0)."""
        raise UnsupportedRelationshipError(
            f"{self.metadata.name} does not encode level information"
        )

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        """Label a newly inserted node (and report any relabelling)."""

    def plan_insert(self, context: SiblingInsertContext
                    ) -> Optional[InsertOutcome]:
        """Label one insertion *only if* no existing label must change.

        The bulk-update engine's fast path: returns an
        :class:`InsertOutcome` with an empty relabel map when the scheme
        can absorb the insertion in place, or ``None`` when it cannot —
        signalling the engine to defer to one consolidated relabelling
        pass instead of paying a relabel per operation.  The default asks
        :meth:`insert_sibling` and discards any outcome that relabels or
        overflows (including a raised :class:`OverflowEvent`); schemes
        that can answer cheaper (or that always relabel) override this
        to skip the wasted work.
        """
        try:
            outcome = self.insert_sibling(context)
        except OverflowEvent:
            return None
        if outcome.relabeled or outcome.overflowed:
            return None
        return outcome

    def on_delete(self, document: Document, labels: Dict[int, Any],
                  node_id: int) -> Dict[int, Any]:
        """Hook called after a node (and subtree) is removed.

        Returns a relabel map for schemes that reorganise on deletion.
        The default keeps all remaining labels untouched, which is what
        persistent schemes do; LSDX documents that labels "may be
        reassigned upon deletion" and therefore allows reuse.
        """
        return {}

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def label_size_bits(self, label: Any) -> int:
        """Bits needed to store one label under the scheme's storage model."""

    def format_label(self, label: Any) -> str:
        """Human-readable rendering (matches the paper's figures)."""
        return str(label)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def relabel_insert(self, context: SiblingInsertContext,
                       overflowed: bool) -> InsertOutcome:
        """Label an insertion by relabelling below the new node's parent.

        The escape hatch of the non-persistent schemes: preorder/postorder
        insertion, gap exhaustion in region schemes, fixed-field overflow
        in DLN/CDBS, Cohen's missing codes — all end here, and the updates
        layer counts the cost.
        """
        fresh = self.relabel_below(context.document, context.labels,
                                   [context.parent])
        relabeled = {
            node_id: label
            for node_id, label in fresh.items()
            if node_id != context.new_id and context.labels.get(node_id) != label
        }
        return InsertOutcome(
            label=fresh[context.new_id], relabeled=relabeled, overflowed=overflowed
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.metadata.name!r}>"


class PrefixSchemeBase(LabelingScheme):
    """Shared machinery for prefix schemes (section 3.1.2).

    A label is a tuple of positional components, one per tree level below
    the root; the root's label is the empty tuple unless a subclass
    overrides :meth:`root_label`.  Lexicographic comparison over
    components with the prefix-is-smaller rule yields document order, a
    proper-prefix test yields ancestor-descendant, and tuple length yields
    the level — which is why every prefix scheme grades F on XPath
    Evaluations and Level Encoding except those that choose not to store
    full paths.
    """

    #: Subclasses with a bounded component storage set this to their
    #: storage model; ``None`` means self-delimiting (overflow-free).
    component_separator: str = "."

    # -- component algebra to be provided by subclasses -----------------

    @abc.abstractmethod
    def initial_child_components(self, count: int) -> List[Any]:
        """Ordered components for ``count`` siblings at bulk-labelling time."""

    @abc.abstractmethod
    def component_before(self, first: Any) -> Any:
        """A component ordered before ``first`` (insert before first child)."""

    @abc.abstractmethod
    def component_after(self, last: Any) -> Any:
        """A component ordered after ``last`` (insert after last child)."""

    @abc.abstractmethod
    def component_between(self, left: Any, right: Any) -> Any:
        """A component strictly between two sibling components."""

    @abc.abstractmethod
    def compare_components(self, left: Any, right: Any) -> int:
        """Three-way order of two components of the same parent."""

    @abc.abstractmethod
    def component_size_bits(self, component: Any) -> int:
        """Storage for one component (including any per-component framing)."""

    def component_for_only_child(self) -> Any:
        """Component for an insertion under a childless parent."""
        return self.initial_child_components(1)[0]

    def check_component(self, component: Any) -> Any:
        """Raise :class:`OverflowEvent` if the component exceeds storage."""
        return component

    def format_component(self, component: Any) -> str:
        return str(component)

    def root_label(self) -> Tuple:
        return ()

    # -- generic implementations ----------------------------------------

    def label_tree(self, document: Document) -> Dict[int, Any]:
        labels: Dict[int, Any] = {}
        if document.root is None:
            return labels
        root = document.root
        labels[root.node_id] = self.root_label()
        return self._label_below([root], labels)

    def relabel_scope(self, labels: Dict[int, Any],
                      parents: Collection[XMLNode]) -> Optional[List[XMLNode]]:
        """The topmost labelled members of ``parents``.

        A member without a label is detached (deleted later in the
        batch) or pending.  A pending node's current parent is always a
        member too: the batch records the parent of every node it labels
        or defers, and a move defers or labels the moved nodes again
        under their new parent.  Walking up from a pending member
        therefore reaches a labelled member, so the topmost member on
        every path is labelled, and starting only from labelled topmost
        members still covers every pending node.
        """
        members = {parent.node_id for parent in parents}
        return [parent for parent in parents
                if parent.node_id in labels and _topmost(parent, members)]

    def relabel_below(self, document: Document, labels: Dict[int, Any],
                      parents: Collection[XMLNode]) -> Dict[int, Any]:
        """:meth:`label_tree`'s loop, started at each node of the scope."""
        tops = self.relabel_scope(labels, parents)
        fresh = {top.node_id: labels[top.node_id] for top in tops}
        self._label_below(tops[:], fresh)
        for top in tops:
            del fresh[top.node_id]
        return fresh

    def _label_below(self, stack: List[XMLNode],
                     labels: Dict[int, Any]) -> Dict[int, Any]:
        """Label the labelled descendants of the nodes on ``stack``.

        Each node on the stack already has its label in ``labels``; its
        children take ``initial_child_components`` after that label.
        Consumes ``stack`` and returns ``labels``, filled in.
        """
        while stack:
            node = stack.pop()
            children = node.labeled_children()
            if not children:
                continue
            components = self.initial_child_components(len(children))
            parent_label = labels[node.node_id]
            for child, component in zip(children, components):
                labels[child.node_id] = parent_label + (component,)
                stack.append(child)
        return labels

    def compare(self, left: Any, right: Any) -> int:
        self.instruments.note_comparison()
        for left_comp, right_comp in zip(left, right):
            order = self.compare_components(left_comp, right_comp)
            if order:
                return order
        if len(left) == len(right):
            return 0
        return -1 if len(left) < len(right) else 1

    def is_ancestor(self, ancestor: Any, descendant: Any) -> bool:
        if len(ancestor) >= len(descendant):
            return False
        return all(
            self.compare_components(a, d) == 0
            for a, d in zip(ancestor, descendant)
        )

    def is_parent(self, parent: Any, child: Any) -> bool:
        return len(child) == len(parent) + 1 and self.is_ancestor(parent, child)

    def is_sibling(self, left: Any, right: Any) -> bool:
        if len(left) != len(right) or not left:
            return False
        return all(
            self.compare_components(a, b) == 0
            for a, b in zip(left[:-1], right[:-1])
        ) and self.compare_components(left[-1], right[-1]) != 0

    def level(self, label: Any) -> int:
        return len(label)

    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        return (self._place_component(context)
                or self.relabel_insert(context, overflowed=True))

    def plan_insert(self, context: SiblingInsertContext
                    ) -> Optional[InsertOutcome]:
        """Component algebra directly; ``None`` on overflow, no relabel.

        Unlike the base default, an exhausted component never computes a
        throwaway relabel — the overflow surfaces as ``None`` and the
        bulk engine consolidates.
        """
        return self._place_component(context)

    def _place_component(self, context: SiblingInsertContext
                         ) -> Optional[InsertOutcome]:
        """The new node's label from its labelled neighbours' components,
        or ``None`` when no component fits (an :class:`OverflowEvent`)."""
        left = context.left_label
        right = context.right_label
        try:
            if left is None and right is None:
                component = self.component_for_only_child()
            elif left is None:
                component = self.component_before(right[-1])
            elif right is None:
                component = self.component_after(left[-1])
            else:
                component = self.component_between(left[-1], right[-1])
            self.check_component(component)
        except OverflowEvent:
            return None
        return InsertOutcome(label=context.parent_label + (component,))

    def label_size_bits(self, label: Any) -> int:
        return sum(self.component_size_bits(component) for component in label)

    def format_label(self, label: Any) -> str:
        return self.component_separator.join(
            self.format_component(component) for component in label
        )


def _topmost(node: XMLNode, members: Set[int]) -> bool:
    """Whether no proper ancestor of ``node`` is among ``members``."""
    ancestor = node.parent
    while ancestor is not None:
        if ancestor.node_id in members:
            return False
        ancestor = ancestor.parent
    return True
