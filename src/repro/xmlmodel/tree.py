"""Ordered rooted tree model for XML documents.

This is the substrate every labelling scheme in the package operates on.
It mirrors the XPath data model the paper describes in section 2.1: an XML
document is an ordered rooted tree whose internal nodes are elements, whose
attributes are unordered-in-XML but given a stable document position
(immediately after their owner element, before its content), and whose
leaves carry text.

Following the paper, *labelling* applies to element and attribute nodes;
text, comment and processing-instruction nodes are content that the
*encoding scheme* (``repro.encoding``) records as node values.  The
:meth:`Document.labeled_nodes` iterator yields exactly the nodes a labelling
scheme must label, in document order — for the Figure 1 sample document that
is the ten nodes of Figure 1(b).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import TreeStructureError


class NodeKind(enum.Enum):
    """The kinds of nodes in the XPath-style tree model."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "processing-instruction"

    @property
    def is_labeled(self) -> bool:
        """Whether labelling schemes assign labels to this node kind."""
        return self is _ELEMENT or self is _ATTRIBUTE


#: Read once: a member lookup on the enum class is a quarter of the cost
#: of constructing a node, and the per-node checks below compare with
#: these by identity.
_ELEMENT = NodeKind.ELEMENT
_ATTRIBUTE = NodeKind.ATTRIBUTE
_TEXT = NodeKind.TEXT


class XMLNode:
    """A single node of an XML tree.

    Nodes are created through :class:`Document` (or the builder on top
    of it; the parser draws ids from the same counter) so that every node
    receives a document-unique integer ``node_id``.  The id is the
    *identity* used throughout the package: labelling schemes map
    ``node_id -> label`` and never hold node references, which keeps
    relabelling and persistence accounting honest.

    ``elements`` is the number of element nodes in the subtree rooted
    here, the node itself included.  :meth:`insert_child` and
    :meth:`remove_child` keep it current along the ancestor chain (the
    parser adds an element's count into its parent when it closes), so a
    node's rank among the document's elements is found from the counts
    on its ancestors' children instead of by listing every element.
    """

    __slots__ = ("node_id", "kind", "name", "value", "parent", "children",
                 "document", "elements")

    def __init__(
        self,
        document: "Document",
        node_id: int,
        kind: NodeKind,
        name: Optional[str] = None,
        value: Optional[str] = None,
    ):
        self.document = document
        self.node_id = node_id
        self.kind = kind
        self.name = name
        self.value = value
        self.parent: Optional[XMLNode] = None
        self.children: List[XMLNode] = []
        self.elements = 1 if kind is _ELEMENT else 0

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def is_element(self) -> bool:
        return self.kind is _ELEMENT

    @property
    def is_attribute(self) -> bool:
        return self.kind is _ATTRIBUTE

    @property
    def is_text(self) -> bool:
        return self.kind is _TEXT

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def depth(self) -> int:
        """Nesting depth; the root element has depth 0.

        This is the ground truth the Level Encoding probe compares scheme
        levels against.
        """
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def ancestors(self) -> Iterator["XMLNode"]:
        """Yield ancestors from the parent upward to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "XMLNode") -> bool:
        """Ground-truth ancestor test by pointer chasing (the oracle)."""
        return any(anc is self for anc in other.ancestors())

    def attributes(self) -> List["XMLNode"]:
        """The attribute children, in document order.

        Attributes precede all content children (the tree refuses any
        other order), so the scan stops at the first content child.
        """
        attributes = []
        for child in self.children:
            if child.kind is not _ATTRIBUTE:
                break
            attributes.append(child)
        return attributes

    def attribute(self, name: str) -> Optional["XMLNode"]:
        """Look up an attribute child by name, or ``None``."""
        for child in self.children:
            if child.kind is not _ATTRIBUTE:
                break
            if child.name == name:
                return child
        return None

    def element_children(self) -> List["XMLNode"]:
        """The element children, in document order."""
        return [child for child in self.children if child.kind is _ELEMENT]

    def labeled_children(self) -> List["XMLNode"]:
        """Children that receive labels (attributes first, then elements)."""
        return [child for child in self.children
                if child.kind is _ELEMENT or child.kind is _ATTRIBUTE]

    def text_value(self) -> str:
        """Concatenated text content of direct text children.

        This is the ``Value`` column of the paper's Figure 2 encoding table.
        """
        return "".join(child.value or "" for child in self.children
                       if child.kind is _TEXT)

    def child_index(self, child: "XMLNode") -> int:
        """Position of ``child`` in this node's child list."""
        for index, candidate in enumerate(self.children):
            if candidate is child:
                return index
        raise TreeStructureError(
            f"node {child.node_id} is not a child of node {self.node_id}"
        )

    def following_siblings(self) -> Iterator["XMLNode"]:
        """Siblings after this node, in document order."""
        if self.parent is None:
            return
        index = self.parent.child_index(self)
        yield from self.parent.children[index + 1 :]

    def preceding_siblings(self) -> Iterator["XMLNode"]:
        """Siblings before this node, in reverse document order."""
        if self.parent is None:
            return
        index = self.parent.child_index(self)
        yield from reversed(self.parent.children[:index])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def preorder(self) -> Iterator["XMLNode"]:
        """Preorder traversal of the subtree rooted here (document order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self) -> Iterator["XMLNode"]:
        """Postorder traversal of the subtree rooted here.

        Over an explicit stack, so depth is not bounded by the recursion
        limit: each entry is a node and the index of its next child.
        """
        stack = [(self, 0)]
        while stack:
            node, index = stack[-1]
            if index < len(node.children):
                stack[-1] = (node, index + 1)
                stack.append((node.children[index], 0))
            else:
                stack.pop()
                yield node

    def descendants(self) -> Iterator["XMLNode"]:
        """All descendants in document order (excludes self)."""
        nodes = self.preorder()
        next(nodes)
        yield from nodes

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        return sum(1 for _ in self.preorder())

    # ------------------------------------------------------------------
    # Mutation (used by the builder and the updates layer)
    # ------------------------------------------------------------------

    def append_child(self, child: "XMLNode") -> "XMLNode":
        """Append ``child`` as the last child of this node."""
        return self.insert_child(len(self.children), child)

    def insert_child(self, index: int, child: "XMLNode") -> "XMLNode":
        """Insert ``child`` at ``index`` in this node's child list."""
        self._validate_new_child(child)
        if index < 0 or index > len(self.children):
            raise TreeStructureError(
                f"child index {index} out of range 0..{len(self.children)}"
            )
        child.parent = self
        self.children.insert(index, child)
        self._check_attribute_ordering(child, index)
        self._add_elements(child.elements)
        if child.kind.is_labeled:
            self.document.note_structural_change()
        undo_log = self.document._undo_log
        if undo_log is not None:
            undo_log.append(("attach", child))
        return child

    def remove_child(self, child: "XMLNode") -> "XMLNode":
        """Detach ``child`` (and its subtree) from this node."""
        index = self.child_index(child)
        del self.children[index]
        child.parent = None
        self._add_elements(-child.elements)
        if child.kind.is_labeled:
            self.document.note_structural_change()
        undo_log = self.document._undo_log
        if undo_log is not None:
            undo_log.append(("detach", child, self, index))
        return child

    def _add_elements(self, count: int) -> None:
        """Add ``count`` to the element counts of this node and its ancestors."""
        node = self
        while count and node is not None:
            node.elements += count
            node = node.parent

    def _validate_new_child(self, child: "XMLNode") -> None:
        if child.document is not self.document:
            raise TreeStructureError("cannot adopt a node from another document")
        if child.parent is not None:
            raise TreeStructureError(
                f"node {child.node_id} already has a parent; detach it first"
            )
        if child is self or child.is_ancestor_of(self):
            raise TreeStructureError("inserting a node under itself creates a cycle")
        if not self.is_element:
            raise TreeStructureError(f"{self.kind.value} nodes cannot have children")

    def _check_attribute_ordering(self, child: "XMLNode", index: int) -> None:
        """Attributes must precede all content children (Figure 1(b) order)."""
        if child.is_attribute:
            bad = any(not sibling.is_attribute for sibling in self.children[:index])
        else:
            bad = any(sibling.is_attribute for sibling in self.children[index + 1 :])
        if bad:
            del self.children[index]
            child.parent = None
            raise TreeStructureError(
                "attribute children must precede content children"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        descriptor = self.name if self.name is not None else (self.value or "")[:20]
        return f"<XMLNode #{self.node_id} {self.kind.value} {descriptor!r}>"


class Document:
    """An XML document: a node factory plus the root element.

    The document is the unit labelling schemes and encodings attach to.  It
    owns the ``node_id`` counter and offers whole-document traversals and
    the ground-truth order/relationship oracles that tests and probes use to
    validate scheme answers.
    """

    def __init__(self):
        self._next_id = itertools.count()
        self.root: Optional[XMLNode] = None
        self._structure_version = 0
        #: The undo log of the open transaction or batch scope on this
        #: tree, if any: :meth:`XMLNode.insert_child` appends
        #: ``("attach", child)`` and :meth:`XMLNode.remove_child`
        #: ``("detach", child, parent, index)`` while it is set.  The
        #: owning :class:`~repro.updates.document.LabeledDocument` sets
        #: and replays it.
        self._undo_log: Optional[list] = None

    @property
    def structure_version(self) -> int:
        """Monotonic counter of structural (labelled-node) mutations.

        Bumped whenever a labelled node is attached to or detached from
        the tree (text/comment/PI churn never moves it), including by a
        rollback, which replays its inverse attaches and detaches
        through the same calls, and by every rename and attribute-value
        update the labelled document performs or undoes (the structural
        index lists nodes by name and attributes by value).  Derived
        indexes stamp themselves with this value so a stale index can
        refuse to answer instead of silently serving results for a shape
        the document no longer has.
        """
        return self._structure_version

    def note_structural_change(self) -> None:
        """Advance the structure version (labelled shape changed)."""
        self._structure_version += 1

    # ------------------------------------------------------------------
    # Node factory
    # ------------------------------------------------------------------

    def new_node(
        self,
        kind: NodeKind,
        name: Optional[str] = None,
        value: Optional[str] = None,
    ) -> XMLNode:
        """Create a detached node owned by this document."""
        if (kind is _ELEMENT or kind is _ATTRIBUTE) and not name:
            raise TreeStructureError(f"{kind.value} nodes require a name")
        return XMLNode(self, next(self._next_id), kind, name, value)

    def new_element(self, name: str) -> XMLNode:
        return self.new_node(NodeKind.ELEMENT, name=name)

    def new_attribute(self, name: str, value: str) -> XMLNode:
        return self.new_node(NodeKind.ATTRIBUTE, name=name, value=value)

    def new_text(self, value: str) -> XMLNode:
        return self.new_node(NodeKind.TEXT, value=value)

    def new_comment(self, value: str) -> XMLNode:
        return self.new_node(NodeKind.COMMENT, value=value)

    def new_processing_instruction(self, target: str, value: str) -> XMLNode:
        return self.new_node(NodeKind.PROCESSING_INSTRUCTION, name=target, value=value)

    def set_root(self, root: XMLNode) -> XMLNode:
        if self.root is not None:
            raise TreeStructureError("document already has a root element")
        if not root.is_element:
            raise TreeStructureError("the document root must be an element")
        self.root = root
        self.note_structural_change()
        return root

    # ------------------------------------------------------------------
    # Whole-document traversal
    # ------------------------------------------------------------------

    def all_nodes(self) -> Iterator[XMLNode]:
        """Every node in document order (including text/comment/PI)."""
        if self.root is None:
            return
        yield from self.root.preorder()

    def labeled_nodes(self) -> Iterator[XMLNode]:
        """The nodes a labelling scheme labels, in document order.

        Elements and attributes only — the paper's section 2.2: "Leaf nodes
        will always contain content values and not structural information
        and are thus considered by the XML encoding scheme and not the
        labelling scheme."

        A lazy walk over an explicit stack onto which only element and
        attribute children are pushed, so no text, comment or PI node
        is visited.
        """
        if self.root is None:
            return
        element, attribute = _ELEMENT, _ATTRIBUTE
        stack = [self.root]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            yield node
            children = node.children
            if children:
                for child in reversed(children):
                    kind = child.kind
                    if kind is element or kind is attribute:
                        push(child)

    def node_by_id(self, node_id: int) -> XMLNode:
        """Linear-scan lookup by id (tests and probes only)."""
        for node in self.all_nodes():
            if node.node_id == node_id:
                return node
        raise TreeStructureError(f"no node with id {node_id} in document")

    def size(self) -> int:
        """Total number of nodes (all kinds)."""
        return sum(1 for _ in self.all_nodes())

    def labeled_size(self) -> int:
        """Number of labelled (element + attribute) nodes."""
        return sum(1 for _ in self.labeled_nodes())

    # ------------------------------------------------------------------
    # Ground-truth oracles
    # ------------------------------------------------------------------

    def document_order_index(self) -> Dict[int, int]:
        """Map node_id -> position in document order over labelled nodes.

        This is the oracle the tests compare scheme ``compare`` answers
        against.
        """
        return {
            node.node_id: position
            for position, node in enumerate(self.labeled_nodes())
        }

    def preorder_postorder_ranks(self) -> Dict[int, tuple]:
        """Map node_id -> (pre, post) ranks over labelled nodes.

        Computes the ranks exactly as section 3.1.1 describes: ``pre`` is
        assigned when a node is first visited, ``post`` after all its
        children have been traversed.  For the Figure 1 sample document the
        result reproduces the labels of Figure 1(b).
        """
        pre_counter = itertools.count()
        post_counter = itertools.count()
        ranks: Dict[int, list] = {}
        # An explicit stack, so document depth is not bounded by the
        # recursion limit: a one-element tuple closes its node.
        stack: list = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if node.__class__ is tuple:
                ranks[node[0].node_id][1] = next(post_counter)
                continue
            if node.kind.is_labeled:
                ranks[node.node_id] = [next(pre_counter), None]
                stack.append((node,))
            stack.extend(reversed(node.children))
        return {node_id: (pre, post) for node_id, (pre, post) in ranks.items()}

    def validate(self) -> None:
        """Check structural invariants; raises TreeStructureError on breakage.

        Verifies parent/child pointer symmetry, unique node ids, that
        attributes precede content children and that every node's
        ``elements`` count equals a recount of its subtree.
        """
        seen_ids = set()
        for node in self.all_nodes():
            if node.node_id in seen_ids:
                raise TreeStructureError(f"duplicate node id {node.node_id}")
            seen_ids.add(node.node_id)
            content_seen = False
            elements = int(node.is_element)
            for child in node.children:
                if child.parent is not node:
                    raise TreeStructureError(
                        f"child {child.node_id} has wrong parent pointer"
                    )
                if child.is_attribute:
                    if content_seen:
                        raise TreeStructureError(
                            f"attribute {child.node_id} follows content children"
                        )
                else:
                    content_seen = True
                elements += child.elements
            if node.elements != elements:
                raise TreeStructureError(
                    f"node {node.node_id} counts {node.elements} elements "
                    f"in its subtree, not {elements}"
                )

    def clone(self) -> "Document":
        """Deep copy preserving node ids (for before/after comparisons)."""
        copy = Document()
        copy._next_id = itertools.count(max(
            (node.node_id for node in self.all_nodes()), default=-1
        ) + 1)

        def clone_node(node: XMLNode) -> XMLNode:
            duplicate = XMLNode(copy, node.node_id, node.kind, node.name, node.value)
            duplicate.elements = node.elements
            return duplicate

        if self.root is not None:
            copy.root = clone_node(self.root)
            # Pairs (original, copy) whose children are still to copy:
            # an explicit stack, so depth is not bounded by recursion.
            stack = [(self.root, copy.root)]
            while stack:
                node, duplicate = stack.pop()
                for child in node.children:
                    child_copy = clone_node(child)
                    child_copy.parent = duplicate
                    duplicate.children.append(child_copy)
                    if child.children:
                        stack.append((child, child_copy))
        return copy


def walk(node: XMLNode, visitor: Callable[[XMLNode, int], None], depth: int = 0) -> None:
    """Call ``visitor(node, depth)`` over the subtree in document order.

    Over an explicit stack, so depth is not bounded by the recursion
    limit.
    """
    stack = [(node, depth)]
    while stack:
        node, depth = stack.pop()
        visitor(node, depth)
        depth += 1
        stack.extend((child, depth) for child in reversed(node.children))
