"""Declarative update operations, for tests and reproducible programs.

A list of :class:`Operation` values describes an update program
abstractly (positions instead of node references), so hypothesis can
generate programs and the same program can be replayed against every
scheme — the backbone of the cross-scheme property tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import UpdateError
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse_fragment
from repro.xmlmodel.tree import XMLNode


class OpKind(enum.Enum):
    """The update operation kinds a program step can take."""

    INSERT_BEFORE = "insert-before"
    INSERT_AFTER = "insert-after"
    APPEND_CHILD = "append-child"
    PREPEND_CHILD = "prepend-child"
    DELETE = "delete"
    SET_TEXT = "set-text"
    RENAME = "rename"


@dataclass(frozen=True)
class Operation:
    """One abstract update step.

    ``target`` selects the node by its position in the current document
    order of *element* nodes (modulo the element count, so any integer is
    valid against any document — convenient for property-based
    generation).  ``name``/``text`` parameterise the mutation.
    """

    kind: OpKind
    target: int
    name: str = "op"
    text: str = ""

    def to_dict(self) -> Dict[str, object]:
        """A plain-JSON form (the write-ahead journal's record body)."""
        return {
            "kind": self.kind.value,
            "target": self.target,
            "name": self.name,
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Operation":
        """Invert :meth:`to_dict` (journal replay)."""
        try:
            kind = OpKind(data["kind"])
            target = int(data["target"])
        except (KeyError, ValueError, TypeError) as error:
            raise UpdateError(f"malformed operation record: {error}") from None
        return cls(
            kind=kind,
            target=target,
            name=str(data.get("name", "op")),
            text=str(data.get("text", "")),
        )


def _element_at(ldoc: LabeledDocument, position: int,
                exclude_root: bool = False) -> Optional[XMLNode]:
    """The element at ``position`` (modulo the count) in document order.

    Descends from the root by the subtree element counts of each level's
    children: O(depth x fan-out), not a listing of every element.
    """
    root = ldoc.document.root
    skip = 1 if exclude_root else 0
    if root is None or root.elements <= skip:
        return None
    rank = position % (root.elements - skip) + skip
    node = root
    while rank:
        rank -= 1  # step past ``node``; ``rank`` now counts into its children
        for child in node.children:
            if rank < child.elements:
                node = child
                break
            rank -= child.elements
        else:
            raise UpdateError(
                f"element counts under node {node.node_id} are out of date"
            )
    return node


def element_position(ldoc: LabeledDocument, node: XMLNode,
                     exclude_root: bool = False) -> int:
    """The position that makes :func:`_element_at` resolve to ``node``.

    The inverse of the positional resolver: transactions use it to
    serialise a node-targeted call as a declarative :class:`Operation`
    that replays onto the same node.  The rank is summed up the ancestor
    chain from the element counts of preceding siblings, in
    O(depth x fan-out).  Raises :class:`~repro.errors.UpdateError` when
    ``node`` is not a targetable element (non-elements, nodes outside
    the document, and the root when ``exclude_root``).
    """
    rank = 0
    child = node
    while child.parent is not None:
        parent = child.parent
        rank += 1  # the parent precedes its whole subtree
        for sibling in parent.children:
            if sibling is child:
                break
            rank += sibling.elements
        child = parent
    if (not node.is_element or child is not ldoc.document.root
            or (exclude_root and node is child)):
        raise UpdateError(
            f"node {node!r} is not a positionally addressable element"
        )
    return rank - 1 if exclude_root else rank


def dispatch_operation(surface, ldoc: LabeledDocument, operation: Operation):
    """Resolve one operation's target and run it against ``surface``.

    ``surface`` is anything exposing the unified update method names —
    ``ldoc.updates`` (immediate) or an open
    :class:`~repro.updates.batch.UpdateBatch` (deferred).  Both callers
    share this single resolver, so a program applied per-operation and
    the same program applied through a batch target the same nodes at
    every step.  Returns the surface's
    :class:`~repro.updates.results.UpdateResult`, or ``None`` when the
    document has no node at the requested position.
    """
    kind = operation.kind
    if kind in (OpKind.INSERT_BEFORE, OpKind.INSERT_AFTER, OpKind.DELETE):
        node = _element_at(ldoc, operation.target, exclude_root=True)
        if node is None:
            return None
        if kind is OpKind.INSERT_BEFORE:
            return surface.insert_before(node, operation.name)
        if kind is OpKind.INSERT_AFTER:
            return surface.insert_after(node, operation.name)
        return surface.delete(node)
    node = _element_at(ldoc, operation.target)
    if node is None:
        return None
    if kind is OpKind.APPEND_CHILD:
        return surface.append_child(node, operation.name)
    if kind is OpKind.PREPEND_CHILD:
        return surface.prepend_child(node, operation.name)
    if kind is OpKind.SET_TEXT:
        return surface.set_text(node, operation.text)
    return surface.rename(node, operation.name)


def apply_operation(ldoc: LabeledDocument, operation: Operation):
    """Execute one operation against the document (no-op if untargetable).

    Returns the :class:`~repro.updates.results.UpdateResult` of the
    resolved operation (``None`` when untargetable).
    """
    return dispatch_operation(ldoc.updates, ldoc, operation)


def apply_program(ldoc: LabeledDocument, program: List[Operation]) -> None:
    """Execute a whole update program in order."""
    for operation in program:
        apply_operation(ldoc, operation)


def adopt_subtree(ldoc: LabeledDocument, parent: XMLNode, index: int,
                  xml_fragment: str) -> XMLNode:
    """Parse an XML fragment and insert it as a subtree at ``index``.

    Convenience wrapper over
    :meth:`~repro.updates.document.LabeledDocument.insert_subtree` for
    textual fragments.
    """
    fragment = parse_fragment(xml_fragment)
    return ldoc.updates.insert_subtree(parent, index, fragment).node
