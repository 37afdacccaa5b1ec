"""The unified update surface: one result type for every mutation.

* :class:`UpdateResult` is the return type of every update — the node,
  its label, and exactly what the operation did to the label space
  (relabels, overflows, deferral, detached nodes).
* :class:`UpdateSurface` is the immediate update API,
  ``ldoc.updates.insert_after(...)``.  The batch engine
  (:mod:`repro.updates.batch`) exposes the same eleven operations,
  deferred, and returns the same objects; both run each structural
  operation through one core on
  :class:`~repro.updates.document.LabeledDocument`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.updates.document import LabeledDocument
    from repro.xmlmodel.tree import XMLNode


@dataclass
class UpdateResult:
    """What one update operation did — node, label and labelling cost.

    ``kind`` is one of ``insert``, ``insert-subtree``, ``delete``,
    ``move`` or ``content``.  ``node`` is the affected node (the new node
    for inserts, the moved node for moves, ``None`` for deletes).
    ``label`` is the node's label — ``None`` while ``deferred`` is true,
    i.e. inside an unapplied :class:`~repro.updates.batch.UpdateBatch`,
    where labels arrive in the deferred pass; the batch fills the field
    in when it applies.  The counter fields mirror
    :class:`~repro.updates.document.UpdateLog` semantics per operation.
    """

    kind: str
    node: Optional["XMLNode"]
    label: Any = None
    labels_assigned: int = 0
    relabeled_nodes: int = 0
    relabel_events: int = 0
    overflow_events: int = 0
    deferred: bool = False
    #: labelled nodes detached by a delete, or detached-and-reattached by
    #: a move (the subtree size the operation touched).
    nodes_detached: int = 0


class UpdateSurface:
    """Immediate update operations on one document.

    Obtained as ``ldoc.updates``; every method mutates the document at
    once and returns an :class:`UpdateResult` describing the labelling
    cost of that one operation.
    """

    __slots__ = ("_ldoc",)

    def __init__(self, ldoc: "LabeledDocument"):
        self._ldoc = ldoc

    # -- insertions -------------------------------------------------------

    def insert_before(self, reference: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element immediately before ``reference``."""
        ldoc = self._ldoc
        return ldoc._do_insert_sibling(ldoc, reference, name, after=False)

    def insert_after(self, reference: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element immediately after ``reference``."""
        ldoc = self._ldoc
        return ldoc._do_insert_sibling(ldoc, reference, name, after=True)

    def append_child(self, parent: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element as the last child of ``parent``."""
        ldoc = self._ldoc
        return ldoc._do_append_child(ldoc, parent, name)

    def prepend_child(self, parent: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element as the first content child of ``parent``."""
        ldoc = self._ldoc
        return ldoc._do_prepend_child(ldoc, parent, name)

    def insert_attribute(self, element: "XMLNode", name: str,
                         value: str) -> UpdateResult:
        """Insert a new attribute (positioned after existing attributes)."""
        ldoc = self._ldoc
        return ldoc._do_insert_attribute(ldoc, element, name, value)

    def insert_subtree(self, parent: "XMLNode", index: int,
                       fragment: "XMLNode") -> UpdateResult:
        """Insert a whole subtree, one node at a time.

        "Subtree insertions may be serialised as a sequence of nodes and
        inserted individually" (section 3.1.2, ORDPATH).  ``fragment``
        may come from another document (for example
        :func:`~repro.xmlmodel.parser.parse_fragment`); its nodes are
        re-created in this document, and the result's ``node`` is the
        new subtree root.
        """
        ldoc = self._ldoc
        return ldoc._do_insert_subtree(ldoc, parent, index, fragment)

    # -- deletion and movement --------------------------------------------

    def delete(self, node: "XMLNode") -> UpdateResult:
        """Remove ``node`` and its subtree; labels of others may react."""
        return self._ldoc._do_delete(node)

    def move(self, node: "XMLNode", new_parent: "XMLNode",
             index: int) -> UpdateResult:
        """Relocate a subtree (XQuery-Update style move).

        Labelling schemes have no "move" primitive — a moved subtree
        occupies a new document-order position, so its labels must be
        newly assigned there (the paper's serialised-subtree treatment
        of section 3.1.2), while nodes outside the subtree keep their
        labels under a persistent scheme.  Implemented as detach +
        re-insert of the same tree nodes, so node identity (ids, text,
        attributes) survives; only labels change.
        """
        ldoc = self._ldoc
        return ldoc._do_move(ldoc, node, new_parent, index)

    # -- content updates --------------------------------------------------

    def set_text(self, element: "XMLNode", text: str) -> UpdateResult:
        """Replace an element's text content (labels untouched)."""
        return self._ldoc._do_set_text(element, text)

    def set_attribute_value(self, attribute: "XMLNode",
                            value: str) -> UpdateResult:
        """Replace an attribute's value (labels untouched)."""
        return self._ldoc._do_set_attribute_value(attribute, value)

    def rename(self, node: "XMLNode", name: str) -> UpdateResult:
        """Rename an element or attribute (labels untouched)."""
        return self._ldoc._do_rename(node, name)
