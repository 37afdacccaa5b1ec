"""Name and value lookups over the document's structural index.

An XML repository answers pattern queries from *indexes*, not tree
walks: the name lookup lists an element/attribute name's labelled
occurrences in document order (exactly what the structural joins
consume), and the value lookup finds nodes by text content.  Both read
the document's one :class:`~repro.axes.accelerator.AxisAccelerator`:
the name lookup returns its per-name list (the element index over a
structural index), the value lookup filters its document order, so
they follow every update the index follows, with no copy of their own
to rebuild.  They pair each node with its label, which the structural
joins decide from, so they alone refuse while a batch has pending
(unlabelled) nodes; the index itself answers then.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.axes.accelerator import AxisAccelerator
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

#: Index entries pair a label with its node (the join "payload").
Entry = Tuple[Any, XMLNode]


class DocumentIndexes:
    """Name and value lookups for one document, in document order."""

    def __init__(self, ldoc: LabeledDocument):
        self.ldoc = ldoc

    def refresh(self) -> AxisAccelerator:
        """The document's index, brought up to date.

        Raises :class:`~repro.errors.StaleIndexError` while a batch has
        pending nodes: they are on the index but have no label to pair.
        """
        index = self.ldoc.accelerator()
        batch = self.ldoc._active_batch
        if batch is not None and batch.pending:
            index._refuse_stale(
                "document has a batch with unlabelled pending nodes; "
                "the label lookups refuse (StaleIndexError) until it "
                "applies")
        index.ensure_current()
        return index

    def by_name(self, name: str) -> List[Entry]:
        """Occurrences of ``name``, in document order."""
        labels = self.ldoc.labels
        return [(labels[node.node_id], node)
                for node in self.refresh().named(name)]

    def by_value(self, value: str) -> List[Entry]:
        """Nodes whose (stripped) text or attribute value equals ``value``.

        An empty ``value`` matches nothing.
        """
        if not value:
            return []
        labels = self.ldoc.labels
        return [
            (labels[node.node_id], node) for node in self.refresh().nodes()
            if (node.value if node.is_attribute
                else node.text_value().strip()) == value
        ]
