"""The pre/post plane: Grust's XPath Accelerator region queries.

Section 3.1.1: "the evaluation of a location step on a major XPath axis
(ancestor, descendant, following, preceding) amounts to a rectangular
region query in the pre/post labelled plane".  This module keeps that
historical interface — nodes sorted by preorder rank, binary-searchable
pre bounds, the four major axes as window queries — but the machinery
now lives in the scheme-generic :class:`~repro.axes.accelerator.
AxisAccelerator`; :class:`PrePostPlane` is its PrePost specialisation,
adding only the label arrays that make raw ``(pre, post)`` rectangle
access possible.

The plane is a *static* snapshot (``attach=False``): it labels its own
internal PrePost document and cannot consume another scheme's delta
stream, so after any structural update its queries raise
:class:`~repro.errors.StaleIndexError` until :meth:`refresh` relabels
and rebuilds — an explicit failure where the plane previously served
stale windows silently.  For an index that follows updates by itself,
use :class:`AxisAccelerator` attached to the live document.
"""

from __future__ import annotations

import bisect
from typing import Dict, List

from repro.axes.accelerator import AxisAccelerator
from repro.schemes.containment.prepost import PrePostLabel, PrePostScheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import Document, XMLNode


class PrePostPlane(AxisAccelerator):
    """A queryable pre/post plane over one document."""

    #: EXPLAIN reports plane-backed steps distinctly from the generic
    #: accelerator: a rectangle query in the pre/post plane.
    STRATEGY = "plane"

    def __init__(self, document: Document):
        super().__init__(LabeledDocument(document, PrePostScheme()),
                         attach=False)

    def refresh(self) -> None:
        """Relabel and rebuild after updates (the plane is static)."""
        # Updates may have come through any LabeledDocument over this
        # tree; the internal PrePost labelling is recomputed wholesale
        # (global ranks leave no room for local repair) before the
        # order index and label arrays are rebuilt.
        self.ldoc.relabel_document()
        super().refresh()
        self._labels: List[PrePostLabel] = [
            self.ldoc.label_of(node) for node in self._nodes
        ]
        self._pres: List[int] = [label.pre for label in self._labels]

    # ------------------------------------------------------------------

    def label_of(self, node: XMLNode) -> PrePostLabel:
        self._ensure_current()
        return self._labels[self._position(node)]

    def descendants(self, node: XMLNode) -> List[XMLNode]:
        """Window: the contiguous pre range below v — one slice."""
        return self.evaluate("descendant", node)

    def ancestors(self, node: XMLNode) -> List[XMLNode]:
        """Window: pre < v.pre and post > v.post."""
        return self.evaluate("ancestor", node)

    def following(self, node: XMLNode) -> List[XMLNode]:
        """Window: pre > v.pre and post > v.post.

        Everything after the last descendant — a pure range copy.
        """
        return self.evaluate("following", node)

    def preceding(self, node: XMLNode) -> List[XMLNode]:
        """Window: pre < v.pre and post < v.post."""
        return self.evaluate("preceding", node)

    def window(self, pre_low: int, pre_high: int) -> List[XMLNode]:
        """Raw rectangle access: nodes with pre in [pre_low, pre_high)."""
        self._ensure_current()
        start = bisect.bisect_left(self._pres, pre_low)
        stop = bisect.bisect_left(self._pres, pre_high)
        return self._nodes[start:stop]
