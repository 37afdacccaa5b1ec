"""Secondary indexes over a labelled document.

An XML repository answers pattern queries from *indexes over labels*,
not tree walks: the name index maps an element/attribute name to its
labelled occurrences in document order (exactly what the structural
joins consume), and the value index finds nodes by text content.
Indexes version themselves against the document's update counters and
rebuild lazily after mutations.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Tuple

from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

#: Index entries pair a label with its node (the join "payload").
Entry = Tuple[Any, XMLNode]


class DocumentIndexes:
    """Lazily maintained name and value indexes for one document."""

    def __init__(self, ldoc: LabeledDocument):
        self.ldoc = ldoc
        self._stamp: Optional[Tuple[int, int, int, int]] = None
        self._by_name: Dict[str, List[Entry]] = {}
        self._by_value: Dict[str, List[Entry]] = {}
        self._accelerator = None

    # ------------------------------------------------------------------

    def _current_stamp(self) -> Tuple[int, int, int, int]:
        # ``rollbacks`` is monotonic and never restored by a rollback.
        # The other counters are: an index built inside a transaction
        # (holding nodes the transaction inserted) is stamped with
        # mid-transaction values, the rollback detaches those nodes and
        # rewinds the counters, and later updates can bring the counters
        # back to the stamp.  Without ``rollbacks`` that index would
        # look current and serve the detached nodes.
        log = self.ldoc.log
        return (
            log.insertions,
            log.deletions,
            log.content_updates,
            log.rollbacks,
        )

    def refresh(self) -> None:
        """Rebuild if any update happened since the last build."""
        stamp = self._current_stamp()
        if stamp == self._stamp:
            return
        by_name: Dict[str, List[Entry]] = {}
        by_value: Dict[str, List[Entry]] = {}
        for node in self.ldoc.document.labeled_nodes():
            entry = (self.ldoc.label_of(node), node)
            by_name.setdefault(node.name, []).append(entry)
            value = (
                node.value if node.is_attribute else node.text_value().strip()
            )
            if value:
                by_value.setdefault(value, []).append(entry)
        self._by_name = by_name
        self._by_value = by_value
        self._stamp = stamp

    def axis_accelerator(self):
        """The document's axis accelerator, built on first use.

        Attached to the document's structural-delta stream, so it stays
        current through per-operation updates by positional splicing and
        over batch consolidations by lazy rebuild — repository XPath
        queries route their axis steps through it.
        """
        if self._accelerator is None:
            from repro.axes.accelerator import AxisAccelerator

            self._accelerator = AxisAccelerator(self.ldoc)
        return self._accelerator

    # ------------------------------------------------------------------

    def by_name(self, name: str) -> List[Entry]:
        """Occurrences of ``name``, in document order."""
        self.refresh()
        return list(self._by_name.get(name, []))

    def by_value(self, value: str) -> List[Entry]:
        """Nodes whose (stripped) text or attribute value equals ``value``."""
        self.refresh()
        return list(self._by_value.get(value, []))

    def names(self) -> List[str]:
        """All indexed names."""
        self.refresh()
        return sorted(self._by_name)

    def cardinality(self, name: str) -> int:
        """Occurrence count for one name (the planner's statistic)."""
        self.refresh()
        return len(self._by_name.get(name, []))

    def document_order(self, entries: List[Entry]) -> List[Entry]:
        """Sort arbitrary entries into document order by label."""
        return sorted(
            entries,
            key=functools.cmp_to_key(
                lambda left, right: self.ldoc.scheme.compare(left[0], right[0])
            ),
        )
