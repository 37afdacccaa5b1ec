"""Document history over persistent labels — section 5.2, as a library.

"A repository that may want to record document history and enable
version control would select a labelling scheme supporting persistent
labels."  :class:`VersionedDocument` is that feature: every commit
freezes the document (text plus the exact label bit-stream, via the
codecs), annotations attach to *labels*, and diffs between revisions are
computed purely in label space.

Under a persistent scheme the guarantees are strong: a label never
changes meaning, so an annotation or diff survives arbitrarily many
edits.  Under a non-persistent scheme the same machinery still works but
honestly reports reassignments — ``label_stability`` counts how many
labels changed owners between two revisions, which is precisely the
property the paper's framework grades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import UpdateError
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse
from repro.xmlmodel.tree import XMLNode


@dataclass(frozen=True)
class Revision:
    """One committed state: message, text, label stream, label->name map.

    ``label_owners`` is keyed by *rendered* label text, so two nodes
    whose labels render identically (LSDX/Com-D collisions) cannot both
    appear; ``collisions`` counts the occluded nodes instead of letting
    the overwrite pass silently.  ``scheme_name`` / ``scheme_config``
    record the scheme the revision was committed under, so
    :meth:`VersionedDocument.checkout` rebuilds an identically
    configured scheme rather than a same-named default.
    """

    number: int
    message: str
    xml: str
    label_stream: bytes
    #: Rendered label -> (node name, node id) at commit time.
    label_owners: Dict[str, Tuple[str, int]]
    scheme_name: str = ""
    scheme_config: Dict[str, Any] = field(default_factory=dict)
    #: Labelled nodes whose rendered label duplicated an earlier node's.
    collisions: int = 0


@dataclass
class Annotation:
    """A note attached to a node *via its label*."""

    label_text: str
    note: str
    revision: int
    node_id: int


@dataclass(frozen=True)
class RevisionDiff:
    """Label-space difference between two revisions."""

    added: List[str]
    removed: List[str]
    reassigned: List[str] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        """True iff no surviving label changed owners."""
        return not self.reassigned


class VersionedDocument:
    """A labelled document with commit history and label annotations."""

    def __init__(self, ldoc: LabeledDocument):
        self.ldoc = ldoc
        self.revisions: List[Revision] = []
        self.annotations: List[Annotation] = []
        self.commit("initial import")

    @classmethod
    def from_xml(cls, xml: str, scheme: str = "cdqs") -> "VersionedDocument":
        return cls(LabeledDocument(parse(xml), make_scheme(scheme)))

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------

    def commit(self, message: str) -> Revision:
        """Freeze the current state as a new revision.

        Duplicate rendered labels (schemes whose grading tests document
        collisions, e.g. LSDX after certain insertion patterns) are
        detected rather than silently overwritten: the *first* owner of
        a rendered label keeps it, and every occluded later node is
        counted in ``Revision.collisions``.
        """
        # Imported here: repro.store imports repro.updates.
        from repro.store.snapshots import snapshot_document

        number = len(self.revisions)
        snapshot = snapshot_document(self.ldoc, f"r{number}")
        owners: Dict[str, Tuple[str, int]] = {}
        collisions = 0
        for node in self.ldoc.document.labeled_nodes():
            rendered = self.ldoc.format_label(node)
            if rendered in owners:
                collisions += 1
                continue
            owners[rendered] = (node.name, node.node_id)
        revision = Revision(
            number=number,
            message=message,
            xml=snapshot.xml,
            label_stream=snapshot.label_stream,
            label_owners=owners,
            scheme_name=snapshot.scheme_name,
            scheme_config=snapshot.scheme_config,
            collisions=collisions,
        )
        self.revisions.append(revision)
        return revision

    def revision(self, number: int) -> Revision:
        try:
            return self.revisions[number]
        except IndexError:
            raise UpdateError(f"no revision {number}") from None

    @property
    def head(self) -> Revision:
        return self.revisions[-1]

    def checkout(self, number: int) -> LabeledDocument:
        """Materialise a past revision as a fresh labelled document.

        Restored as a snapshot is: a label stream that does not fit the
        revision's text raises
        :class:`~repro.errors.SnapshotMismatchError`.
        """
        from repro.store.snapshots import Snapshot, restore_snapshot

        revision = self.revision(number)
        return restore_snapshot(Snapshot(
            name=f"r{revision.number}",
            scheme_name=revision.scheme_name,
            xml=revision.xml,
            label_stream=revision.label_stream,
            scheme_config=revision.scheme_config,
        ))

    # ------------------------------------------------------------------
    # Annotations (label-keyed, the section 5.2 use case)
    # ------------------------------------------------------------------

    def annotate(self, node: XMLNode, note: str) -> Annotation:
        annotation = Annotation(
            label_text=self.ldoc.format_label(node),
            note=note,
            revision=self.head.number,
            node_id=node.node_id,
        )
        self.annotations.append(annotation)
        return annotation

    def resolve_annotation(self, annotation: Annotation) -> Optional[XMLNode]:
        """The node the annotation's label denotes *now* (or None).

        Under a persistent scheme this is always the original node;
        under a shifting scheme it may be a different node — corrupted
        history, which the caller can detect via ``node_id``.
        """
        for node in self.ldoc.document.labeled_nodes():
            if self.ldoc.format_label(node) == annotation.label_text:
                return node
        return None

    def annotation_integrity(self) -> Tuple[int, int]:
        """(intact, corrupted-or-lost) counts over all annotations."""
        intact = 0
        broken = 0
        for annotation in self.annotations:
            node = self.resolve_annotation(annotation)
            if node is not None and node.node_id == annotation.node_id:
                intact += 1
            else:
                broken += 1
        return intact, broken

    # ------------------------------------------------------------------
    # Diffs
    # ------------------------------------------------------------------

    def diff(self, older: int, newer: int) -> RevisionDiff:
        """Label-space diff: which labels appeared, vanished, or moved."""
        old = self.revision(older).label_owners
        new = self.revision(newer).label_owners
        added = sorted(set(new) - set(old))
        removed = sorted(set(old) - set(new))
        reassigned = sorted(
            label
            for label in set(old) & set(new)
            if old[label][1] != new[label][1]
        )
        return RevisionDiff(added=added, removed=removed,
                            reassigned=reassigned)

    def label_stability(self, older: int = 0,
                        newer: Optional[int] = None) -> int:
        """How many surviving labels changed owners between revisions."""
        target = self.head.number if newer is None else newer
        return len(self.diff(older, target).reassigned)

    def history(self) -> List[str]:
        """One line per revision."""
        return [
            f"r{revision.number}: {revision.message} "
            f"({len(revision.label_owners)} nodes)"
            for revision in self.revisions
        ]
