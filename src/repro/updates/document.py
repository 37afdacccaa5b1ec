"""LabeledDocument: a document, a labelling scheme, and their contract.

This is the package's central runtime object.  It owns the
``node_id -> label`` map, routes every structural update through the
scheme's insertion primitive, applies any relabelling the scheme reports,
and keeps the books the evaluation framework reads:

* ``relabeled_nodes`` / ``relabel_events`` — the Persistent Labels
  evidence;
* ``overflow_events`` — the section 4 overflow problem;
* ``collisions`` — duplicate labels (the LSDX defect [19]);
* label storage totals — the Compact Encoding measurements.

Content updates (text, attribute values, renames) never touch labels —
the paper's structural/content distinction from section 3.1.  Renames
and attribute-value updates still publish deltas, because the
structural index lists nodes by name and attribute values by value.

The document has no public mutators.  Its ``_do_*`` cores are the one
implementation of each operation behind the three update surfaces:
``ldoc.updates`` (immediate), ``ldoc.batch()`` (deferred labelling) and
``ldoc.transaction()`` (journaled).

While a transaction, a batch or a manual
:class:`~repro.durability.transactions.UndoRecord` is open, every change
also appends its inverse to the document's undo log: the old value of
each label and label-index key written, each tree attach and detach
(recorded by the tree itself), the old text children, name or value of
a content update, and the old label map and index objects when a batch
replaces them whole.  An undo record is a savepoint in that log;
rolling back replays it newest first, so capture and rollback cost
what the scope changed, not what the document holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import BatchError, LabelCollisionError, UpdateError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.schemes.base import LabelingScheme, SiblingInsertContext
from repro.updates.results import UpdateResult, UpdateSurface
from repro.xmlmodel.tree import Document, NodeKind, XMLNode

#: Undo-log value for "this key was absent before the write".
_ABSENT = object()


@dataclass
class StructuralDelta:
    """One published structural change, as consumed by derived indexes.

    ``kind`` is one of:

    * ``"insert"`` — ``node``, an element or attribute, was just
      attached (and labelled, unless a batch deferred its label; its
      descendants, if any in the tree, are not published yet — subtree
      grafts and moves publish one insert per node, in preorder);
    * ``"delete"`` — the subtree rooted at ``node`` was detached from
      ``old_parent`` (it is intact, only cut off from the tree);
    * ``"rename"`` — ``node``, called ``old_name`` until now, took its
      current name;
    * ``"value"`` — the attribute ``node``, valued ``old_value`` until
      now, took its current value.

    A rollback publishes the inverse ``insert``, ``delete``, ``rename``
    and ``value`` deltas of what it undoes.  ``structure_version`` is the
    document's
    :attr:`~repro.xmlmodel.tree.Document.structure_version` at publish
    time — subscribers stamp themselves with it after consuming the
    delta.

    A relabelling publishes nothing, a batch's consolidated pass and
    its rollback included: it moves no node, so no order-based index
    depends on it.
    """

    kind: str
    node: XMLNode
    old_name: Optional[str] = None
    old_value: Optional[str] = None
    old_parent: Optional[XMLNode] = None
    structure_version: int = 0


@dataclass
class UpdateLog:
    """Running totals of update activity and its labelling cost.

    Every increment is mirrored into the global metrics registry under
    ``updates.*`` (insertions, relabel_events, ...), so whole-process
    totals across many documents are observable from one place; the
    per-document fields stay authoritative for the evaluation framework
    and are the only state :meth:`reset` touches.
    """

    insertions: int = 0
    deletions: int = 0
    content_updates: int = 0
    relabeled_nodes: int = 0
    relabel_events: int = 0
    overflow_events: int = 0
    collisions: int = 0
    #: Monotonic: counts transaction/batch rollbacks and is *not*
    #: restored by them.
    rollbacks: int = 0

    def __post_init__(self):
        registry = get_registry()
        self._metrics = {
            name: registry.counter(f"updates.{name}")
            for name in (
                "insertions", "deletions", "content_updates",
                "relabeled_nodes", "relabel_events", "overflow_events",
                "collisions", "rollbacks",
            )
        }

    def record(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to one named counter (and its global mirror)."""
        setattr(self, counter, getattr(self, counter) + amount)
        self._metrics[counter].value += amount

    def reset(self) -> None:
        self.insertions = 0
        self.deletions = 0
        self.content_updates = 0
        self.relabeled_nodes = 0
        self.relabel_events = 0
        self.overflow_events = 0
        self.collisions = 0
        self.rollbacks = 0


class LabeledDocument:
    """A document labelled by one scheme, with dynamic update support.

    ``on_collision`` controls what happens when a scheme produces a label
    that already exists (LSDX's corner cases): ``"raise"`` (default)
    raises :class:`LabelCollisionError`, ``"record"`` only counts it —
    the probes use the latter to *measure* the defect.
    """

    def __init__(self, document: Document, scheme: LabelingScheme,
                 on_collision: str = "raise"):
        if on_collision not in ("raise", "record"):
            raise UpdateError("on_collision must be 'raise' or 'record'")
        self.document = document
        self.scheme = scheme
        self.on_collision = on_collision
        self.log = UpdateLog()
        self.labels: Dict[int, Any] = scheme.label_tree(document)
        self._label_index: Dict[Any, int] = {}
        self._active_batch = None
        self._active_txn = None
        self._delta_listeners: List[Any] = []
        self._accelerator = None
        self.last_batch_result = None
        self._undo_log: Optional[List[tuple]] = None
        self._undo_scopes: List[tuple] = []
        self._rebuild_label_index()

    @classmethod
    def from_labels(cls, document: Document, scheme: LabelingScheme,  # repro: noqa[REP009] fresh document; no subscribers yet
                    labels: Dict[int, Any],
                    on_collision: str = "raise") -> "LabeledDocument":
        """Attach precomputed labels (snapshot restore) instead of
        relabelling — persistent schemes round-trip bit-identically."""
        instance = cls.__new__(cls)
        if on_collision not in ("raise", "record"):
            raise UpdateError("on_collision must be 'raise' or 'record'")
        instance.document = document
        instance.scheme = scheme
        instance.on_collision = on_collision
        instance.log = UpdateLog()
        instance.labels = dict(labels)
        instance._label_index = {}
        instance._active_batch = None
        instance._active_txn = None
        instance._delta_listeners = []
        instance._accelerator = None
        instance.last_batch_result = None
        instance._undo_log = None
        instance._undo_scopes = []
        instance._rebuild_label_index()
        return instance

    # ------------------------------------------------------------------
    # Structural delta stream (derived-index maintenance)
    # ------------------------------------------------------------------

    def subscribe_deltas(self, listener: Any) -> None:
        """Attach a structural-delta subscriber.

        ``listener.apply_delta(delta)`` is called with a
        :class:`StructuralDelta` after every structural mutation this
        document performs — the axis accelerator consumes the stream to
        stay current without rebuilding.  Subscribers see deltas in the
        order the mutations happened.
        """
        if listener not in self._delta_listeners:
            self._delta_listeners.append(listener)

    def unsubscribe_deltas(self, listener: Any) -> None:
        """Detach a previously subscribed delta listener (idempotent)."""
        if listener in self._delta_listeners:
            self._delta_listeners.remove(listener)

    def _publish(self, delta: StructuralDelta) -> None:
        delta.structure_version = self.document.structure_version
        for listener in list(self._delta_listeners):
            listener.apply_delta(delta)

    def _publish_insert(self, node: XMLNode) -> None:
        if self._delta_listeners:
            self._publish(StructuralDelta(kind="insert", node=node))

    def _publish_delete(self, node: XMLNode, old_parent: XMLNode) -> None:
        if self._delta_listeners:
            self._publish(StructuralDelta(kind="delete", node=node,
                                          old_parent=old_parent))

    def _publish_rename(self, node: XMLNode, old_name: str) -> None:
        if self._delta_listeners:
            self._publish(StructuralDelta(kind="rename", node=node,
                                          old_name=old_name))

    def _publish_value(self, node: XMLNode, old_value: str) -> None:
        if self._delta_listeners:
            self._publish(StructuralDelta(kind="value", node=node,
                                          old_value=old_value))

    def accelerator(self) -> "Any":
        """The document's structural index, created on first use.

        One :class:`~repro.axes.accelerator.AxisAccelerator` per
        document answers every structural read — XPath, EXPLAIN, the
        repository's name and value lookups and joins.  It subscribes
        to this document's delta stream and builds at its first query.
        """
        if self._accelerator is None:
            from repro.axes.accelerator import AxisAccelerator

            self._accelerator = AxisAccelerator(self)
        return self._accelerator

    # ------------------------------------------------------------------
    # The unified update surface
    # ------------------------------------------------------------------

    @property
    def updates(self) -> UpdateSurface:
        """The immediate update API.

        Every method mutates the document at once and returns an
        :class:`~repro.updates.results.UpdateResult` describing the
        labelling cost of that one operation::

            result = ldoc.updates.insert_after(ref, "name")
            result.node, result.label, result.relabeled_nodes
        """
        return UpdateSurface(self)

    def batch(self) -> "Any":
        """Open an :class:`~repro.updates.batch.UpdateBatch` on this document.

        Usable directly or as a context manager (applied on exit)::

            with ldoc.batch() as batch:
                batch.append_child(parent, "entry")
            ldoc.last_batch_result  # the BatchResult
        """
        from repro.updates.batch import UpdateBatch

        return UpdateBatch(self)

    def transaction(self, journal: Any = None) -> "Any":
        """Open an atomic :class:`~repro.durability.transactions.Transaction`.

        A clean exit commits; any exception undoes the scope's changes
        to the tree, labels, label index and log counters.  Pass a
        :class:`~repro.durability.journal.Journal` to write-ahead-log
        the operations issued through the transaction surface for crash
        recovery::

            with ldoc.transaction() as txn:
                txn.append_child(parent, "entry")
        """
        from repro.durability.transactions import Transaction

        return Transaction(self, journal=journal)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def label_of(self, node: XMLNode) -> Any:
        return self.labels[node.node_id]

    def format_label(self, node: XMLNode) -> str:
        return self.scheme.format_label(self.labels[node.node_id])

    def node_by_label(self, label: Any) -> XMLNode:
        node_id = self._label_index.get(label)
        if node_id is None:
            raise UpdateError(f"no node labelled {label!r}")
        return self.document.node_by_id(node_id)

    def labels_in_document_order(self) -> List[Any]:
        return [self.labels[node.node_id] for node in self.document.labeled_nodes()]

    # ------------------------------------------------------------------
    # Structural updates (the one core per operation)
    #
    # ``ldoc.updates`` and an open ``UpdateBatch`` both run these; the
    # ``labeller`` argument is whichever of the two labels new nodes:
    # the document itself (label now, relabelling if the scheme must)
    # or the batch (label on the fast path, or defer to its final pass).
    # ------------------------------------------------------------------

    def _do_insert_sibling(self, labeller: Any, reference: XMLNode,
                           name: str, after: bool) -> UpdateResult:
        parent = self._parent_of(reference)
        index = parent.child_index(reference) + (1 if after else 0)
        element = self.document.new_element(name)
        parent.insert_child(index, element)
        return labeller._label_node(element)

    def _do_append_child(self, labeller: Any, parent: XMLNode,
                         name: str) -> UpdateResult:
        element = self.document.new_element(name)
        parent.append_child(element)
        return labeller._label_node(element)

    def _do_prepend_child(self, labeller: Any, parent: XMLNode,
                          name: str) -> UpdateResult:
        element = self.document.new_element(name)
        parent.insert_child(len(parent.attributes()), element)
        return labeller._label_node(element)

    def _do_insert_attribute(self, labeller: Any, element: XMLNode,
                             name: str, value: str) -> UpdateResult:
        _refuse_duplicate_attribute(element, name)
        attribute = self.document.new_attribute(name, value)
        element.insert_child(len(element.attributes()), attribute)
        return labeller._label_node(attribute)

    def _do_insert_subtree(self, labeller: Any, parent: XMLNode, index: int,
                           fragment: XMLNode) -> UpdateResult:
        with instrument("document.insert_subtree",
                        scheme=self.scheme.metadata.name) as event:
            root_copy = self._copy_shallow(fragment)
            parent.insert_child(index, root_copy)
            combined = labeller._label_node(root_copy)
            combined.kind = "insert-subtree"
            self._insert_children_of(labeller, fragment, root_copy, combined)
            event.set(nodes=combined.labels_assigned)
        return combined

    def _insert_children_of(self, labeller: Any, source: XMLNode,
                            target: XMLNode, combined: UpdateResult) -> None:
        for child in source.children:
            child_copy = self._copy_shallow(child)
            target.append_child(child_copy)
            if child_copy.kind.is_labeled:
                _accumulate(combined, labeller._label_node(child_copy))
            self._insert_children_of(labeller, child, child_copy, combined)

    def _copy_shallow(self, node: XMLNode) -> XMLNode:
        return self.document.new_node(node.kind, node.name, node.value)

    def _do_delete(self, node: XMLNode) -> UpdateResult:
        with instrument("document.delete",
                        scheme=self.scheme.metadata.name) as event:
            parent = self._parent_of(node)
            removed_ids = [
                child.node_id for child in node.preorder()
                if child.kind.is_labeled
            ]
            parent.remove_child(node)
            self.log.record("deletions")
            relabeled = self.scheme.on_delete(
                self.document, self.labels, node.node_id
            )
            self._drop_labels(removed_ids)
            self._publish_delete(node, parent)
            result = UpdateResult(kind="delete", node=None,
                                  nodes_detached=len(removed_ids))
            if relabeled:
                self._apply_relabeling(relabeled)
                result.relabeled_nodes = len(relabeled)
                result.relabel_events = 1
            event.set(nodes=result.nodes_detached,
                      relabeled_nodes=result.relabeled_nodes)
        return result

    def _do_move(self, labeller: Any, node: XMLNode, new_parent: XMLNode,
                 index: int) -> UpdateResult:
        if node.parent is None:
            raise UpdateError("the root element cannot be moved")
        if node is new_parent or node.is_ancestor_of(new_parent):
            raise UpdateError("cannot move a node under itself")
        with instrument("document.move",
                        scheme=self.scheme.metadata.name) as event:
            old_parent = node.parent
            moved_ids = [
                child.node_id for child in node.preorder()
                if child.kind.is_labeled
            ]
            old_parent.remove_child(node)
            relabeled = self.scheme.on_delete(
                self.document, self.labels, node.node_id
            )
            self._drop_labels(moved_ids)
            self._publish_delete(node, old_parent)
            combined = UpdateResult(kind="move", node=node,
                                    nodes_detached=len(moved_ids))
            if relabeled:
                self._apply_relabeling(relabeled)
                combined.relabeled_nodes += len(relabeled)
                combined.relabel_events += 1
            new_parent.insert_child(index, node)
            for child in node.preorder():
                if not child.kind.is_labeled:
                    continue
                if child.node_id in self.labels:
                    # A relabelling run by an earlier node of this
                    # subtree labelled it already (a full relabel
                    # covers the whole tree); it is placed, not new.
                    self._publish_insert(child)
                else:
                    _accumulate(combined, labeller._label_node(child))
            combined.label = self.labels.get(node.node_id)
            event.set(nodes=combined.nodes_detached,
                      relabeled_nodes=combined.relabeled_nodes)
        return combined

    # ------------------------------------------------------------------
    # Content updates (labels untouched — section 3.1)
    # ------------------------------------------------------------------

    def _do_set_text(self, element: XMLNode, text: str) -> UpdateResult:
        if not element.is_element:
            raise UpdateError("set_text targets element nodes")
        if self._undo_log is not None:
            # The list object itself: set_text installs a new one.
            self._undo_log.append(("children", element, element.children))
        element.children = [
            child for child in element.children if not child.is_text
        ]
        if text:
            element.append_child(self.document.new_text(text))
        self.log.record("content_updates")
        return UpdateResult(kind="content", node=element,
                            label=self.labels.get(element.node_id))

    def _do_set_attribute_value(self, attribute: XMLNode,
                                value: str) -> UpdateResult:
        if not attribute.is_attribute:
            raise UpdateError("set_attribute_value targets attribute nodes")
        old_value = attribute.value
        if self._undo_log is not None:
            self._undo_log.append(("value", attribute, old_value))
        attribute.value = value
        # The index lists attributes by value: an index that misses this
        # must see its stamp fall behind.
        self.document.note_structural_change()
        self._publish_value(attribute, old_value)
        self.log.record("content_updates")
        return UpdateResult(kind="content", node=attribute,
                            label=self.labels.get(attribute.node_id))

    def _do_rename(self, node: XMLNode, name: str) -> UpdateResult:
        if not node.kind.is_labeled:
            raise UpdateError("rename targets element or attribute nodes")
        if (node.is_attribute and node.parent is not None
                and name != node.name):
            _refuse_duplicate_attribute(node.parent, name)
        old_name = node.name
        if self._undo_log is not None:
            self._undo_log.append(("name", node, old_name))
        node.name = name
        # The index lists nodes by name: an index that misses this must
        # see its stamp fall behind.
        self.document.note_structural_change()
        self._publish_rename(node, old_name)
        self.log.record("content_updates")
        return UpdateResult(kind="content", node=node,
                            label=self.labels.get(node.node_id))

    # ------------------------------------------------------------------
    # Integrity and accounting
    # ------------------------------------------------------------------

    def verify_order(self) -> None:
        """Assert labels sort exactly into document order, without dupes.

        This is Definition 1 as an executable invariant; the property
        tests run it after every randomised update program.
        """
        if self._active_batch is not None and self._active_batch.pending:
            raise BatchError(
                "cannot verify order while a batch has unapplied operations"
            )
        in_order = self.labels_in_document_order()
        if len(set(self._hashable(label) for label in in_order)) != len(in_order):
            raise LabelCollisionError("duplicate labels in document")
        ordered = sorted(
            in_order, key=functools.cmp_to_key(self.scheme.compare)
        )
        if ordered != in_order:
            raise UpdateError(
                f"{self.scheme.metadata.name} labels disagree with document order"
            )

    def total_label_bits(self) -> int:
        """Total storage of all labels (the Compact Encoding measure)."""
        return sum(
            self.scheme.label_size_bits(label) for label in self.labels.values()
        )

    def max_label_bits(self) -> int:
        """The largest single label (skewed-growth experiments)."""
        return max(
            (self.scheme.label_size_bits(label) for label in self.labels.values()),
            default=0,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _parent_of(self, node: XMLNode) -> XMLNode:
        if node.parent is None:
            raise UpdateError("the root element cannot have siblings")
        return node.parent

    def _label_node(self, node: XMLNode) -> UpdateResult:
        # The document as labeller: label ``node`` now.  The hottest call
        # in the package: every immediately inserted node passes through
        # here.  A live event also feeds the per-scheme
        # label-size profile.
        scheme_name = self.scheme.metadata.name
        with instrument("document.insert", scheme=scheme_name) as event:
            context = self._insert_context_for(node)
            outcome = self.scheme.insert_sibling(context)
            self.log.record("insertions")
            result = UpdateResult(kind="insert", node=node,
                                  labels_assigned=1)
            if outcome.overflowed:
                self.log.record("overflow_events")
                result.overflow_events = 1
            if outcome.relabeled:
                self._apply_relabeling(outcome.relabeled,
                                       overflowed=outcome.overflowed)
                result.relabeled_nodes = len(outcome.relabeled)
                result.relabel_events = 1
            self._assign(node.node_id, outcome.label)
            self._publish_insert(node)
            result.label = outcome.label
            if event:
                event.set(nodes=1 + result.relabeled_nodes,
                          relabeled_nodes=result.relabeled_nodes,
                          overflow=bool(result.overflow_events))
                if outcome.label is not None:
                    get_registry().histogram(
                        f"scheme.{scheme_name}.label_bits"
                    ).observe(self.scheme.label_size_bits(outcome.label))
        return result

    def _insert_context_for(self, node: XMLNode) -> SiblingInsertContext:
        """The scheme-facing context labelling ``node`` where it stands."""
        parent = node.parent
        # Siblings without labels yet (later nodes of a subtree being
        # moved or grafted in preorder, or batch-deferred insertions) are
        # invisible to the insertion: the new node is positioned among
        # the already-labelled ones, its nearest labelled neighbours.
        siblings = parent.children
        labels = self.labels
        slot = siblings.index(node)
        left = right = None
        for index in range(slot - 1, -1, -1):
            if siblings[index].node_id in labels:
                left = siblings[index].node_id
                break
        for index in range(slot + 1, len(siblings)):
            if siblings[index].node_id in labels:
                right = siblings[index].node_id
                break
        return SiblingInsertContext(
            document=self.document,
            labels=labels,
            parent=parent,
            parent_id=parent.node_id,
            left_id=left,
            right_id=right,
            new_id=node.node_id,
        )

    def _apply_relabeling(self, relabeled: Dict[int, Any],
                          overflowed: bool = False) -> None:
        from repro.durability.faults import maybe_fail

        scheme_name = self.scheme.metadata.name
        with instrument("document.relabel", scheme=scheme_name,
                        nodes=len(relabeled), overflow=overflowed) as event:
            self.log.record("relabel_events")
            self.log.record("relabeled_nodes", len(relabeled))
            for node_id, label in relabeled.items():
                maybe_fail("document.relabel")
                old = self.labels.get(node_id)
                if old is not None:
                    self._unindex(node_id, old)
                self._set_label(node_id, label)
            for node_id, label in relabeled.items():
                self._index(node_id, label)
        if event:
            get_registry().histogram(
                f"scheme.{scheme_name}.relabel_extent"
            ).observe(len(relabeled))

    def _assign(self, node_id: int, label: Any) -> None:
        key = self._hashable(label)
        if self._collides(key, node_id):
            self._set_label(node_id, label)  # keep state observable
            raise LabelCollisionError(
                f"{self.scheme.metadata.name} assigned duplicate label "
                f"{self.scheme.format_label(label)!r} to nodes "
                f"{self._label_index[key]} and {node_id}"
            )
        self._set_label(node_id, label)
        self._set_index(key, node_id)

    def _index(self, node_id: int, label: Any) -> None:
        key = self._hashable(label)
        if self._collides(key, node_id):
            raise LabelCollisionError(
                f"{self.scheme.metadata.name} relabelled node {node_id} "
                f"onto an existing label"
            )
        self._set_index(key, node_id)

    def _collides(self, key: Any, node_id: int) -> bool:
        """Count a collision if ``key`` indexes another node; True if fatal."""
        existing = self._label_index.get(key)
        if existing is None or existing == node_id:
            return False
        self.log.record("collisions")
        return self.on_collision == "raise"

    def _rebuild_label_index(self) -> None:
        # A fresh dict, filled without undo entries: every rebuild inside
        # a scope follows _replace_labels, whose entry keeps the old index.
        self._label_index = {}
        for node_id, label in self.labels.items():
            key = self._hashable(label)
            if self._collides(key, node_id):
                raise LabelCollisionError(
                    f"{self.scheme.metadata.name} relabelled node {node_id} "
                    f"onto an existing label"
                )
            self._label_index[key] = node_id

    @staticmethod
    def _hashable(label: Any) -> Any:
        return label

    # ------------------------------------------------------------------
    # Label writes (each logs its inverse while an undo scope is open)
    # ------------------------------------------------------------------

    def _set_label(self, node_id: int, label: Any) -> None:
        if self._undo_log is not None:
            self._undo_log.append(
                ("label", node_id, self.labels.get(node_id, _ABSENT))
            )
        self.labels[node_id] = label

    def _set_index(self, key: Any, node_id: int) -> None:
        if self._undo_log is not None:
            self._undo_log.append(
                ("index", key, self._label_index.get(key, _ABSENT))
            )
        self._label_index[key] = node_id

    def _unindex(self, node_id: int, label: Any) -> None:
        """Drop ``label``'s index entry if it still names ``node_id``."""
        key = self._hashable(label)
        if self._label_index.get(key) == node_id:
            if self._undo_log is not None:
                self._undo_log.append(("index", key, node_id))
            del self._label_index[key]

    def _drop_labels(self, node_ids: List[int]) -> None:
        """Unlabel detached nodes: their labels and index entries go."""
        for node_id in node_ids:
            label = self.labels.pop(node_id, None)
            if label is None:
                continue
            if self._undo_log is not None:
                self._undo_log.append(("label", node_id, label))
            self._unindex(node_id, label)

    def _replace_labels(self, labels: Dict[int, Any]) -> None:
        """Install a whole new label map; the caller rebuilds the index.

        One undo entry keeps the old map and index objects, so a
        rollback restores both without logging the rebuild key by key.
        """
        if self._undo_log is not None:
            self._undo_log.append(("labels", self.labels, self._label_index))
        self.labels = labels

    # ------------------------------------------------------------------
    # Undo scopes (UndoRecord savepoints) and rollback
    # ------------------------------------------------------------------

    def _open_undo_scope(self, scope: Any) -> None:
        """Start logging (if not already) and mark ``scope``'s savepoint."""
        if self._undo_log is None:
            self._undo_log = []
            self.document._undo_log = self._undo_log
        self._undo_scopes.append((scope, len(self._undo_log)))

    def _close_undo_scope(self, scope: Any, rollback: bool) -> bool:
        """Close ``scope``, with ``rollback`` after replaying its changes.

        A rollback replays the log back to ``scope``'s savepoint and so
        also closes every scope opened after it.  Closing the last open
        scope drops the log.  Returns False (doing nothing) if ``scope``
        is not open.
        """
        scopes = self._undo_scopes
        for depth, (candidate, savepoint) in enumerate(scopes):
            if candidate is scope:
                break
        else:
            return False
        if rollback:
            self._rollback_to(savepoint)
            del scopes[depth:]
        else:
            del scopes[depth]
        if not scopes:
            self._undo_log = None
            self.document._undo_log = None
        return True

    def _rollback_to(self, savepoint: int) -> None:
        """Undo every logged change after ``savepoint``, newest first.

        Tree entries replay through ``insert_child``/``remove_child``
        (so ``structure_version`` only moves forward) and publish the
        inverse ``insert``/``delete`` deltas; the node objects put back
        are the ones removed, so references held across the rollback
        stay valid; an undone rename or attribute-value update publishes
        the inverse ``rename`` or ``value``.
        Undoing a whole-map replacement publishes nothing: the attach
        and detach entries around it already publish every move.
        """
        log = self._undo_log
        self.document._undo_log = None  # the replay must not log itself
        try:
            while len(log) > savepoint:
                entry = log.pop()
                tag = entry[0]
                if tag == "label":
                    _tag, node_id, old = entry
                    if old is _ABSENT:
                        self.labels.pop(node_id, None)
                    else:
                        self.labels[node_id] = old
                elif tag == "index":
                    _tag, key, old = entry
                    if old is _ABSENT:
                        self._label_index.pop(key, None)
                    else:
                        self._label_index[key] = old
                elif tag == "attach":
                    self._undo_attach(entry[1])
                elif tag == "detach":
                    _tag, node, parent, index = entry
                    self._undo_detach(node, parent, index)
                elif tag == "children":
                    _tag, element, children = entry
                    for child in children:
                        child.parent = element
                    element.children = children
                elif tag == "name":
                    _tag, node, name = entry
                    renamed_from, node.name = node.name, name
                    self.document.note_structural_change()
                    self._publish_rename(node, renamed_from)
                elif tag == "value":
                    _tag, node, value = entry
                    valued_from, node.value = node.value, value
                    self.document.note_structural_change()
                    self._publish_value(node, valued_from)
                else:  # "labels": positions do not depend on labels
                    self.labels, self._label_index = entry[1], entry[2]
        finally:
            self.document._undo_log = log

    def _undo_attach(self, node: XMLNode) -> None:
        parent = node.parent
        parent.remove_child(node)
        if node.kind.is_labeled:
            self._publish_delete(node, parent)

    def _undo_detach(self, node: XMLNode, parent: XMLNode,
                     index: int) -> None:
        parent.insert_child(index, node)
        if node.kind.is_labeled and self._delta_listeners:
            for child in node.preorder():
                if child.kind.is_labeled:
                    self._publish_insert(child)


def _refuse_duplicate_attribute(element: XMLNode, name: str) -> None:
    """Refuse a second attribute called ``name`` on ``element``: the
    serialized document would repeat it, which no parser accepts."""
    if element.attribute(name) is not None:
        raise UpdateError(
            f"element {element.name!r} already has an attribute {name!r}"
        )


def _accumulate(combined: UpdateResult, part: UpdateResult) -> None:
    """Fold one labelled node's result into a multi-node operation's."""
    combined.labels_assigned += part.labels_assigned
    combined.relabeled_nodes += part.relabeled_nodes
    combined.relabel_events += part.relabel_events
    combined.overflow_events += part.overflow_events
    combined.deferred = combined.deferred or part.deferred
