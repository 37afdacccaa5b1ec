"""Bulk updates with deferred relabelling: the batch engine.

Per-operation updates pay the scheme's worst case on every call: a
single mid-sibling insertion under DeweyID shifts followers, under the
XPath Accelerator it recomputes the whole pre/post plane.  Applying a
thousand such operations one at a time therefore performs up to a
thousand relabelling passes, almost all of which are overwritten by the
next one — the survey's "significant costs" multiplied by batch size.

:class:`UpdateBatch` removes the multiplication.  Structural mutations
are applied to the tree eagerly (so later operations in the batch see
the current shape), but labelling is split:

* the **fast path** asks the scheme's
  :meth:`~repro.schemes.base.LabelingScheme.plan_insert` to label the
  node *only if* no existing label must change — persistent schemes
  (QED, CDQS, vector...) take this path for every operation and a batch
  degenerates to exactly the per-operation behaviour, label for label;
* otherwise the node's label is **deferred**: the batch remembers the
  node and moves on without computing the relabelling the per-operation
  path would have paid.

On :meth:`~UpdateBatch.apply` all deferred labels are produced by one
consolidated :meth:`~repro.schemes.base.LabelingScheme.label_tree` pass
— a single relabel event regardless of how many operations deferred.

Accounting contract (the batch/per-op parity rules):

* ``insertions``, ``deletions`` and ``content_updates`` in the
  document's :class:`~repro.updates.document.UpdateLog` advance exactly
  as the per-operation path would — one insertion per labelled node,
  recorded when the operation runs, even if the node is deleted later
  in the same batch.
* ``relabeled_nodes`` / ``relabel_events`` / ``overflow_events`` are
  *consolidated*: when every operation takes the fast path they equal
  the per-operation totals (zero); when any operation defers, the batch
  records one relabel event for the final pass instead of one per
  deferring operation.  :class:`BatchResult.relabels_avoided` reports
  the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Set

from repro.errors import BatchError
from repro.observability.metrics import get_registry
from repro.updates.results import UpdateResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.updates.document import LabeledDocument
    from repro.updates.operations import Operation
    from repro.xmlmodel.tree import XMLNode


@dataclass
class BatchResult:
    """Consolidated outcome of one applied :class:`UpdateBatch`.

    ``operations`` counts batch-level calls (an ``insert_subtree`` is
    one operation); ``labels_assigned`` counts labelled nodes created.
    ``deferred_labels`` is how many of those waited for the consolidated
    pass, ``relabel_passes`` how many passes ran (0 or 1), and
    ``relabels_avoided`` the relabelling events the per-operation path
    would have performed but the batch did not.  ``results`` holds the
    per-operation :class:`~repro.updates.results.UpdateResult` objects
    in execution order, with deferred labels filled in.
    """

    operations: int = 0
    labels_assigned: int = 0
    deferred_labels: int = 0
    relabel_passes: int = 0
    relabels_avoided: int = 0
    relabeled_nodes: int = 0
    overflow_events: int = 0
    deletions: int = 0
    content_updates: int = 0
    results: List[UpdateResult] = field(default_factory=list)


class UpdateBatch:
    """A group of updates labelled with at most one relabelling pass.

    Usable imperatively (call :meth:`apply` when done) or as a context
    manager (applied on clean exit, rolled back on exception)::

        with ldoc.batch() as batch:
            for name in names:
                batch.append_child(parent, name)
        ldoc.last_batch_result.relabels_avoided

    While the batch has deferred (pending) labels the document is
    structurally current but partially unlabelled;
    :meth:`~repro.updates.document.LabeledDocument.verify_order` refuses
    to run until the batch applies.  Every node is published to the
    document's delta stream when it is attached, labelled or not, so the
    structural index holds the pending nodes and queries answer.
    """

    def __init__(self, ldoc: "LabeledDocument"):
        if ldoc._active_batch is not None:
            raise BatchError("document already has an open batch")
        self._ldoc = ldoc
        self._undo = None
        self._pending: Set[int] = set()
        self._results: List[UpdateResult] = []
        self._operations = 0
        self._deferrals = 0
        self._fast_labels = 0
        self._deletions = 0
        self._content_updates = 0
        self._overflow_events = 0
        self._applied = False
        registry = get_registry()
        self._metric_fast = registry.counter("batch.fast_path_labels")
        self._metric_deferred = registry.counter("batch.deferred_labels")
        ldoc._active_batch = self

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """How many nodes currently await a label (0 once applied)."""
        return len(self._pending)

    @property
    def applied(self) -> bool:
        """Whether :meth:`apply` has run."""
        return self._applied

    @property
    def results(self) -> List[UpdateResult]:
        """Per-operation results recorded so far, in execution order."""
        return list(self._results)

    def plan_summary(self) -> dict:
        """The planner-facing view of the batch's labelling decisions.

        ``predicted_relabel_extent`` is the upper bound an EXPLAIN of
        this batch reports: if any operation deferred (``plan_insert``
        returned ``None``), :meth:`apply` runs one consolidated
        ``label_tree`` pass that may rewrite every label in the
        document; with no deferral the extent is zero.
        """
        deferred = self._deferrals
        return {
            "operations": self._operations,
            "fast_path_labels": self._fast_labels,
            "deferred_labels": deferred,
            "pending_nodes": len(self._pending),
            "predicted_relabel_passes": 1 if deferred else 0,
            "predicted_relabel_extent": (
                len(self._ldoc.labels) if deferred else 0
            ),
        }

    # ------------------------------------------------------------------
    # Operations (the UpdateSurface's, with this batch as labeller)
    # ------------------------------------------------------------------

    def insert_before(self, reference: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element immediately before ``reference``."""
        self._prepare()
        return self._record(self._ldoc._do_insert_sibling(
            self, reference, name, after=False))

    def insert_after(self, reference: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element immediately after ``reference``."""
        self._prepare()
        return self._record(self._ldoc._do_insert_sibling(
            self, reference, name, after=True))

    def append_child(self, parent: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element as the last child of ``parent``."""
        self._prepare()
        return self._record(self._ldoc._do_append_child(self, parent, name))

    def prepend_child(self, parent: "XMLNode", name: str) -> UpdateResult:
        """Insert a new element as the first content child of ``parent``."""
        self._prepare()
        return self._record(self._ldoc._do_prepend_child(self, parent, name))

    def insert_attribute(self, element: "XMLNode", name: str,
                         value: str) -> UpdateResult:
        """Insert a new attribute on ``element``."""
        self._prepare()
        return self._record(self._ldoc._do_insert_attribute(
            self, element, name, value))

    def insert_subtree(self, parent: "XMLNode", index: int,
                       fragment: "XMLNode") -> UpdateResult:
        """Insert a whole subtree as a serialised node sequence."""
        self._prepare()
        return self._record(self._ldoc._do_insert_subtree(
            self, parent, index, fragment))

    def delete(self, node: "XMLNode") -> UpdateResult:
        """Remove ``node`` and its subtree.

        Pending nodes inside the subtree simply stop being pending; a
        scheme's ``on_delete`` reorganisation (LSDX letter reuse) runs
        eagerly, exactly as per-operation, and may label previously
        pending nodes.
        """
        self._prepare()
        result = self._ldoc._do_delete(node)
        if self._pending:
            self._pending.difference_update(
                child.node_id for child in node.preorder())
        self._drop_labelled_pending()
        self._deletions += 1
        return self._record(result)

    def move(self, node: "XMLNode", new_parent: "XMLNode",
             index: int) -> UpdateResult:
        """Relocate a subtree; its nodes are relabelled at the target.

        A moved node that was pending is pending again only if its new
        position defers too.
        """
        self._prepare()
        result = self._ldoc._do_move(self, node, new_parent, index)
        self._drop_labelled_pending()
        return self._record(result)

    def set_text(self, element: "XMLNode", text: str) -> UpdateResult:
        """Replace an element's text content (labels untouched)."""
        self._prepare()
        self._content_updates += 1
        return self._record(self._ldoc._do_set_text(element, text))

    def set_attribute_value(self, attribute: "XMLNode",
                            value: str) -> UpdateResult:
        """Replace an attribute's value (labels untouched)."""
        self._prepare()
        self._content_updates += 1
        return self._record(self._ldoc._do_set_attribute_value(attribute, value))

    def rename(self, node: "XMLNode", name: str) -> UpdateResult:
        """Rename an element or attribute (labels untouched)."""
        self._prepare()
        self._content_updates += 1
        return self._record(self._ldoc._do_rename(node, name))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def apply(self) -> BatchResult:
        """Label all deferred nodes in one pass and close the batch.

        If every operation took the fast path this is free: no pass
        runs, no label changes.  Otherwise one
        :meth:`~repro.schemes.base.LabelingScheme.label_tree` traversal
        produces every outstanding label — and, as a full relabelling,
        replaces fast-path labels assigned earlier in the batch so the
        final label set is exactly the scheme's canonical labelling of
        the current tree.  It publishes nothing: every node was published
        when it was attached, and a relabelling moves no node.

        If the pass itself fails partway (a collision, an injected
        crash), the batch is *not* closed: :meth:`rollback` — or the
        context manager's exception path — restores the pre-batch state.
        """
        from repro.durability.faults import maybe_fail
        from repro.observability.ops import instrument

        self._check_open()
        maybe_fail("batch.apply")
        ldoc = self._ldoc
        scheme_name = ldoc.scheme.metadata.name
        with instrument("batch.apply", scheme=scheme_name,
                        operations=self._operations,
                        deferred=self._deferrals) as event:
            passes = 0
            relabeled_nodes = 0
            if self._pending:
                with instrument("document.relabel", scheme=scheme_name,
                                consolidated=True,
                                overflow=False) as relabel:
                    old_labels = ldoc.labels
                    new_labels = ldoc.scheme.label_tree(ldoc.document)
                    relabeled_nodes = sum(
                        1 for node_id, label in new_labels.items()
                        if node_id in old_labels
                        and old_labels[node_id] != label
                    )
                    ldoc._replace_labels(new_labels)
                    maybe_fail("batch.relabel")
                    ldoc._rebuild_label_index()
                    ldoc.log.record("relabel_events")
                    ldoc.log.record("relabeled_nodes", relabeled_nodes)
                    relabel.set(nodes=relabeled_nodes)
                if relabel:
                    get_registry().histogram(
                        f"scheme.{scheme_name}.relabel_extent"
                    ).observe(relabeled_nodes)
                passes = 1
                self._pending.clear()
            for result in self._results:
                if result.node is not None and result.kind != "delete":
                    result.label = ldoc.labels.get(result.node.node_id)
                    result.deferred = False
            batch_result = BatchResult(
                operations=self._operations,
                labels_assigned=sum(r.labels_assigned for r in self._results),
                deferred_labels=self._deferrals,
                relabel_passes=passes,
                relabels_avoided=max(0, self._deferrals - passes),
                relabeled_nodes=relabeled_nodes
                + sum(r.relabeled_nodes for r in self._results),
                overflow_events=self._overflow_events,
                deletions=self._deletions,
                content_updates=self._content_updates,
                results=list(self._results),
            )
            event.set(nodes=batch_result.labels_assigned
                      + batch_result.relabeled_nodes,
                      relabel_passes=passes,
                      relabeled_nodes=relabeled_nodes)
        ldoc.last_batch_result = batch_result
        if self._undo is not None:
            self._undo.release()
        self._close()
        return batch_result

    def rollback(self) -> None:
        """Restore the pre-batch state completely and close the batch.

        Every structural mutation, label assignment and log increment
        made since the batch's first operation is undone, back to the
        batch's own savepoint in the undo log (an enclosing transaction
        stays open); the document comes back exactly as it was when the
        batch opened (labels, label index and ``verify_order``
        included).  A no-op after a successful :meth:`apply` — committed
        work stays committed.  Used by the context manager on exception.
        """
        from repro.observability.ops import instrument

        if self._applied:
            return
        with instrument("batch.rollback",
                        scheme=self._ldoc.scheme.metadata.name) as event:
            event.set(nodes=self._operations, outcome="rollback")
            if self._undo is not None:
                self._undo.rollback()
            get_registry().counter("batch.rollbacks").increment()
            self._results.clear()
            self._close()

    def __enter__(self) -> "UpdateBatch":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.rollback()
        elif not self._applied:
            # The consolidated pass is itself a crash point (collisions,
            # injected faults): if it fails, the scope still guarantees
            # all-or-nothing.
            try:
                self.apply()
            except Exception:
                self.rollback()
                raise

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._applied:
            raise BatchError("batch already applied")

    def _close(self) -> None:
        """Close the batch: no pending labels, no undo record, detached.

        Called by :meth:`apply`, by :meth:`rollback` and by a
        transaction whose rollback subsumes the batch's savepoint.
        """
        self._applied = True
        self._undo = None
        self._pending.clear()
        self._ldoc._active_batch = None

    def _prepare(self) -> None:
        """Gate one mutating operation: open check + lazy undo capture.

        The undo record (a savepoint in the document's undo log) is
        opened immediately before the batch's first mutation, so no-op
        batches log nothing and the savepoint is exactly what
        :meth:`rollback` must return to.
        """
        self._check_open()
        if self._undo is None:
            from repro.durability.transactions import UndoRecord

            self._undo = UndoRecord(self._ldoc)

    def _record(self, result: UpdateResult) -> UpdateResult:
        self._operations += 1
        self._results.append(result)
        return result

    def _label_node(self, node: "XMLNode") -> UpdateResult:
        """Label one new node on the fast path, or park it for the pass.

        The batch's side of the document cores' labeller contract (the
        document's own ``_label_node`` labels immediately).  Either way
        the node is published as attached.
        """
        from repro.durability.faults import maybe_fail

        maybe_fail("batch.operation")
        ldoc = self._ldoc
        ldoc.log.record("insertions")
        outcome = None
        # A pending (unlabelled) parent rules out the fast path: the
        # scheme cannot extend a label that does not exist yet.
        if node.parent is not None and node.parent.node_id in ldoc.labels:
            outcome = ldoc.scheme.plan_insert(ldoc._insert_context_for(node))
        if outcome is None:
            self._pending.add(node.node_id)
            ldoc._publish_insert(node)
            self._deferrals += 1
            self._metric_deferred.value += 1
            return UpdateResult(kind="insert", node=node, labels_assigned=1,
                                deferred=True)
        if outcome.overflowed:
            ldoc.log.record("overflow_events")
            self._overflow_events += 1
        ldoc._assign(node.node_id, outcome.label)
        ldoc._publish_insert(node)
        self._fast_labels += 1
        self._metric_fast.value += 1
        return UpdateResult(
            kind="insert", node=node, label=outcome.label, labels_assigned=1,
            overflow_events=1 if outcome.overflowed else 0,
        )

    def _drop_labelled_pending(self) -> None:
        """Forget pending nodes a relabelling just gave labels to."""
        if not self._pending:
            return
        labelled = [
            node_id for node_id in self._pending if node_id in self._ldoc.labels
        ]
        self._pending.difference_update(labelled)


def apply_batch(ldoc: "LabeledDocument",
                program: List["Operation"]) -> BatchResult:
    """Run a declarative operation program through one batch.

    The batch counterpart of
    :func:`~repro.updates.operations.apply_program`: positional targets
    are resolved against the evolving document through the identical
    dispatch, so ``apply_batch(ldoc, program)`` visits the same nodes as
    per-operation application of the same program — the basis of the
    batch/per-op equivalence property tests.
    """
    from repro.updates.operations import dispatch_operation

    with ldoc.batch() as batch:
        for operation in program:
            dispatch_operation(batch, ldoc, operation)
    return ldoc.last_batch_result
