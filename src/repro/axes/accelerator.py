"""Scheme-generic axis accelerator: document order as a sorted array.

The paper's section 2.2 argument is that label-decidable relationships
"contribute significantly to the reduction of XPath processing costs" —
but :class:`~repro.axes.evaluator.AxisEvaluator` realises them as a full
predicate scan over the label table: O(n) per axis step regardless of
result size.  This module supplies the sub-linear machinery, in the
spirit of Grust's XPath Accelerator generalised away from pre/post
labels: because every scheme's labels sort into document order
(Definition 1), *positions in that order* are themselves a universal
labelling.  On a PrePost-labelled document the positions are the pre
ranks, and every window below is one of Grust's rectangles.

:class:`AxisAccelerator` keeps three parallel structures over one
:class:`~repro.updates.document.LabeledDocument`:

* ``_nodes`` — every labelled node, in document order (= preorder);
* ``_end``   — for each position ``p``, the exclusive end of the
  subtree window: ``_nodes[p:_end[p]]`` is exactly the subtree rooted
  at ``_nodes[p]`` (preorder contiguity);
* ``_pos``   — ``node_id -> position``.

Every major axis then falls out as a range copy or a window jump —
descendants are one slice, following is one slice, ancestors and
preceding skip over whole subtrees via ``_end`` instead of testing
nodes one by one — independent of which of the 17 schemes labelled the
document, and without a single label comparison.  The same positions
put a query's merged results back into document order
(:meth:`AxisAccelerator.document_order`) at a cost that follows the
result, not the document, and give the name and value lookups of
:class:`~repro.store.indexes.DocumentIndexes` their document order.

A document owns at most one index, created by
:meth:`LabeledDocument.accelerator` and built at its first query.  It
subscribes to the document's
:class:`~repro.updates.document.StructuralDelta` stream: inserts and
deletes are positional splices with window repair (O(n - position)
pointer moves, no label work), rollbacks included — they publish the
inverse inserts and deletes of what they undo.  A relabelling publishes
nothing, because it moves no node and positions do not depend on
labels.  Only batch consolidations (and their rollback) publish
``rebuild`` deltas that mark the index for a lazy full rebuild at the
next query.  The document's ``structure_version`` stamp closes the
remaining hole: a structural mutation the index did not consume (a
mid-batch deferred insert, a tree mutated behind the document's back)
makes the next query raise :class:`~repro.errors.StaleIndexError`
instead of silently answering from dead positions.
"""

from __future__ import annotations

from typing import Dict, List, NoReturn, Optional, Tuple

from repro.axes.xpath_ast import AXES
from repro.errors import StaleIndexError, UnsupportedRelationshipError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.updates.document import LabeledDocument, StructuralDelta
from repro.xmlmodel.tree import XMLNode


class AxisAccelerator:
    """A document-order window index answering axis steps sub-linearly.

    Obtain it with :meth:`LabeledDocument.accelerator`, which creates
    the document's one index on first use; the index subscribes itself
    to the document's structural-delta stream and builds at its first
    query.
    """

    #: EXPLAIN strategy label reported when this index answers a step.
    STRATEGY = "accelerator-window"

    def __init__(self, ldoc: LabeledDocument):
        self.ldoc = ldoc
        self.document = ldoc.document
        self._nodes: List[XMLNode] = []
        self._end: List[int] = []
        self._pos: Dict[int, int] = {}
        self._stamp = -1
        self._dirty = True
        registry = get_registry()
        self._metric_builds = registry.counter("axes.accelerator.builds")
        self._metric_splices = registry.counter("axes.accelerator.splices")
        self._metric_queries = registry.counter("axes.accelerator.queries")
        self._metric_stale = registry.counter("axes.accelerator.stale_errors")
        ldoc.subscribe_deltas(self)

    # ------------------------------------------------------------------
    # Build / lifecycle
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild the whole index from the document and resync the stamp."""
        with instrument("accelerator.build",
                        scheme=self.ldoc.scheme.metadata.name) as event:
            # Nodes a batch has deferred are structurally present but
            # carry no label yet; they stay off the index (the
            # pending-batch gate refuses queries until the batch
            # applies anyway).
            labels = self.ldoc.labels
            nodes = [
                node for node in self.document.labeled_nodes()
                if node.node_id in labels
            ]
            total = len(nodes)
            end = [0] * total
            pos: Dict[int, int] = {}
            stack: List[tuple] = []  # (node_id, position) of open subtrees
            for index, node in enumerate(nodes):
                parent = node.parent
                parent_id = parent.node_id if parent is not None else None
                while stack and stack[-1][0] != parent_id:
                    end[stack.pop()[1]] = index
                stack.append((node.node_id, index))
                pos[node.node_id] = index
            while stack:
                end[stack.pop()[1]] = total
            self._nodes = nodes
            self._end = end
            self._pos = pos
            self._dirty = False
            self._stamp = self.document.structure_version
            self._metric_builds.increment()
            event.set(nodes=total)

    @property
    def stale(self) -> bool:
        """Whether a query right now would need a rebuild (or raise)."""
        return self._dirty or self._stamp != self.document.structure_version

    def size(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[XMLNode]:
        """Every labelled node in document order, brought up to date.

        The index's own list, not a copy: callers filter it and must
        not mutate it.
        """
        self._ensure_current()
        return self._nodes

    def explain_state(self) -> Tuple[str, str]:
        """``(strategy, reason)`` for a step issued right now.

        The step is answered from the windows (:attr:`STRATEGY`, also
        when it first builds or rebuilds the index), or the index
        refuses it: a plain query raises :class:`StaleIndexError` with
        the reason, and EXPLAIN answers it with the label scan
        (``scan``).
        """
        if self._batch_pending():
            return ("scan",
                    "document has a batch with unlabelled pending nodes; "
                    "the index refuses (StaleIndexError) until it applies")
        if self._dirty:
            return (self.STRATEGY, "index (re)built by the first step to run")
        if self._stamp != self.document.structure_version:
            return ("scan",
                    f"index stamp {self._stamp} is behind document "
                    f"structure version {self.document.structure_version}: "
                    f"it missed structural changes and refuses "
                    f"(StaleIndexError) until refresh()")
        return (self.STRATEGY, "window index current")

    # ------------------------------------------------------------------
    # Delta consumption (incremental maintenance)
    # ------------------------------------------------------------------

    def apply_delta(self, delta: StructuralDelta) -> None:
        """Fold one structural change into the index."""
        if not self._dirty:
            if delta.kind == "rebuild":
                self._dirty = True
            else:
                with instrument("accelerator.splice",
                                scheme=self.ldoc.scheme.metadata.name,
                                kind=delta.kind) as event:
                    if delta.kind == "insert":
                        self._splice_insert(delta.node)
                    else:
                        self._splice_delete(delta.node_id,
                                            delta.removed_ids or [])
                    event.set(nodes=1 + len(delta.removed_ids or ()))
        self._stamp = delta.structure_version

    def _splice_insert(self, node: XMLNode) -> None:
        """Insert one freshly labelled node at its document-order position.

        The window repair is two-phase: every window strictly covering
        the insertion point grows by one, and then the ancestor chain is
        walked for windows that *ended exactly at* the insertion point —
        an ancestor whose subtree the new node joins must extend, while
        a preceding sibling whose subtree merely abuts must not.
        """
        parent = node.parent
        if parent is None:
            self._dirty = True
            return
        parent_pos = self._pos.get(parent.node_id)
        if parent_pos is None:
            self._dirty = True
            return
        insert_at: Optional[int] = None
        own_index = parent.child_index(node)
        for sibling in reversed(parent.children[:own_index]):
            if sibling.kind.is_labeled and sibling.node_id in self._pos:
                insert_at = self._end[self._pos[sibling.node_id]]
                break
        if insert_at is None:
            insert_at = parent_pos + 1
        end = self._end
        for j in range(len(end)):
            if end[j] > insert_at:
                end[j] += 1
        ancestor = parent
        while ancestor is not None:
            position = self._pos.get(ancestor.node_id)
            if position is None:
                break
            if end[position] == insert_at:
                end[position] = insert_at + 1
            ancestor = ancestor.parent
        self._nodes.insert(insert_at, node)
        end.insert(insert_at, insert_at + 1)
        pos = self._pos
        pos[node.node_id] = insert_at
        for j in range(insert_at + 1, len(self._nodes)):
            pos[self._nodes[j].node_id] = j
        self._metric_splices.increment()

    def _splice_delete(self, root_id: Optional[int],
                       removed_ids: List[int]) -> None:
        """Cut one subtree window out and close the gap."""
        position = self._pos.get(root_id)
        if position is None:
            # The detached root was never indexed (e.g. labelled inside
            # a batch deferral); if any of its subtree was, positions
            # are unrecoverable without a rebuild.
            if any(node_id in self._pos for node_id in removed_ids):
                self._dirty = True
            return
        stop = self._end[position]
        size = stop - position
        pos = self._pos
        for node in self._nodes[position:stop]:
            del pos[node.node_id]
        del self._nodes[position:stop]
        del self._end[position:stop]
        end = self._end
        for j in range(len(end)):
            if end[j] > position:
                end[j] -= size
        for j in range(position, len(self._nodes)):
            pos[self._nodes[j].node_id] = j
        self._metric_splices.increment()

    # ------------------------------------------------------------------
    # Staleness gate
    # ------------------------------------------------------------------

    def _refuse_stale(self, message: str) -> NoReturn:
        """Count one staleness refusal and raise it as an error event."""
        self._metric_stale.increment()
        with instrument("accelerator.stale_refusal",
                        scheme=self.ldoc.scheme.metadata.name,
                        message=message):
            raise StaleIndexError(message)

    def _batch_pending(self) -> bool:
        batch = self.ldoc._active_batch
        return batch is not None and batch.pending > 0

    def _ensure_current(self) -> None:
        strategy, reason = self.explain_state()
        if strategy != self.STRATEGY:
            self._refuse_stale(reason)
        if self._dirty:
            self.refresh()

    def _position(self, node: XMLNode) -> int:
        # Identity check, not just id: node ids are per-document
        # counters, so a node from another document (or a replaced tree)
        # can collide with a live id.
        position = self._pos.get(node.node_id)
        if position is None or self._nodes[position] is not node:
            self._refuse_stale(
                f"node {node.node_id} is not on the index "
                f"(refresh needed?)"
            )
        return position

    # ------------------------------------------------------------------
    # Result ordering
    # ------------------------------------------------------------------

    def document_order(self, nodes: List[XMLNode]) -> Optional[List[XMLNode]]:
        """``nodes`` sorted into document order by their index positions.

        O(k log k) in ``len(nodes)``, whatever the document size.  The
        index only vouches for positions a query would be answered from:
        when it is marked for rebuild, its stamp is behind the
        document's ``structure_version``, a batch has unlabelled pending
        nodes, or a node is not on the index (by identity, as for axis
        queries), this returns ``None`` and the caller orders the nodes
        another way.  It never rebuilds, raises or counts a refusal.
        """
        if self.stale or self._batch_pending():
            return None
        index = self._nodes
        lookup = self._pos.get
        positions = []
        for node in nodes:
            position = lookup(node.node_id)
            if position is None or index[position] is not node:
                return None
            positions.append(position)
        positions.sort()
        return [index[position] for position in positions]

    # ------------------------------------------------------------------
    # Axis queries
    # ------------------------------------------------------------------

    def evaluate(self, axis: str, node: XMLNode) -> List[XMLNode]:
        """All nodes on ``axis`` from ``node``, in document order."""
        if axis not in AXES:
            raise UnsupportedRelationshipError(f"unknown axis {axis!r}")
        self._ensure_current()
        self._metric_queries.increment()
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        return handler(self._position(node))

    def _axis_self(self, position: int) -> List[XMLNode]:
        return [self._nodes[position]]

    def _axis_attribute(self, position: int) -> List[XMLNode]:
        return self._nodes[position].attributes()

    def _axis_descendant(self, position: int) -> List[XMLNode]:
        return self._nodes[position + 1:self._end[position]]

    def _axis_descendant_or_self(self, position: int) -> List[XMLNode]:
        return self._nodes[position:self._end[position]]

    def _axis_following(self, position: int) -> List[XMLNode]:
        return self._nodes[self._end[position]:]

    def _axis_preceding(self, position: int) -> List[XMLNode]:
        # Jump whole subtree windows: a window closing at or before the
        # context position is entirely preceding (copied as one slice);
        # a window still open there belongs to an ancestor, which is
        # skipped without scanning its other children one by one.
        result: List[XMLNode] = []
        j = 0
        while j < position:
            stop = self._end[j]
            if stop <= position:
                result.extend(self._nodes[j:stop])
                j = stop
            else:
                j += 1
        return result

    def _axis_ancestor(self, position: int) -> List[XMLNode]:
        result: List[XMLNode] = []
        j = 0
        while j < position:
            if self._end[j] > position:
                result.append(self._nodes[j])
                j += 1
            else:
                j = self._end[j]
        return result

    def _axis_ancestor_or_self(self, position: int) -> List[XMLNode]:
        result = self._axis_ancestor(position)
        result.append(self._nodes[position])
        return result

    def _axis_parent(self, position: int) -> List[XMLNode]:
        ancestors = self._axis_ancestor(position)
        return ancestors[-1:]

    def _axis_child(self, position: int) -> List[XMLNode]:
        result: List[XMLNode] = []
        j = position + 1
        stop = self._end[position]
        while j < stop:
            result.append(self._nodes[j])
            j = self._end[j]
        return result

    def _axis_following_sibling(self, position: int) -> List[XMLNode]:
        ancestors = self._axis_ancestor(position)
        if not ancestors:
            return []
        parent_pos = self._pos[ancestors[-1].node_id]
        result: List[XMLNode] = []
        j = self._end[position]
        stop = self._end[parent_pos]
        while j < stop:
            result.append(self._nodes[j])
            j = self._end[j]
        return result

    def _axis_preceding_sibling(self, position: int) -> List[XMLNode]:
        ancestors = self._axis_ancestor(position)
        if not ancestors:
            return []
        result: List[XMLNode] = []
        j = self._pos[ancestors[-1].node_id] + 1
        while j < position:
            result.append(self._nodes[j])
            j = self._end[j]
        return result
