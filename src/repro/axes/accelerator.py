"""Scheme-generic axis accelerator: document order as a sorted array.

The paper's section 2.2 argument is that label-decidable relationships
"contribute significantly to the reduction of XPath processing costs" —
but :class:`~repro.axes.evaluator.AxisEvaluator` realises them as a full
predicate scan over the label table: O(n) per axis step regardless of
result size.  This module supplies the sub-linear machinery, in the
spirit of Grust's XPath Accelerator generalised away from pre/post
labels: because every scheme's labels sort into document order
(Definition 1), *positions in that order* are themselves a universal
labelling.

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
result, not the document.

Incremental maintenance: the accelerator subscribes to the document's
:class:`~repro.updates.document.StructuralDelta` stream.  Inserts and
deletes are positional splices with window repair (O(n - position)
pointer moves, no label work), rollbacks included: they publish the
inverse inserts and deletes of what they undo.  Only consolidated batch
relabellings (and their rollback) publish ``rebuild`` deltas that mark
the index dirty for a lazy full rebuild at the next query.  The document's
``structure_version`` stamp closes the remaining hole: a structural
mutation the index did not consume (a detached index, a mid-batch
deferred insert, a tree mutated behind the document's back) makes the
next query raise :class:`~repro.errors.StaleIndexError` instead of
silently answering from dead positions.
"""

from __future__ import annotations

from typing import Dict, List, NoReturn, Optional

from repro.errors import StaleIndexError, UnsupportedRelationshipError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.updates.document import LabeledDocument, StructuralDelta
from repro.xmlmodel.tree import XMLNode

#: The axes the accelerator answers from its order index.  ``self`` and
#: ``attribute`` stay with the evaluator — they never scan.
ACCELERATED_AXES = frozenset((
    "child",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "descendant",
    "descendant-or-self",
    "following",
    "preceding",
    "following-sibling",
    "preceding-sibling",
))


class AxisAccelerator:
    """A document-order window index answering axis steps sub-linearly.

    ``attach=True`` (default) subscribes the index to the document's
    structural-delta stream, so per-operation inserts/deletes/moves are
    folded in as positional splices and the index stays current without
    rebuilds, across rollbacks too; batch consolidations mark it dirty
    and the next query rebuilds lazily.  A detached index
    (``attach=False``) is a static snapshot: after any structural
    change its queries raise :class:`StaleIndexError` until
    :meth:`refresh` — unless ``auto_refresh=True``, which rebuilds
    silently instead.

    ``rebuild_threshold`` bounds incremental relabel handling: one
    relabelling that touches more than this fraction of the index (a
    relabel storm — CDBS overflow, LSDX reorganisation) marks the index
    dirty for a full rebuild instead of trusting positional stability.
    """

    ACCELERATED_AXES = ACCELERATED_AXES

    #: EXPLAIN strategy label reported when this index answers a step.
    STRATEGY = "accelerator-window"

    def __init__(self, ldoc: LabeledDocument, attach: bool = True,
                 auto_refresh: bool = False,
                 rebuild_threshold: float = 0.5):
        self.ldoc = ldoc
        self.document = ldoc.document
        self.auto_refresh = auto_refresh
        self.rebuild_threshold = rebuild_threshold
        self._nodes: List[XMLNode] = []
        self._end: List[int] = []
        self._pos: Dict[int, int] = {}
        self._stamp = -1
        self._dirty = True
        self._attached = False
        registry = get_registry()
        self._metric_builds = registry.counter("axes.accelerator.builds")
        self._metric_splices = registry.counter("axes.accelerator.splices")
        self._metric_queries = registry.counter("axes.accelerator.queries")
        self._metric_stale = registry.counter("axes.accelerator.stale_errors")
        self._metric_storms = registry.counter(
            "axes.accelerator.relabel_storms"
        )
        if attach:
            ldoc.subscribe_deltas(self)
            self._attached = True
        self.refresh()

    # ------------------------------------------------------------------
    # Build / lifecycle
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild the whole index from the document and resync the stamp."""
        with instrument("accelerator.build",
                        scheme=self.ldoc.scheme.metadata.name) as event:
            # Nodes a batch has deferred are structurally present but
            # carry no label yet; they are invisible to label-side
            # evaluation and stay off the index too (the pending-batch
            # gate refuses queries until the batch applies anyway).
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

    def detach(self) -> None:
        """Stop consuming deltas; the index becomes a static snapshot."""
        if self._attached:
            self.ldoc.unsubscribe_deltas(self)
            self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    @property
    def stale(self) -> bool:
        """Whether a query right now would need a rebuild (or raise)."""
        return self._dirty or self._stamp != self.document.structure_version

    def size(self) -> int:
        return len(self._nodes)

    def explain_state(self) -> "tuple[str, str]":
        """``(state, reason)`` a query issued right now would see.

        Mirrors :meth:`_ensure_current` without side effects: ``ready``
        (index current), ``rebuild`` (stale but rebuilt lazily at the
        next query), or ``refuse`` (the query raises
        :class:`~repro.errors.StaleIndexError`).  EXPLAIN routes
        ``refuse`` steps to the scan path with this reason.
        """
        if self._batch_pending():
            return ("refuse",
                    "document has a batch with unlabelled pending nodes")
        if self._dirty:
            if self._attached or self.auto_refresh:
                return ("rebuild",
                        "index marked for rebuild; rebuilt lazily at query")
            return ("refuse",
                    "index marked for rebuild while detached from deltas "
                    "(a plain query raises StaleIndexError)")
        if self._stamp != self.document.structure_version:
            if self.auto_refresh:
                return ("rebuild",
                        "index stamp behind document; rebuilt lazily at "
                        "query")
            return ("refuse",
                    f"index stamp {self._stamp} is behind document "
                    f"structure version {self.document.structure_version} "
                    "(a plain query raises StaleIndexError)")
        return ("ready", "window index current")

    # ------------------------------------------------------------------
    # Delta consumption (incremental maintenance)
    # ------------------------------------------------------------------

    def apply_delta(self, delta: StructuralDelta) -> None:
        """Fold one structural change into the index."""
        if not self._dirty:
            if delta.kind in ("insert", "delete"):
                with instrument("accelerator.splice",
                                scheme=self.ldoc.scheme.metadata.name,
                                kind=delta.kind) as event:
                    if delta.kind == "insert":
                        self._splice_insert(delta.node)
                    else:
                        self._splice_delete(delta.node_id,
                                            delta.removed_ids or [])
                    event.set(nodes=1 + len(delta.removed_ids or ()))
            elif delta.kind == "relabel":
                self._on_relabel(delta.count)
            else:  # rebuild
                self._dirty = True
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

    def _on_relabel(self, count: int) -> None:
        # Positions are label-free: a relabelling moves no node, so the
        # order index stays valid as-is.  A storm that rewrites most of
        # the document is treated as a rebuild anyway — cheap insurance
        # against schemes whose reorganisations coincide with structure.
        if count > self.rebuild_threshold * max(1, len(self._nodes)):
            self._metric_storms.increment()
            self._dirty = True

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
        if self._batch_pending():
            self._refuse_stale(
                "document has a batch with unlabelled pending nodes; "
                "apply the batch before querying the accelerator"
            )
        if self._dirty:
            if self._attached or self.auto_refresh:
                self.refresh()
                return
            self._refuse_stale(
                "accelerator index marked for rebuild; call refresh()"
            )
        if self._stamp != self.document.structure_version:
            if self.auto_refresh:
                self.refresh()
                return
            self._refuse_stale(
                f"document structure version "
                f"{self.document.structure_version} is ahead of index "
                f"stamp {self._stamp}; the index missed structural "
                f"changes — call refresh()"
            )

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
        if axis not in ACCELERATED_AXES:
            raise UnsupportedRelationshipError(
                f"axis {axis!r} is not accelerated"
            )
        self._ensure_current()
        self._metric_queries.increment()
        handler = getattr(self, "_axis_" + axis.replace("-", "_"))
        return handler(self._position(node))

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
