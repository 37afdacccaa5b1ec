"""Scheme-generic axis accelerator: an order-maintained document order.

The paper's section 2.2 argument is that label-decidable relationships
"contribute significantly to the reduction of XPath processing costs" —
but :class:`~repro.axes.evaluator.AxisEvaluator` realises them as a full
predicate scan over the label table: O(n) per axis step regardless of
result size.  This module supplies the sub-linear machinery, in the
spirit of Grust's XPath Accelerator generalised away from pre/post
labels: because every scheme's labels sort into document order
(Definition 1), the index keeps that order itself, independent of which
of the 17 schemes labelled the document and without a single label
comparison.

A dense numbering of that order (pre ranks) is exactly what the paper's
Persistent Labels property (section 5.1) grades down: one insert shifts
every later number.  :class:`AxisAccelerator` keeps the order the way
an order-maintenance list does (Dietz & Sleator 1987; Bender et al.
2002) — the paper's gap-versus-persistence trade-off, inside the index:

* every element and attribute node carries an integer *order tag*
  (labels play no part: a node a batch has not labelled yet is placed
  like any other); tags increase in
  document order with gaps between them, so an insert takes a tag
  between its neighbours' and, when a gap has closed, relabels only the
  few nodes that follow it (:meth:`AxisAccelerator._spread`);
* the nodes themselves sit in document order in *blocks* of a few
  hundred, found by their first tags, so an insert or a subtree cut
  shifts one block, and a block that grows past twice the build size
  splits;
* a subtree window is its root and its *last descendant* (a node
  reference, not an integer end), so inserting or deleting moves no
  other window's bounds but those of the ancestors it extends or cuts;
* each element or attribute name keeps its nodes in document order
  (the XISS-style element index), so a ``//name`` step reads that
  name's nodes inside the window instead of the whole window;
* each attribute name a step has asked about keeps a map from value to
  its attribute nodes (a value index beside the element index, as in
  Mahboubi and Darmont's survey), so an ``[@a='v']`` step on the child,
  descendant and descendant-or-self axes reads the owners of ``v``
  instead of filtering every candidate;
* once statistics have been read, it counts its attribute nodes, its
  nodes per depth and its elements per fan-out, so the cardinality
  statistics (:mod:`repro.observability.stats`) read counts the splices
  keep instead of walking the document.

An insert or a subtree delete therefore costs O(log n) amortised plus
the size of the change, and :meth:`AxisAccelerator.document_order` sorts
a result by its O(1) tags.  On a PrePost-labelled document the index's
order is the pre order, and every window is one of Grust's rectangles.

A document owns at most one index, created by
:meth:`LabeledDocument.accelerator` and built at its first query.  It
subscribes to the document's
:class:`~repro.updates.document.StructuralDelta` stream: ``insert``,
``delete``, ``rename`` and ``value`` deltas are spliced in, each node
when it is attached (a batch's deferred nodes included) and rollbacks
included — a rollback publishes the inverse deltas of what it undoes.
A relabelling publishes nothing, because it moves no node and the order
does not depend on labels.  The document's ``structure_version`` stamp
closes the remaining hole: a structural mutation the index did not
consume (a tree mutated behind the document's back, an index
unsubscribed from the stream) makes the next query, plain or EXPLAINed,
raise :class:`~repro.errors.StaleIndexError` instead of silently
answering from a dead order.  Every published delta follows at most one
version bump, so a delta further ahead of the stamp than that reveals a
missed change: the index splices nothing and stays behind until
:meth:`AxisAccelerator.refresh`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Dict, Iterable, List, NoReturn, Optional, Set, Tuple

from repro.axes.xpath_ast import AXES, with_attribute
from repro.errors import StaleIndexError, UnsupportedRelationshipError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.updates.document import LabeledDocument, StructuralDelta
from repro.xmlmodel.tree import NodeKind, XMLNode

_ELEMENT = NodeKind.ELEMENT
_ATTRIBUTE = NodeKind.ATTRIBUTE

#: Nodes per block after a build; a block splits past twice this.
_BLOCK = 256

#: Distance between consecutive order tags after a build, and between
#: the last node and one appended after it.
_TAG_GAP = 1 << 24

#: Axis name -> handler method name.
_HANDLERS = {axis: "_axis_" + axis.replace("-", "_") for axis in AXES}

#: The axes whose handlers apply a name test themselves: the four that
#: read a name's run, and child, which filters its list once.
_NAMED_AXES = frozenset(
    ("descendant", "descendant-or-self", "following", "preceding", "child"))

#: The axes an attribute-value test reads the value maps on: their
#: results are the owners whose parent is the context (child) or whose
#: tag lies in its window.
_VALUE_AXES = frozenset(("child", "descendant", "descendant-or-self"))


class _Run:
    """Nodes in document order and their order tags, as parallel lists.

    A block of the document order is one run; so is each name's list.
    """

    __slots__ = ("nodes", "tags")

    def __init__(self, nodes: List[XMLNode], tags: List[int]):
        self.nodes = nodes
        self.tags = tags


def _walk(root: XMLNode) -> Tuple[List[XMLNode], Dict[XMLNode, XMLNode],
                                  Dict[str, List[XMLNode]]]:
    """Preorder of the element and attribute nodes under ``root``, with
    each inner node's last descendant and each name's nodes in order.

    Iterative, so document depth is not bounded by the recursion limit:
    a one-element tuple on the stack closes its node's subtree.
    """
    nodes: List[XMLNode] = []
    last: Dict[XMLNode, XMLNode] = {}
    groups: Dict[str, List[XMLNode]] = {}
    append = nodes.append
    stack: list = [root]
    pop = stack.pop
    while stack:
        node = pop()
        if node.__class__ is tuple:
            closed = node[0]
            last[closed] = nodes[-1]
            continue
        append(node)
        group = groups.get(node.name)
        if group is None:
            groups[node.name] = [node]
        else:
            group.append(node)
        children = [child for child in node.children
                    if child.kind is _ELEMENT or child.kind is _ATTRIBUTE]
        if children:
            stack.append((node,))
            children.reverse()
            stack += children
    return nodes, last, groups


def _tally(nodes: Iterable[XMLNode]) -> Tuple[List[int], int,
                                              Dict[XMLNode, int]]:
    """Count a subtree's indexed nodes, given in document order.

    Its root is the one node without a parent link (the document root,
    or the root of a cut subtree).  Returns the nodes at each depth
    below the root's (the root's first), the attribute nodes, and each
    element's indexed children.
    """
    depth_of: Dict[Optional[XMLNode], int] = {None: -1}
    fanout: Dict[Optional[XMLNode], int] = {None: 0}
    depths: List[int] = []
    attributes = 0
    for node in nodes:
        parent = node.parent
        depth = depth_of[parent] + 1
        if depth == len(depths):
            depths.append(1)
        else:
            depths[depth] += 1
        fanout[parent] += 1
        if node.kind is _ATTRIBUTE:
            attributes += 1
        else:
            depth_of[node] = depth
            fanout[node] = 0
    del fanout[None]
    return depths, attributes, fanout


class AxisAccelerator:
    """An order-maintained document-order index answering axis steps.

    Obtain it with :meth:`LabeledDocument.accelerator`, which creates
    the document's one index on first use; the index subscribes itself
    to the document's structural-delta stream and builds at its first
    query.  Its per-node maps are keyed by the node objects themselves
    (identity), so a node of another document never matches.
    """

    #: EXPLAIN strategy label reported when this index answers a step.
    STRATEGY = "accelerator-window"

    def __init__(self, ldoc: LabeledDocument):
        self.ldoc = ldoc
        self.document = ldoc.document
        self._scheme_name = ldoc.scheme.metadata.name
        #: The document order in blocks, and each block's first tag.
        self._blocks: List[_Run] = []
        self._firsts: List[int] = []
        self._tag: Dict[XMLNode, int] = {}
        #: Last descendant of each node that has one (a leaf is absent:
        #: its subtree window ends at itself).
        self._last: Dict[XMLNode, XMLNode] = {}
        self._names: Dict[str, _Run] = {}
        #: Attribute name -> value -> that name's attribute nodes so
        #: valued, for the names a step has asked about.
        self._values: Dict[str, Dict[str, Set[XMLNode]]] = {}
        #: The statistics counts, once read (see :meth:`counts`): the
        #: attribute nodes, the nodes at each depth (indexed by depth)
        #: and the elements with each fan-out (indexed children).
        #: ``_depths`` is None until the first read after a build.
        self._attributes = 0
        self._depths: Optional[List[int]] = None
        self._fanouts: Dict[int, int] = {}
        self._stamp = -1
        self._dirty = True
        #: Records rewritten one by one by the splice in progress.
        self._touched = 0
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
                        scheme=self._scheme_name) as event:
            root = self.document.root
            if root is not None:
                nodes, last, groups = _walk(root)
            else:
                nodes, last, groups = [], {}, {}
            total = len(nodes)
            tags = list(range(_TAG_GAP, (total + 1) * _TAG_GAP, _TAG_GAP))
            self._blocks = [
                _Run(nodes[start:start + _BLOCK], tags[start:start + _BLOCK])
                for start in range(0, total, _BLOCK)
            ]
            self._firsts = tags[::_BLOCK]
            tag_of = dict(zip(nodes, tags))
            self._names = {
                name: _Run(group, list(map(tag_of.__getitem__, group)))
                for name, group in groups.items()
            }
            self._tag = tag_of
            self._last = last
            self._values = {}
            self._depths = None
            self._dirty = False
            self._stamp = self.document.structure_version
            self._metric_builds.increment()
            event.set(nodes=total)

    @property
    def stale(self) -> bool:
        """Whether a query right now would build the index (or raise)."""
        return self._dirty or self._stamp != self.document.structure_version

    def size(self) -> int:
        return len(self._tag)

    def nodes(self) -> List[XMLNode]:
        """Every element and attribute node in document order, brought
        up to date."""
        self.ensure_current()
        result: List[XMLNode] = []
        for block in self._blocks:
            result += block.nodes
        return result

    def named(self, name: str) -> List[XMLNode]:
        """The nodes called ``name``, in document order, brought up to date."""
        self.ensure_current()
        run = self._names.get(name)
        return list(run.nodes) if run is not None else []

    def explain_state(self) -> Tuple[str, str]:
        """``(strategy, reason)`` for a step issued right now.

        The strategy is always :attr:`STRATEGY`: the windows answer,
        also when the step first builds the index.  An index whose
        stamp is behind the document refuses instead, the one refusal
        every query and EXPLAIN plan goes through: it is counted and
        raised as :class:`StaleIndexError`.
        """
        if self._dirty:
            return (self.STRATEGY, "index built by the first step to run")
        if self._stamp != self.document.structure_version:
            self._refuse_stale(
                f"index stamp {self._stamp} is behind document "
                f"structure version {self.document.structure_version}: "
                f"it missed structural changes and refuses until "
                f"refresh()")
        return (self.STRATEGY, "window index current")

    # ------------------------------------------------------------------
    # Delta consumption (incremental maintenance)
    # ------------------------------------------------------------------

    def apply_delta(self, delta: StructuralDelta) -> None:
        """Fold one structural change into the index.

        The ``accelerator.splice`` event's ``touched`` attribute counts
        the per-node and per-block records the splice rewrote one by
        one: the node's own (each node a cut removes), the windows it
        extended or cut, the tags a closed gap relabelled, the value-map
        entries it added or removed and the block directory entries a
        split, cut or merge rewrote.  A shift inside one list is not
        counted.

        A delta more than one ``structure_version`` ahead of the stamp
        follows a change that was never published: the index splices
        and stamps nothing, and refuses until :meth:`refresh`.  Every
        delta follows a bump, so an index never built (stamp -1) skips
        them all the same way.
        """
        if delta.structure_version > self._stamp + 1:
            return
        with instrument("accelerator.splice", scheme=self._scheme_name,
                        kind=delta.kind) as event:
            self._touched = 0
            kind = delta.kind
            if kind == "insert":
                nodes = self._splice_insert(delta.node)
            elif kind == "delete":
                nodes = self._splice_delete(delta.node, delta.old_parent)
            elif kind == "rename":
                nodes = self._splice_rename(delta.node, delta.old_name)
            else:
                nodes = self._splice_value(delta.node, delta.old_value)
            if event:
                event.set(nodes=nodes, touched=self._touched)
        self._stamp = delta.structure_version

    def _splice_insert(self, node: XMLNode) -> int:
        """Give one freshly attached node its place in the order.

        Returns the nodes placed, 1, as do the other splices.
        """
        tag_of = self._tag
        parent = node.parent
        last = self._last
        # The node before it: the last descendant of its nearest indexed
        # preceding sibling, or the parent itself.
        before = parent
        siblings = parent.children
        index = siblings.index(node)
        while index:
            index -= 1
            sibling = siblings[index]
            if sibling in tag_of:
                before = last.get(sibling, sibling)
                break
        low = tag_of[before]
        firsts = self._firsts
        number = bisect_right(firsts, low) - 1
        block = self._blocks[number]
        tags = block.tags
        at = bisect_right(tags, low)
        if at < len(tags):
            high = tags[at]
        elif number + 1 < len(firsts):
            high = firsts[number + 1]
        else:
            high = None
        if high is None:
            tag = low + _TAG_GAP
        else:
            if high - low < 2:
                high = self._spread(number, at, low)
            tag = (low + high) >> 1
        block.nodes.insert(at, node)
        tags.insert(at, tag)
        tag_of[node] = tag
        touched = 1
        # Every window that ended at `before` and holds the node now
        # ends at it.
        ancestor = parent
        while ancestor is not None and last.get(ancestor, ancestor) is before:
            last[ancestor] = node
            touched += 1
            ancestor = ancestor.parent
        run = self._names.get(node.name)
        if run is None:
            self._names[node.name] = _Run([node], [tag])
        else:
            slot = bisect_right(run.tags, tag)
            run.nodes.insert(slot, node)
            run.tags.insert(slot, tag)
        if node.kind is _ATTRIBUTE:
            touched += self._value_add(node)
        if self._depths is not None:
            self._count_insert(node, parent)
        if len(tags) > 2 * _BLOCK:
            # Split the block in halves: one new directory entry.
            half = len(tags) // 2
            self._blocks.insert(number + 1,
                                _Run(block.nodes[half:], tags[half:]))
            firsts.insert(number + 1, tags[half])
            del block.nodes[half:]
            del tags[half:]
            touched += 1
        self._touched += touched
        self._metric_splices.increment()
        return 1

    def _spread(self, number: int, at: int, low: int) -> int:
        """Open a gap after tag ``low`` by relabelling the nodes after it.

        Dietz and Sleator's walk: with ``x_1, x_2, ...`` the nodes from
        position ``at`` of block ``number`` on, find the first ``x_j``
        whose tag exceeds ``low`` by more than ``j * j`` and space
        ``x_1 .. x_(j-1)`` evenly below it (past the last node,
        ``_TAG_GAP`` apart).  Only that enclosing range is relabelled,
        O(log n) amortised.  Returns the new tag of ``x_1``, at least 2
        above ``low``.
        """
        blocks = self._blocks
        moved: List[Tuple[int, int]] = []
        width: Optional[int] = None
        index = at
        while number < len(blocks):
            tags = blocks[number].tags
            if index == len(tags):
                number, index = number + 1, 0
                continue
            gap = tags[index] - low
            if gap > (len(moved) + 1) ** 2:
                width = gap
                break
            moved.append((number, index))
            index += 1
        count = len(moved) + 1
        tag_of = self._tag
        names = self._names
        firsts = self._firsts
        # Find every moved node in its name's run by its old tag first:
        # the new tags keep the order, but not each node's old value.
        slots = []
        for number, index in moved:
            run = names[blocks[number].nodes[index].name]
            node_tag = blocks[number].tags[index]
            slots.append((run, bisect_left(run.tags, node_tag)))
        for rank, ((number, index), (run, slot)) in enumerate(
                zip(moved, slots), 1):
            if width is None:
                tag = low + rank * _TAG_GAP
            else:
                tag = low + rank * width // count
            block = blocks[number]
            block.tags[index] = tag
            tag_of[block.nodes[index]] = tag
            run.tags[slot] = tag
            if not index:
                firsts[number] = tag
        self._touched += len(moved)
        number, index = moved[0]
        return blocks[number].tags[index]

    def _splice_delete(self, root: XMLNode, parent: XMLNode) -> int:
        """Cut one subtree, detached from ``parent``, out of the order."""
        tag_of = self._tag
        last = self._last
        end = last.get(root, root)
        blocks = self._blocks
        number, first = self._locate(root)
        final, stop = self._locate(end)
        stop += 1
        # The root element is never deleted, so a node precedes `root`.
        if first:
            before = blocks[number].nodes[first - 1]
        else:
            before = blocks[number - 1].nodes[-1]
        # The windows that ended at `end` (the old ancestors whose last
        # subtree this was) end at `before` now.  They sit on the chain
        # above `before`, past the nodes whose own windows end there.
        touched = 0
        node = before
        while node is not None and last.get(node, node) is before:
            node = node.parent
        while node is not None and last.get(node, node) is end:
            if node is before:
                del last[node]
            else:
                last[node] = before
            touched += 1
            node = node.parent
        block = blocks[number]
        if number == final:
            removed = block.nodes[first:stop]
        else:
            removed = block.nodes[first:]
            for inner in blocks[number + 1:final]:
                removed += inner.nodes
            tail = blocks[final]
            removed += tail.nodes[:stop]
            del tail.nodes[:stop]
            del tail.tags[:stop]
            touched += final - number - 1
            del blocks[number + 1:final]
            del self._firsts[number + 1:final]
            touched += self._rebalance(number + 1)
            stop = len(block.nodes)
        del block.nodes[first:stop]
        del block.tags[first:stop]
        low, high = tag_of[root], tag_of[end]
        names = self._names
        for name in {node.name for node in removed}:
            run = names[name]
            start = bisect_left(run.tags, low)
            stop = bisect_right(run.tags, high)
            del run.nodes[start:stop]
            del run.tags[start:stop]
            if not run.nodes:
                del names[name]
        for node in removed:
            del tag_of[node]
            last.pop(node, None)
            if node.kind is _ATTRIBUTE:
                touched += self._value_remove(node, node.name, node.value)
        if self._depths is not None:
            self._count_cut(removed, parent)
        touched += len(removed) + self._rebalance(number)
        self._touched += touched
        self._metric_splices.increment()
        return len(removed)

    def _rebalance(self, number: int) -> int:
        """Repair block ``number`` after a cut: drop it if empty, else
        refresh its first tag and fold a successor it fits with into it.
        Returns the directory entries rewritten."""
        blocks = self._blocks
        firsts = self._firsts
        block = blocks[number]
        if not block.nodes:
            del blocks[number]
            del firsts[number]
            return 1
        firsts[number] = block.tags[0]
        if (number + 1 == len(blocks)
                or len(block.nodes) + len(blocks[number + 1].nodes) > _BLOCK):
            return 0
        follower = blocks.pop(number + 1)
        del firsts[number + 1]
        block.nodes += follower.nodes
        block.tags += follower.tags
        return 1

    def _splice_rename(self, node: XMLNode, old_name: Optional[str]) -> int:
        """Move a renamed node from its old name's run to its new one's."""
        tag = self._tag[node]
        run = self._names[old_name]
        slot = bisect_left(run.tags, tag)
        del run.nodes[slot]
        del run.tags[slot]
        if not run.nodes:
            del self._names[old_name]
        run = self._names.get(node.name)
        if run is None:
            self._names[node.name] = _Run([node], [tag])
        else:
            slot = bisect_right(run.tags, tag)
            run.nodes.insert(slot, node)
            run.tags.insert(slot, tag)
        self._touched += 2
        if node.kind is _ATTRIBUTE:
            self._touched += (self._value_remove(node, old_name, node.value)
                              + self._value_add(node))
        return 1

    def _splice_value(self, node: XMLNode, old_value: Optional[str]) -> int:
        """Move an attribute from its old value's entry to its new one's."""
        self._touched += (self._value_remove(node, node.name, old_value)
                          + self._value_add(node))
        return 1

    # -- value maps ----------------------------------------------------------

    def _value_map(self, name: str) -> Dict[str, Set[XMLNode]]:
        """``name``'s value map, built from its run the first time."""
        values = self._values.get(name)
        if values is None:
            values = self._values[name] = {}
            run = self._names.get(name)
            for node in run.nodes if run is not None else ():
                if node.kind is _ATTRIBUTE:
                    values.setdefault(node.value, set()).add(node)
        return values

    def _value_add(self, node: XMLNode) -> int:
        """Enter an indexed attribute under its value, if its name has a
        map.  Returns the records written (0 or 1), as does removal."""
        values = self._values.get(node.name)
        if values is None:
            return 0
        values.setdefault(node.value, set()).add(node)
        return 1

    def _value_remove(self, node: XMLNode, name: str,
                      value: Optional[str]) -> int:
        """Take an attribute out of ``name``'s map, where it is entered
        under ``value``."""
        values = self._values.get(name)
        if values is None:
            return 0
        holders = values[value]
        holders.remove(node)
        if not holders:
            del values[value]
        return 1

    # -- statistics counts ---------------------------------------------------

    def counts(self) -> Optional[Tuple[Dict[str, int], int, List[int], int]]:
        """The structural counts of the cardinality statistics.

        ``(tag counts, attribute nodes, nodes at each depth, largest
        fan-out)``: the tag counts are the per-name lists' lengths, in
        the order of each list's first node (first appearance in
        document order), and the depth counts a list indexed by depth.
        The first read after a build counts the order once; the insert
        and delete splices keep the counts from then on, so a read
        costs O(names + depths + fan-out values).  Like
        :meth:`document_order`, it never builds, raises or counts a
        refusal: when the index was never built or its stamp is
        behind the document, it returns ``None`` and the caller walks
        the document.
        """
        if self.stale:
            return None
        if self._depths is None:
            self._build_counts()
        names = sorted(self._names.items(), key=lambda item: item[1].tags[0])
        return ({name: len(run.nodes) for name, run in names},
                self._attributes, list(self._depths),
                max(self._fanouts, default=0))

    def _build_counts(self) -> None:
        """Count the attributes, depths and fan-outs along the order."""
        depths, attributes, fanout = _tally(
            node for block in self._blocks for node in block.nodes)
        self._attributes = attributes
        self._depths = depths
        self._fanouts = Counter(fanout.values())

    def _refan(self, old: Optional[int], new: Optional[int]) -> None:
        """Move one element from fan-out ``old`` to ``new`` (``None``:
        into or out of the counts)."""
        fanouts = self._fanouts
        if old is not None:
            if fanouts[old] == 1:
                del fanouts[old]
            else:
                fanouts[old] -= 1
        if new is not None:
            fanouts[new] = fanouts.get(new, 0) + 1

    def _count_insert(self, node: XMLNode, parent: XMLNode) -> None:
        """Count one node just placed under ``parent``.  Its indexed
        children are placed after it (inserts arrive in preorder), so an
        element enters with fan-out 0."""
        depth = node.depth()
        depths = self._depths
        if depth == len(depths):
            depths.append(1)
        else:
            depths[depth] += 1
        fanout = sum(map(self._tag.__contains__, parent.children))
        self._refan(fanout - 1, fanout)
        if node.kind is _ATTRIBUTE:
            self._attributes += 1
        else:
            self._refan(None, 0)

    def _count_cut(self, removed: List[XMLNode], parent: XMLNode) -> None:
        """Uncount a cut subtree's nodes (``removed``, in document order)
        and its root's place in ``parent``'s fan-out."""
        depths, attributes, fanout = _tally(removed)
        own = self._depths
        for depth, count in enumerate(depths, parent.depth() + 1):
            own[depth] -= count
        while own and not own[-1]:
            own.pop()
        self._attributes -= attributes
        for count in fanout.values():
            self._refan(count, None)
        count = sum(map(self._tag.__contains__, parent.children))
        self._refan(count + 1, count)

    # ------------------------------------------------------------------
    # Staleness gate
    # ------------------------------------------------------------------

    def _refuse_stale(self, message: str) -> NoReturn:
        """Count one staleness refusal and raise it as an error event."""
        self._metric_stale.increment()
        with instrument("accelerator.stale_refusal",
                        scheme=self._scheme_name, message=message):
            raise StaleIndexError(message)

    def ensure_current(self) -> None:
        """Build the index if it was never built, or refuse through
        :meth:`explain_state` if it cannot answer right now."""
        if not self._dirty and self._stamp == self.document.structure_version:
            return  # current: the check every axis step makes
        self.explain_state()
        if self._dirty:
            self.refresh()

    # ------------------------------------------------------------------
    # Result ordering
    # ------------------------------------------------------------------

    def document_order(self, nodes: List[XMLNode]) -> Optional[List[XMLNode]]:
        """``nodes`` sorted into document order by their order tags.

        O(k log k) in ``len(nodes)``, whatever the document size.  The
        index only vouches for tags a query would be answered from:
        when it was never built, its stamp is behind the
        document's ``structure_version``, or a node is not on the index
        (by identity, as for axis queries), this returns ``None`` and
        the caller orders the nodes another way.  It never rebuilds,
        raises or counts a refusal.
        """
        if self.stale:
            return None
        tag_of = self._tag
        for node in nodes:
            if node not in tag_of:
                return None
        return sorted(nodes, key=tag_of.__getitem__)

    # ------------------------------------------------------------------
    # Axis queries
    # ------------------------------------------------------------------

    def evaluate(self, axis: str, node: XMLNode, name: Optional[str] = None,
                 attribute: Optional[Tuple[str, str]] = None
                 ) -> List[XMLNode]:
        """All nodes on ``axis`` from ``node``, in document order.

        With ``name``, only the nodes called ``name`` (of any kind):
        the descendant, descendant-or-self, following and preceding
        axes then read that name's run of the order instead of the
        whole window.  With ``attribute``, a ``(name, value)`` pair,
        only the elements carrying that attribute with that value: the
        child, descendant and descendant-or-self axes then read the
        owners of the value from the attribute name's map, unless the
        value has more attribute nodes than the axis has rows (named
        rows, with ``name``) to filter.
        """
        handler = _HANDLERS.get(axis)
        if handler is None:
            raise UnsupportedRelationshipError(f"unknown axis {axis!r}")
        self.ensure_current()
        self._metric_queries.increment()
        if node not in self._tag:
            self._refuse_stale(
                f"node {node.node_id} is not on the index "
                f"(refresh needed?)"
            )
        if attribute is not None and axis in _VALUE_AXES:
            owners = self._owners(axis, node, name, attribute)
            if owners is not None:
                return owners
        if axis in _NAMED_AXES:
            nodes = getattr(self, handler)(node, name)
        else:
            nodes = getattr(self, handler)(node)
            if name is not None:
                nodes = [other for other in nodes if other.name == name]
        if attribute is None:
            return nodes
        return with_attribute(nodes, *attribute)

    def _owners(self, axis: str, node: XMLNode, name: Optional[str],
                attribute: Tuple[str, str]) -> Optional[List[XMLNode]]:
        """The elements on a value axis from ``node`` that carry
        ``attribute``, read from its value map, in document order;
        ``None`` when filtering the axis rows reads fewer nodes."""
        attribute_name, value = attribute
        holders = self._value_map(attribute_name).get(value, ())
        if len(holders) > self._rows(axis, node, name):
            return None
        tag_of = self._tag
        if axis == "child":
            owners = [holder.parent for holder in holders
                      if holder.parent.parent is node]
        else:
            low = tag_of[node] + (axis == "descendant")
            high = tag_of[self._last.get(node, node)]
            owners = [owner for owner in (holder.parent for holder in holders)
                      if low <= tag_of[owner] <= high]
        if name is not None:
            owners = [owner for owner in owners if owner.name == name]
        if len(owners) < 2:
            return owners
        # An element carries one attribute of a name, or several (the
        # update layer refuses a repeat, a tree built in code need not);
        # list it once.
        return sorted(set(owners), key=tag_of.__getitem__)

    def _rows(self, axis: str, node: XMLNode, name: Optional[str]) -> int:
        """The rows a filter of a value axis from ``node`` would read:
        the context's children on child, else the nodes of its window,
        itself included, called ``name`` (all of them without one)."""
        if axis == "child":
            return len(node.children)
        end = self._last.get(node, node)
        if name is not None:
            run = self._names.get(name)
            if run is None:
                return 0
            tag_of = self._tag
            return (bisect_right(run.tags, tag_of[end])
                    - bisect_left(run.tags, tag_of[node]))
        number, first = self._locate(node)
        final, stop = self._locate(end)
        rows = stop + 1 - first
        for block in self._blocks[number:final]:
            rows += len(block.tags)
        return rows

    # -- windows -----------------------------------------------------------

    def _locate(self, node: XMLNode) -> Tuple[int, int]:
        """``(block number, position in the block)`` of an indexed node."""
        tag = self._tag[node]
        number = bisect_right(self._firsts, tag) - 1
        return number, bisect_left(self._blocks[number].tags, tag)

    def _between(self, number: int, first: int,
                 final: Optional[int], stop: int) -> List[XMLNode]:
        """The order from position ``first`` of block ``number`` up to,
        not including, position ``stop`` of block ``final`` (``None``:
        to the end)."""
        blocks = self._blocks
        if number == final:
            return blocks[number].nodes[first:stop]
        result = blocks[number].nodes[first:]
        for block in blocks[number + 1:final]:
            result += block.nodes
        if final is not None:
            result += blocks[final].nodes[:stop]
        return result

    def _run_range(self, name: str, low: int, high: Optional[int],
                   inclusive: bool) -> List[XMLNode]:
        """``name``'s nodes with tags above ``low`` (or equal, when
        ``inclusive``) and at most ``high`` (``None``: no bound)."""
        run = self._names.get(name)
        if run is None:
            return []
        tags = run.tags
        start = (bisect_left if inclusive else bisect_right)(tags, low)
        if high is None:
            return run.nodes[start:]
        return run.nodes[start:bisect_right(tags, high)]

    @staticmethod
    def _chain(node: XMLNode) -> List[XMLNode]:
        """The ancestors of ``node``, root first."""
        chain = []
        ancestor = node.parent
        while ancestor is not None:
            chain.append(ancestor)
            ancestor = ancestor.parent
        chain.reverse()
        return chain

    # -- axes --------------------------------------------------------------

    def _axis_self(self, node: XMLNode) -> List[XMLNode]:
        return [node]

    def _axis_attribute(self, node: XMLNode) -> List[XMLNode]:
        return node.attributes()

    def _axis_descendant(self, node: XMLNode,
                         name: Optional[str]) -> List[XMLNode]:
        end = self._last.get(node)
        if end is None:
            return []
        if name is not None:
            tag_of = self._tag
            return self._run_range(name, tag_of[node], tag_of[end], False)
        number, first = self._locate(node)
        final, stop = self._locate(end)
        return self._between(number, first + 1, final, stop + 1)

    def _axis_descendant_or_self(self, node: XMLNode,
                                 name: Optional[str]) -> List[XMLNode]:
        end = self._last.get(node, node)
        if name is not None:
            tag_of = self._tag
            return self._run_range(name, tag_of[node], tag_of[end], True)
        number, first = self._locate(node)
        final, stop = self._locate(end)
        return self._between(number, first, final, stop + 1)

    def _axis_following(self, node: XMLNode,
                        name: Optional[str]) -> List[XMLNode]:
        end = self._last.get(node, node)
        if name is not None:
            return self._run_range(name, self._tag[end], None, False)
        number, stop = self._locate(end)
        return self._between(number, stop + 1, None, 0)

    def _axis_preceding(self, node: XMLNode,
                        name: Optional[str]) -> List[XMLNode]:
        # Every node before this one but its ancestors: the stretches
        # between consecutive members of the ancestor chain.
        chain = self._chain(node)
        if name is not None:
            result = self._run_range(name, 0, self._tag[node] - 1, True)
            named = {ancestor for ancestor in chain if ancestor.name == name}
            if named:
                result = [other for other in result if other not in named]
            return result
        chain.append(node)
        result: List[XMLNode] = []
        for upper, lower in zip(chain, chain[1:]):
            number, first = self._locate(upper)
            final, stop = self._locate(lower)
            result += self._between(number, first + 1, final, stop)
        return result

    def _axis_ancestor(self, node: XMLNode) -> List[XMLNode]:
        return self._chain(node)

    def _axis_ancestor_or_self(self, node: XMLNode) -> List[XMLNode]:
        chain = self._chain(node)
        chain.append(node)
        return chain

    def _axis_parent(self, node: XMLNode) -> List[XMLNode]:
        return [node.parent] if node.parent is not None else []

    def _axis_child(self, node: XMLNode,
                    name: Optional[str]) -> List[XMLNode]:
        tag_of = self._tag
        if name is None:
            return [child for child in node.children if child in tag_of]
        return [child for child in node.children
                if child.name == name and child in tag_of]

    def _axis_following_sibling(self, node: XMLNode) -> List[XMLNode]:
        parent = node.parent
        if parent is None:
            return []
        siblings = parent.children
        tag_of = self._tag
        return [sibling for sibling in siblings[siblings.index(node) + 1:]
                if sibling in tag_of]

    def _axis_preceding_sibling(self, node: XMLNode) -> List[XMLNode]:
        parent = node.parent
        if parent is None:
            return []
        siblings = parent.children
        tag_of = self._tag
        return [sibling for sibling in siblings[:siblings.index(node)]
                if sibling in tag_of]
