"""Per-document cardinality statistics: the planner's evidence base.

Mahboubi & Darmont's survey of XML indexing makes index *selection* a
statistics problem; this module supplies the statistics.  A
:class:`StatsCollector` summarises one labelled document structurally —
node counts by tag, a depth histogram, child fan-out — and learns
per-axis selectivities from observed query results (every
``explain(..., analyze=True)`` run feeds actual cardinalities back).
Both halves drive the ``estimated_rows`` column of the EXPLAIN plans in
:mod:`repro.observability.explain`.

The structural estimates need no magic: because every labelled node has
exactly one parent, the sum of subtree sizes equals the sum of
``depth + 1`` over all nodes, so the *average descendant count per node
is exactly the average depth* — ancestor counts likewise.  Child steps
use the mean fan-out, sibling steps half the fan-out, and name tests
scale by the tag's global frequency.  Learned selectivities override
the structural model per ``(axis, name-test)`` pair once a query has
actually run.

Statistics persist: :meth:`to_payload` / :meth:`from_payload` round-trip
through JSON, and :class:`~repro.store.snapshots.Snapshot` carries the
payload through every storage backend alongside the label stream.  A
refresh stamps the collector with the document's ``structure_version``,
which every attach, detach, rename and attribute-value update advances;
:meth:`stale` compares the stamp with the document and :meth:`refresh`
recomputes the structure while keeping what was learned.  A collector
restored from a payload carries no stamp until :meth:`stamp` or
:meth:`refresh` gives it one.  While the document's structural index is
current, its maintained counts answer a refresh
(:meth:`~repro.axes.accelerator.AxisAccelerator.counts`); otherwise one
walk over the element and attribute nodes does.
"""

from __future__ import annotations

from operator import mul
from typing import Any, Dict, List, Optional, Tuple

from repro.xmlmodel.tree import NodeKind

__all__ = [
    "STATS_SCHEMA_VERSION",
    "StatsCollector",
    "render_stats",
]

#: Version stamp of the persisted statistics payload.
STATS_SCHEMA_VERSION = 1


class StatsCollector:
    """Structural counts plus learned selectivities for one document.

    Build with :meth:`collect`; feed observed cardinalities through
    :meth:`observe`; ask for predictions with :meth:`estimate_step`.
    The collector never holds node references — only counts — so it is
    safe to persist and to keep across document mutations (check
    :meth:`stale`, call :meth:`refresh`).
    """

    def __init__(self) -> None:
        self.node_count = 0
        self.element_count = 0
        self.attribute_count = 0
        self.max_depth = 0
        self.depth_total = 0
        self.fanout_max = 0
        self.fanout_mean = 0.0
        self.tag_counts: Dict[str, int] = {}
        self.depth_histogram: Dict[int, int] = {}
        # "(axis)|(name test)" -> cumulative {"contexts", "rows", "samples"}
        self.selectivities: Dict[str, Dict[str, float]] = {}
        #: The document's structure_version when the counts were taken
        #: (None: never stamped, e.g. restored from a payload).
        self._version: Optional[int] = None

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    @classmethod
    def collect(cls, ldoc) -> "StatsCollector":
        """Walk one labelled document and summarise its structure."""
        stats = cls()
        stats.refresh(ldoc)
        return stats

    def refresh(self, ldoc) -> None:
        """Recompute the structural counts; learned selectivities stay.

        While the document's structural index is current, its counts
        answer in O(names + depths + fan-out values).  In every other
        state (no index yet, an index marked for rebuild or behind the
        document) :meth:`_walk` counts the tree.  Neither builds the
        index.  Either way the counts take in a batch's pending nodes.
        """
        index = ldoc._accelerator  # created by the first query, if any
        counts = None if index is None else index.counts()
        if counts is None:
            counts = self._walk(ldoc)
        tag_counts, attribute_count, depths, fanout_max = counts
        node_count = sum(depths)
        element_count = node_count - attribute_count
        self.node_count = node_count
        self.element_count = element_count
        self.attribute_count = attribute_count
        self.max_depth = max(0, len(depths) - 1)
        self.depth_total = sum(map(mul, range(len(depths)), depths))
        self.fanout_max = fanout_max
        # Every labelled node but the root is one element's child.
        self.fanout_mean = max(0, node_count - 1) / max(1, element_count)
        self.tag_counts = tag_counts
        self.depth_histogram = dict(enumerate(depths))
        self.stamp(ldoc)

    @staticmethod
    def _walk(ldoc) -> Tuple[Dict[str, int], int, List[int], int]:
        """The counts :meth:`refresh` reads, by one preorder walk.

        ``(tag counts, attribute nodes, nodes at each depth, largest
        fan-out)``, as the index's counts.  An explicit ``(node,
        depth)`` stack: pushing an element's labelled children (in
        reverse, so they pop in document order) is also what counts
        its fan-out.  Text, comment and PI nodes have no labelled
        descendants, so the walk never visits them.
        """
        attribute_count = 0
        fanout_max = 0
        tag_counts: Dict[str, int] = {}
        depths: List[int] = []
        root = ldoc.document.root
        stack = [(root, 0)] if root is not None else []
        pop, push = stack.pop, stack.append
        element, attribute = NodeKind.ELEMENT, NodeKind.ATTRIBUTE
        while stack:
            node, depth = pop()
            if node.kind is attribute:
                attribute_count += 1
            else:
                children = 0
                below = depth + 1
                for child in reversed(node.children):
                    kind = child.kind
                    if kind is element or kind is attribute:
                        children += 1
                        push((child, below))
                if children > fanout_max:
                    fanout_max = children
            name = node.name
            tag_counts[name] = tag_counts.get(name, 0) + 1
            # Preorder reaches each depth first from the one above it.
            if depth == len(depths):
                depths.append(1)
            else:
                depths[depth] += 1
        return tag_counts, attribute_count, depths, fanout_max

    def stale(self, ldoc) -> bool:
        """Whether the document has changed since the counts' stamp."""
        return self._version != ldoc.document.structure_version

    def stamp(self, ldoc) -> None:
        """Mark the counts current for ``ldoc`` as it stands, unrecounted.

        For a collector restored with its document: a snapshot refreshes
        stale statistics before persisting them.
        """
        self._version = ldoc.document.structure_version

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    @property
    def average_depth(self) -> float:
        """Mean depth over labelled nodes — also the mean descendant
        (and ancestor) count per node; see the module docstring."""
        return self.depth_total / max(1, self.node_count)

    def name_fraction(self, name_test: str) -> float:
        """The fraction of labelled nodes a name test keeps."""
        if self.node_count == 0:
            return 0.0
        if name_test == "*":
            # '*' selects elements on every non-attribute axis.
            return self.element_count / self.node_count
        return self.tag_counts.get(name_test, 0) / self.node_count

    def _axis_base(self, axis: str) -> float:
        """Expected axis population per context node, before name tests."""
        if axis in ("self", "parent"):
            return 1.0
        if axis == "child":
            return self.fanout_mean
        if axis == "descendant":
            return self.average_depth
        if axis == "descendant-or-self":
            return self.average_depth + 1.0
        if axis == "ancestor":
            return self.average_depth
        if axis == "ancestor-or-self":
            return self.average_depth + 1.0
        if axis in ("following", "preceding"):
            return max(0.0, (self.node_count - 1) / 2.0)
        if axis in ("following-sibling", "preceding-sibling"):
            return max(0.0, (self.fanout_mean - 1.0) / 2.0)
        if axis == "attribute":
            return self.attribute_count / max(1, self.element_count)
        return 1.0

    def estimate_step(self, axis: str, name_test: str,
                      context_size: float, from_root: bool = False) -> float:
        """Predicted output rows for one location step.

        A learned selectivity for this exact ``(axis, name test)`` pair
        wins outright; otherwise the structural model multiplies the
        axis's expected population by the name test's global frequency.
        ``from_root`` marks an absolute path's first step, where a
        descendant axis sweeps the whole document — the tag population
        is then the exact answer, not a per-node average.
        """
        record = self.selectivities.get(self._key(axis, name_test))
        if record is not None and record["contexts"] > 0:
            return context_size * record["rows"] / record["contexts"]
        if from_root and axis in ("descendant", "descendant-or-self"):
            if name_test == "*":
                return float(self.element_count)
            return float(self.tag_counts.get(name_test, 0))
        if axis == "attribute":
            if name_test == "*":
                return context_size * self._axis_base(axis)
            fraction = (self.tag_counts.get(name_test, 0)
                        / max(1, self.attribute_count))
            return context_size * self._axis_base(axis) * fraction
        return context_size * self._axis_base(axis) \
            * self.name_fraction(name_test)

    def observe(self, axis: str, name_test: str, context_size: int,
                actual_rows: int) -> None:
        """Fold one observed step cardinality into the learned model."""
        if context_size <= 0:
            return
        key = self._key(axis, name_test)
        record = self.selectivities.setdefault(
            key, {"contexts": 0, "rows": 0, "samples": 0})
        record["contexts"] += context_size
        record["rows"] += actual_rows
        record["samples"] += 1

    @staticmethod
    def _key(axis: str, name_test: str) -> str:
        return f"{axis}|{name_test}"

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict (what the storage backends persist)."""
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "node_count": self.node_count,
            "element_count": self.element_count,
            "attribute_count": self.attribute_count,
            "max_depth": self.max_depth,
            "depth_total": self.depth_total,
            "fanout_max": self.fanout_max,
            "fanout_mean": self.fanout_mean,
            "tag_counts": dict(self.tag_counts),
            # JSON keys are strings; from_payload undoes the cast.
            "depth_histogram": {
                str(depth): count
                for depth, count in self.depth_histogram.items()
            },
            "selectivities": {
                key: dict(record)
                for key, record in self.selectivities.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: Optional[Dict[str, Any]]
                     ) -> Optional["StatsCollector"]:
        """Rebuild a collector from a persisted payload (None-safe)."""
        if not payload:
            return None
        stats = cls()
        stats.node_count = int(payload.get("node_count", 0))
        stats.element_count = int(payload.get("element_count", 0))
        stats.attribute_count = int(payload.get("attribute_count", 0))
        stats.max_depth = int(payload.get("max_depth", 0))
        stats.depth_total = int(payload.get("depth_total", 0))
        stats.fanout_max = int(payload.get("fanout_max", 0))
        stats.fanout_mean = float(payload.get("fanout_mean", 0.0))
        stats.tag_counts = {
            str(name): int(count)
            for name, count in (payload.get("tag_counts") or {}).items()
        }
        stats.depth_histogram = {
            int(depth): int(count)
            for depth, count in (payload.get("depth_histogram") or {}).items()
        }
        stats.selectivities = {
            str(key): {
                "contexts": float(record.get("contexts", 0)),
                "rows": float(record.get("rows", 0)),
                "samples": int(record.get("samples", 0)),
            }
            for key, record in (payload.get("selectivities") or {}).items()
        }
        return stats


def render_stats(stats: StatsCollector, top: int = 12) -> str:
    """Plain-text statistics summary (the ``repro stats`` output)."""
    lines = [
        f"{stats.node_count} labelled nodes "
        f"({stats.element_count} elements, "
        f"{stats.attribute_count} attributes), "
        f"max depth {stats.max_depth}, "
        f"mean depth {stats.average_depth:.2f}",
        f"fan-out: mean {stats.fanout_mean:.2f}, max {stats.fanout_max}",
        "",
        f"{'tag':24s} {'count':>8s} {'fraction':>9s}",
    ]
    ranked = sorted(stats.tag_counts.items(),
                    key=lambda item: (-item[1], item[0]))
    for name, count in ranked[:top]:
        lines.append(f"{name:24s} {count:8d} "
                     f"{count / max(1, stats.node_count):9.3f}")
    if len(ranked) > top:
        lines.append(f"... {len(ranked) - top} more tag(s)")
    lines.append("")
    lines.append("depth histogram: " + " ".join(
        f"{depth}:{stats.depth_histogram[depth]}"
        for depth in sorted(stats.depth_histogram)))
    if stats.selectivities:
        lines.append("")
        lines.append(f"{'learned selectivity':34s} {'samples':>8s} "
                     f"{'rows/context':>13s}")
        for key in sorted(stats.selectivities):
            record = stats.selectivities[key]
            ratio = record["rows"] / max(1.0, record["contexts"])
            lines.append(f"{key:34s} {record['samples']:8.0f} "
                         f"{ratio:13.3f}")
    return "\n".join(lines)
