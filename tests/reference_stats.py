"""``StatsCollector.refresh`` as it was before the single-pass walk.

:func:`reference_refresh` is the original loop: one pass over
``labeled_nodes()`` that calls ``depth()`` and ``labeled_children()``
on every node.  It is the oracle for the explicit-stack walk, which
must produce the same fields, dict insertion order included.
:func:`fields` lists every structural field for comparison, and
:func:`counted` counts which path answered a refresh: the walk, or the
structural index's counts (and their build).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Dict

import pytest

from repro.axes.accelerator import AxisAccelerator
from repro.observability.stats import StatsCollector


def reference_refresh(stats, ldoc) -> None:
    """Recompute ``stats``' structural counts the original way."""
    node_count = 0
    element_count = 0
    attribute_count = 0
    max_depth = 0
    depth_total = 0
    fanout_max = 0
    fanout_total = 0
    tag_counts: Dict[str, int] = {}
    depth_histogram: Dict[int, int] = {}
    for node in ldoc.document.labeled_nodes():
        node_count += 1
        if node.is_attribute:
            attribute_count += 1
        else:
            element_count += 1
            children = len(node.labeled_children())
            fanout_total += children
            if children > fanout_max:
                fanout_max = children
        depth = node.depth()
        depth_total += depth
        if depth > max_depth:
            max_depth = depth
        tag_counts[node.name] = tag_counts.get(node.name, 0) + 1
        depth_histogram[depth] = depth_histogram.get(depth, 0) + 1
    stats.node_count = node_count
    stats.element_count = element_count
    stats.attribute_count = attribute_count
    stats.max_depth = max_depth
    stats.depth_total = depth_total
    stats.fanout_max = fanout_max
    stats.fanout_mean = fanout_total / max(1, element_count)
    stats.tag_counts = tag_counts
    stats.depth_histogram = depth_histogram


def fields(stats):
    """Every structural field, dicts as ordered item lists."""
    return (
        stats.node_count, stats.element_count, stats.attribute_count,
        stats.max_depth, stats.depth_total, stats.fanout_max,
        stats.fanout_mean, list(stats.tag_counts.items()),
        list(stats.depth_histogram.items()),
    )


@contextmanager
def counted():
    """Count the statistics walks and the index's counts builds."""
    calls = Counter()
    walk, build = StatsCollector._walk, AxisAccelerator._build_counts

    def counted_walk(ldoc):
        calls["walk"] += 1
        return walk(ldoc)

    def counted_build(index):
        calls["build"] += 1
        build(index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StatsCollector, "_walk", staticmethod(counted_walk))
        patch.setattr(AxisAccelerator, "_build_counts", counted_build)
        yield calls
