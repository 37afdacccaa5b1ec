"""Label-growth experiments: the section 5 Vector-versus-QED comparison.

"The authors provide empirical evidence to show that the update
processing costs are less expensive than QED and in particular, under
skewed insertions (frequent insertions at a fixed position), the vector
label growth rate is much slower than QED under similar conditions."

:func:`skewed_growth_series` measures exactly that: the size of the
newly inserted label as a function of how many insertions have hit the
same position.  The claim benchmark asserts the orderings (Vector stays
logarithmic while the string schemes grow linearly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.data.sample import sample_document
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import Document


@dataclass(frozen=True)
class GrowthPoint:
    """One sample of a growth series."""

    inserts: int
    frontier_bits: int
    total_bits: int
    relabeled_nodes: int


def skewed_growth_series(scheme_name: str, total_inserts: int,
                         step: int = 20,
                         document_factory: Callable[[], Document] = sample_document,
                         ) -> List[GrowthPoint]:
    """Frontier label size sampled every ``step`` skewed insertions.

    All insertions land immediately before the same fixed node (the
    root's last child), the survey's "frequent updates at a fixed
    position" scenario.
    """
    ldoc = LabeledDocument(
        document_factory(), make_scheme(scheme_name), on_collision="record"
    )
    anchor = ldoc.document.root.element_children()[-1]
    series: List[GrowthPoint] = []
    for count in range(1, total_inserts + 1):
        node = ldoc.updates.insert_before(anchor, "skew").node
        if count % step == 0 or count == total_inserts:
            series.append(
                GrowthPoint(
                    inserts=count,
                    frontier_bits=ldoc.scheme.label_size_bits(
                        ldoc.labels[node.node_id]
                    ),
                    total_bits=ldoc.total_label_bits(),
                    relabeled_nodes=ldoc.log.relabeled_nodes,
                )
            )
    return series


def growth_table(scheme_names: Sequence[str], total_inserts: int,
                 step: int = 40) -> Dict[str, List[GrowthPoint]]:
    """Skewed growth series for several schemes over identical inputs."""
    return {
        name: skewed_growth_series(name, total_inserts, step=step)
        for name in scheme_names
    }


def render_growth_table(table: Dict[str, List[GrowthPoint]]) -> str:
    """Rows = insert counts, columns = schemes, cells = frontier bits."""
    if not table:
        return ""
    counts = [point.inserts for point in next(iter(table.values()))]
    names = list(table)
    header = ["inserts"] + names
    rows = []
    for index, count in enumerate(counts):
        rows.append(
            [str(count)] + [str(table[name][index].frontier_bits) for name in names]
        )
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines.extend(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    )
    return "\n".join(lines)


def linearity_ratio(series: List[GrowthPoint]) -> float:
    """Frontier bits per insert over the tail of a series.

    Roughly 1+ for the string schemes under skew (ImprovedBinary adds a
    bit per insert, QED two per two), near zero for Vector — the
    measurable form of the survey's growth-rate claim.
    """
    if len(series) < 2:
        return 0.0
    first, last = series[0], series[-1]
    spread = last.inserts - first.inserts
    if spread <= 0:
        return 0.0
    return (last.frontier_bits - first.frontier_bits) / spread
