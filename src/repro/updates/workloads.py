"""Update workloads: the section 5.1 insertion scenarios, made executable.

The Compact Encoding property speaks of "various update scenarios such
as: frequent random updates, frequent uniform updates and skewed frequent
updates (frequent updates at a fixed position)".  Each function drives a
:class:`~repro.updates.document.LabeledDocument` through one of those
scenarios and reports what happened to the label space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import LabelCollisionError
from repro.updates.document import LabeledDocument
from repro.xmlmodel.generator import random_tag
from repro.xmlmodel.tree import XMLNode


@dataclass
class WorkloadResult:
    """What one workload did to a labelled document."""

    operations: int
    relabeled_nodes: int
    relabel_events: int
    overflow_events: int
    collisions: int
    total_bits_before: int
    total_bits_after: int
    max_label_bits: int
    inserted_label_bits: List[int]

    @property
    def bits_per_insert(self) -> float:
        """Mean storage of the labels this workload created."""
        if not self.inserted_label_bits:
            return 0.0
        return sum(self.inserted_label_bits) / len(self.inserted_label_bits)

    @property
    def final_insert_bits(self) -> int:
        """Size of the last inserted label — the skewed growth frontier."""
        return self.inserted_label_bits[-1] if self.inserted_label_bits else 0


def run_insert_thunks(ldoc: LabeledDocument, inserts) -> WorkloadResult:
    """Drive the insert thunks, recording per-insert label sizes."""
    before_bits = ldoc.total_label_bits()
    before = ldoc.log
    start_relabeled = before.relabeled_nodes
    start_events = before.relabel_events
    start_overflow = before.overflow_events
    start_collisions = before.collisions
    inserted_bits: List[int] = []
    operations = 0
    for insert in inserts:
        try:
            node = insert()
        except LabelCollisionError:
            # Recorded in the log; the workload carries on where possible.
            operations += 1
            continue
        operations += 1
        if node is not None:
            inserted_bits.append(
                ldoc.scheme.label_size_bits(ldoc.labels[node.node_id])
            )
    return WorkloadResult(
        operations=operations,
        relabeled_nodes=ldoc.log.relabeled_nodes - start_relabeled,
        relabel_events=ldoc.log.relabel_events - start_events,
        overflow_events=ldoc.log.overflow_events - start_overflow,
        collisions=ldoc.log.collisions - start_collisions,
        total_bits_before=before_bits,
        total_bits_after=ldoc.total_label_bits(),
        max_label_bits=ldoc.max_label_bits(),
        inserted_label_bits=inserted_bits,
    )


def skewed_insertions(ldoc: LabeledDocument, count: int,
                      anchor: Optional[XMLNode] = None,
                      name: str = "skew") -> WorkloadResult:
    """Frequent insertions at one fixed position.

    Every insertion lands immediately before ``anchor`` (default: the
    last child of the root), so the scheme must keep generating labels
    inside the same ever-narrowing interval — the scenario under which
    the survey compares the vector scheme's growth with QED's.
    """
    target = anchor or _default_anchor(ldoc)
    return run_insert_thunks(ldoc, (
        lambda: ldoc.updates.insert_before(target, name).node
        for _ in range(count)
    ))


def prepend_insertions(ldoc: LabeledDocument, count: int,
                       parent: Optional[XMLNode] = None,
                       name: str = "front") -> WorkloadResult:
    """Repeated insertion before the first child (one-sided skew)."""
    target = parent if parent is not None else ldoc.document.root
    return run_insert_thunks(ldoc, (
        lambda: ldoc.updates.prepend_child(target, name).node
        for _ in range(count)
    ))


def append_insertions(ldoc: LabeledDocument, count: int,
                      parent: Optional[XMLNode] = None,
                      name: str = "back") -> WorkloadResult:
    """Repeated insertion after the last child (the other one-sided skew)."""
    target = parent if parent is not None else ldoc.document.root
    return run_insert_thunks(ldoc, (
        lambda: ldoc.updates.append_child(target, name).node
        for _ in range(count)
    ))


def random_insertions(ldoc: LabeledDocument, count: int,
                      seed: int = 0) -> WorkloadResult:
    """Frequent random updates: parent and position drawn per insert."""
    rng = random.Random(seed)

    def inserts():
        for _ in range(count):
            def one_insert():
                elements = [
                    node for node in ldoc.document.all_nodes() if node.is_element
                ]
                parent = rng.choice(elements)
                children = parent.element_children()
                tag = random_tag(rng)
                if not children:
                    return ldoc.updates.append_child(parent, tag).node
                pivot = rng.choice(children)
                if rng.random() < 0.5:
                    return ldoc.updates.insert_before(pivot, tag).node
                return ldoc.updates.insert_after(pivot, tag).node

            yield one_insert

    return run_insert_thunks(ldoc, inserts())


def uniform_insertions(ldoc: LabeledDocument, count: int) -> WorkloadResult:
    """Frequent uniform updates: spread evenly across existing elements."""
    elements = [node for node in ldoc.document.all_nodes() if node.is_element]

    def inserts():
        for position in range(count):
            parent = elements[position % len(elements)]
            yield lambda parent=parent: ldoc.updates.append_child(
                parent, "uni").node

    return run_insert_thunks(ldoc, inserts())


def churn(ldoc: LabeledDocument, count: int, seed: int = 0,
          delete_ratio: float = 0.3) -> WorkloadResult:
    """A mixed insert/delete workload (persistence under deletions)."""
    rng = random.Random(seed)

    def inserts():
        for _ in range(count):
            def one_step():
                root = ldoc.document.root
                deletable = [
                    node for node in root.descendants() if node.is_element
                ]
                if deletable and rng.random() < delete_ratio:
                    ldoc.updates.delete(rng.choice(deletable))
                    return None
                elements = [
                    node for node in ldoc.document.all_nodes() if node.is_element
                ]
                return ldoc.updates.append_child(
                    rng.choice(elements), random_tag(rng)).node

            yield one_step

    return run_insert_thunks(ldoc, inserts())


def _default_anchor(ldoc: LabeledDocument) -> XMLNode:
    root = ldoc.document.root
    children = root.element_children()
    if not children:
        raise ValueError("skewed workload needs at least one root child")
    return children[-1]
