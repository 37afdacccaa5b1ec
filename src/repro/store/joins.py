"""Structural joins over labels — the query-side payoff of labelling.

The survey motivates labelling schemes with "efficient XML query pattern
matching"; its reference [1] (Al-Khalifa et al., *Structural Joins: A
Primitive for Efficient XML Query Pattern Matching*, ICDE 2002) is the
canonical algorithm.  This module implements both the naive nested-loop
join and a stack-based merge join in the Stack-Tree-Desc style, driven
entirely by a scheme's ``compare`` and ``is_ancestor`` — so it runs
unmodified over containment, prefix and vector labels, which is the
whole point of label-decidable relationships (section 2.2).

Each join run increments a ``store.joins.*`` counter in the global
metrics registry.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.schemes.base import LabelingScheme

#: A labelled item: (label, payload); the join never inspects payloads.
Item = Tuple[Any, Any]


def nested_loop_join(scheme: LabelingScheme, ancestors: Sequence[Item],
                     descendants: Sequence[Item]) -> List[Tuple[Any, Any]]:
    """The O(|A| * |D|) baseline: test every pair."""
    get_registry().counter("store.joins.nested_loop").increment()
    with instrument("store.join.nested_loop", scheme=scheme.metadata.name,
                    ancestors=len(ancestors),
                    descendants=len(descendants)) as event:
        is_ancestor = scheme.is_ancestor
        output = [
            (a_payload, d_payload)
            for a_label, a_payload in ancestors
            for d_label, d_payload in descendants
            if is_ancestor(a_label, d_label)
        ]
        event.set(nodes=len(output))
        return output


def stack_tree_join(scheme: LabelingScheme, ancestors: Sequence[Item],
                    descendants: Sequence[Item]) -> List[Tuple[Any, Any]]:
    """Stack-based merge join (Stack-Tree-Desc [1]).

    Both inputs must be sorted in document order (as an index scan
    yields them).  A stack maintains the chain of ancestor-list nodes
    whose subtrees contain the current document position; every
    descendant-list node emits one pair per stack entry.  Runs in
    O(|A| + |D| + output) label operations.
    """
    get_registry().counter("store.joins.stack_tree").increment()
    with instrument("store.join.stack_tree", scheme=scheme.metadata.name,
                    ancestors=len(ancestors),
                    descendants=len(descendants)) as event:
        compare, is_ancestor = scheme.compare, scheme.is_ancestor
        output: List[Tuple[Any, Any]] = []
        stack: List[Item] = []
        a_index = 0
        d_index = 0

        def pop_finished(label: Any) -> None:
            while stack and not is_ancestor(stack[-1][0], label):
                stack.pop()

        while d_index < len(descendants):
            d_label, d_payload = descendants[d_index]
            if a_index < len(ancestors) and (
                compare(ancestors[a_index][0], d_label) < 0
            ):
                a_label, a_payload = ancestors[a_index]
                pop_finished(a_label)
                stack.append((a_label, a_payload))
                a_index += 1
                continue
            pop_finished(d_label)
            for a_label, a_payload in stack:
                output.append((a_payload, d_payload))
            d_index += 1
        event.set(nodes=len(output))
        return output


def semi_join(scheme: LabelingScheme, ancestors: Sequence[Item],
              descendants: Sequence[Item]) -> List[Item]:
    """Descendant items that have at least one ancestor in ``ancestors``.

    The building block for path joins: keeps document order, emits each
    descendant at most once.
    """
    get_registry().counter("store.joins.semi").increment()
    with instrument("store.join.semi", scheme=scheme.metadata.name,
                    ancestors=len(ancestors),
                    descendants=len(descendants)) as event:
        compare, is_ancestor = scheme.compare, scheme.is_ancestor
        kept: List[Item] = []
        stack: List[Any] = []
        a_index = 0
        for d_label, d_payload in descendants:
            while a_index < len(ancestors) and compare(
                ancestors[a_index][0], d_label
            ) < 0:
                a_label = ancestors[a_index][0]
                while stack and not is_ancestor(stack[-1], a_label):
                    stack.pop()
                stack.append(a_label)
                a_index += 1
            while stack and not is_ancestor(stack[-1], d_label):
                stack.pop()
            if stack:
                kept.append((d_label, d_payload))
        event.set(nodes=len(kept))
        return kept


def path_join(scheme: LabelingScheme,
              levels: Sequence[Sequence[Item]]) -> List[Item]:
    """Chain of ancestor-descendant semi-joins: ``//a//b//c`` shaped.

    ``levels`` holds one document-ordered item list per path step; the
    result is the last step's items that close a full chain.
    """
    if not levels:
        return []
    current = list(levels[0])
    for next_level in levels[1:]:
        current = semi_join(scheme, current, next_level)
    return current


def count_join(scheme: LabelingScheme, ancestors: Sequence[Item],
               descendants: Sequence[Item]) -> int:
    """Output cardinality of the structural join without materialising."""
    get_registry().counter("store.joins.count").increment()
    compare, is_ancestor = scheme.compare, scheme.is_ancestor
    total = 0
    stack: List[Any] = []
    a_index = 0
    for d_label, _payload in descendants:
        while a_index < len(ancestors) and compare(
            ancestors[a_index][0], d_label
        ) < 0:
            a_label = ancestors[a_index][0]
            while stack and not is_ancestor(stack[-1], a_label):
                stack.pop()
            stack.append(a_label)
            a_index += 1
        while stack and not is_ancestor(stack[-1], d_label):
            stack.pop()
        total += len(stack)
    return total
