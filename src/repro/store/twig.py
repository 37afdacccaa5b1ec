"""Twig pattern matching: branching path queries over labels.

Linear paths (``//a//b//c``) reduce to chains of structural semi-joins;
real XML queries branch — ``book[title][author]//name`` is a *twig*.
This module matches twig patterns bottom-up with label-only predicates:
descendant edges use the stack-based ancestor-side semi-join, child
edges use the scheme's ``is_parent``.  Like everything query-side in
this package, it runs over any scheme whose labels decide the needed
relationships (section 2.2), falling back to tree pointers only when
explicitly allowed.

Patterns are built programmatically::

    pattern = twig("book",
                   child("title"),
                   child("author"),
                   descendant("name", output=True))
    matches = TwigMatcher(ldoc).match(pattern)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import UnsupportedRelationshipError, XPathError
from repro.store.indexes import DocumentIndexes
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

Entry = Tuple[Any, XMLNode]


@dataclass
class TwigNode:
    """One pattern node: a name test plus edges to sub-patterns."""

    name: str
    axis: str = "descendant"  # edge from the parent pattern node
    children: List["TwigNode"] = field(default_factory=list)
    output: bool = False

    def __post_init__(self):
        if self.axis not in ("child", "descendant"):
            raise XPathError(f"twig edges are child/descendant, not {self.axis!r}")

    def output_node(self) -> "TwigNode":
        """The unique output node (defaults to the pattern root)."""
        flagged = [node for node in self._walk() if node.output]
        if len(flagged) > 1:
            raise XPathError("twig patterns may flag at most one output node")
        return flagged[0] if flagged else self

    def _walk(self):
        yield self
        for child_node in self.children:
            yield from child_node._walk()


def twig(name: str, *children: TwigNode, output: bool = False) -> TwigNode:
    """A pattern root (its own axis is descendant-from-anywhere)."""
    return TwigNode(name=name, children=list(children), output=output)


def child(name: str, *children: TwigNode, output: bool = False) -> TwigNode:
    """A ``/name`` edge."""
    return TwigNode(name=name, axis="child", children=list(children),
                    output=output)


def descendant(name: str, *children: TwigNode,
               output: bool = False) -> TwigNode:
    """A ``//name`` edge."""
    return TwigNode(name=name, axis="descendant", children=list(children),
                    output=output)


class TwigMatcher:
    """Bottom-up twig evaluation over one labelled document."""

    def __init__(self, ldoc: LabeledDocument,
                 indexes: Optional[DocumentIndexes] = None,
                 allow_fallback: bool = False):
        self.ldoc = ldoc
        self.indexes = indexes or DocumentIndexes(ldoc)
        self.allow_fallback = allow_fallback

    # ------------------------------------------------------------------

    def match(self, pattern: TwigNode) -> List[XMLNode]:
        """Nodes bound to the pattern's output node, in document order."""
        from repro.observability.ops import instrument

        with instrument("store.twig.match",
                        scheme=self.ldoc.scheme.metadata.name,
                        root=pattern.name) as event:
            output = pattern.output_node()
            bindings = self._satisfy(pattern)
            if pattern is output:
                matches = [node for _label, node in bindings]
            else:
                # Re-run the output subtree against the satisfied
                # context: the output node's own candidates, restricted
                # to those under some satisfied binding along the
                # pattern path.
                matches = [
                    node for _label, node in self._collect_output(
                        pattern, bindings, output
                    )
                ]
            event.set(nodes=len(matches))
            return matches

    def count(self, pattern: TwigNode) -> int:
        return len(self.match(pattern))

    # ------------------------------------------------------------------

    def _satisfy(self, pattern: TwigNode) -> List[Entry]:
        """Candidates for ``pattern`` whose whole subtree pattern holds."""
        candidates = self.indexes.by_name(pattern.name)
        for sub_pattern in pattern.children:
            satisfied_children = self._satisfy(sub_pattern)
            if not satisfied_children:
                return []
            candidates = self._restrict(
                candidates, satisfied_children, sub_pattern.axis
            )
            if not candidates:
                return []
        return candidates

    def _restrict(self, candidates: List[Entry], witnesses: List[Entry],
                  axis: str) -> List[Entry]:
        """Candidates having at least one witness on ``axis``."""
        if axis == "descendant":
            return self._ancestors_with_descendant(candidates, witnesses)
        return self._parents_with_child(candidates, witnesses)

    def _ancestors_with_descendant(self, candidates: List[Entry],
                                   witnesses: List[Entry]) -> List[Entry]:
        """Merge-based ancestor-side semi-join (both in doc order).

        A node's descendants occupy a contiguous document-order range
        immediately after it, so a candidate has a witness descendant
        iff the *first* witness after it is one — an O(|C| + |W|)
        two-pointer merge.
        """
        scheme = self.ldoc.scheme
        kept: List[Entry] = []
        w_index = 0
        for candidate in candidates:
            while w_index < len(witnesses) and scheme.compare(
                witnesses[w_index][0], candidate[0]
            ) < 0:
                w_index += 1
            if w_index < len(witnesses) and scheme.is_ancestor(
                candidate[0], witnesses[w_index][0]
            ):
                kept.append(candidate)
        return kept

    def _parents_with_child(self, candidates: List[Entry],
                            witnesses: List[Entry]) -> List[Entry]:
        scheme = self.ldoc.scheme
        kept = []
        for candidate in candidates:
            try:
                hit = any(
                    scheme.is_parent(candidate[0], witness[0])
                    for witness in witnesses
                )
            except UnsupportedRelationshipError:
                if not self.allow_fallback:
                    raise
                hit = any(
                    witness[1].parent is candidate[1] for witness in witnesses
                )
            if hit:
                kept.append(candidate)
        return kept

    def _collect_output(self, pattern: TwigNode, bindings: List[Entry],
                        output: TwigNode) -> List[Entry]:
        """Output-node entries reachable from satisfied root bindings."""
        path = self._path_to(pattern, output)
        current = bindings
        for step in path[1:]:
            step_candidates = self._satisfy(step)
            current = self._under(current, step_candidates, step.axis)
        return current

    def _path_to(self, pattern: TwigNode, target: TwigNode) -> List[TwigNode]:
        def search(node: TwigNode, trail: List[TwigNode]):
            trail = trail + [node]
            if node is target:
                return trail
            for sub in node.children:
                found = search(sub, trail)
                if found:
                    return found
            return None

        result = search(pattern, [])
        if result is None:
            raise XPathError("output node is not part of the pattern")
        return result

    def _under(self, uppers: List[Entry], lowers: List[Entry],
               axis: str) -> List[Entry]:
        """Lowers having an upper on ``axis`` (descendant-side)."""
        scheme = self.ldoc.scheme
        kept = []
        for lower in lowers:
            if axis == "descendant":
                hit = any(
                    scheme.is_ancestor(upper[0], lower[0]) for upper in uppers
                )
            else:
                try:
                    hit = any(
                        scheme.is_parent(upper[0], lower[0])
                        for upper in uppers
                    )
                except UnsupportedRelationshipError:
                    if not self.allow_fallback:
                        raise
                    hit = any(
                        lower[1].parent is upper[1] for upper in uppers
                    )
            if hit:
                kept.append(lower)
        return kept
