"""A mini XPath: location paths over the labelled document.

The paper's scope is labelling, not query languages, but its properties
are justified by XPath processing cost; this evaluator makes that
concrete.  The grammar lives in :mod:`repro.axes.xpath_ast` — one typed
AST shared with the EXPLAIN planner and the update/query independence
analyzer — while this module owns *evaluation*: routing each parsed
step through :class:`~repro.axes.evaluator.AxisEvaluator` (labels,
accelerator windows or tree fallbacks) and merging results in document
order with duplicates eliminated — the XPath requirements Definition 1
exists to serve.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath_ast import (
    Step,
    apply_node_tests,
    parse_path,
    split_union,
)
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

__all__ = ["Step", "XPathEvaluator", "parse_path", "xpath"]


class XPathEvaluator:
    """Evaluates parsed paths against a :class:`LabeledDocument`.

    ``accelerator`` (see :class:`~repro.axes.accelerator.AxisAccelerator`)
    reroutes the axis steps it covers to window range scans and puts
    merged results into document order by its positions; without one,
    every step takes the label-table scan path and merges are ordered by
    a whole-document order map.

    ``recorder`` (a :class:`~repro.observability.explain.PlanRecorder`)
    turns on EXPLAIN instrumentation: every location step reports its
    routing strategy, context size, cardinality, and wall time.  The
    default ``None`` keeps the evaluation loop byte-for-byte on its
    uninstrumented path — no allocations, no clock reads.  In recorder
    mode, steps whose index would refuse (stale detached accelerator)
    are answered via the label-table scan instead of raising, so EXPLAIN
    can always show the full plan.
    """

    def __init__(self, ldoc: LabeledDocument, allow_fallback: bool = True,
                 accelerator=None, recorder=None):
        self.ldoc = ldoc
        self.axes = AxisEvaluator(ldoc, allow_fallback=allow_fallback,
                                  accelerator=accelerator)
        self.recorder = recorder

    def evaluate(self, path: str,
                 context: Optional[XMLNode] = None) -> List[XMLNode]:
        """All matching nodes, in document order, duplicates removed.

        Top-level ``|`` unions are supported: each branch is evaluated
        independently and the results merge in document order.
        """
        branches = self._split_union(path)
        if len(branches) > 1:
            gathered: List[XMLNode] = []
            for branch in branches:
                gathered.extend(self.evaluate(branch, context))
            return self._dedupe(gathered)
        return self._evaluate_single(path, context)

    @staticmethod
    def _split_union(path: str) -> List[str]:
        return split_union(path)

    def _evaluate_single(self, path: str,
                         context: Optional[XMLNode] = None) -> List[XMLNode]:
        absolute, steps = parse_path(path)
        root = self.ldoc.document.root
        if root is None:
            return []
        if self.recorder is not None:
            self.recorder.begin_branch(path)
        if absolute:
            current = [root]
            # An absolute path's first step evaluates from the virtual
            # document node: /book selects the root if it is named book,
            # and //book must include the root itself.
            if steps:
                first = steps[0]
                if first.axis == "child":
                    if self.recorder is None:
                        current = self._apply_tests(first, [root])
                    else:
                        current = self._record_root_step(first, root)
                    steps = steps[1:]
                elif first.axis == "descendant":
                    if self.recorder is None:
                        candidates = self.axes.evaluate(
                            "descendant-or-self", root
                        )
                        current = self._apply_tests(first, candidates)
                    else:
                        current = self._record_descendant_root_step(
                            first, root
                        )
                    steps = steps[1:]
        else:
            current = [context or root]
        for step in steps:
            # Predicates are evaluated once per context node, over that
            # node's own axis result — XPath 1.0 semantics: /a/b/c[1] is
            # the first c of *each* b, not the first of the merged set.
            if self.recorder is not None:
                current = self._record_step(step, current)
                continue
            gathered: List[XMLNode] = []
            for node in current:
                candidates = self.axes.evaluate(step.axis, node)
                gathered.extend(self._apply_tests(step, candidates))
            current = self._dedupe(gathered)
        return self._dedupe(current)

    # -- EXPLAIN instrumentation (recorder mode only) --------------------

    def _record_step(self, step: Step, current: List[XMLNode]) -> List[XMLNode]:
        started = time.perf_counter()
        strategy, reason = self.axes.strategy_for(step.axis)
        axis_rows = 0
        gathered: List[XMLNode] = []
        for node in current:
            if strategy == "scan":
                candidates = self.axes.evaluate_scan(step.axis, node)
            else:
                candidates = self.axes.evaluate(step.axis, node)
            axis_rows += len(candidates)
            gathered.extend(self._apply_tests(step, candidates))
        output = self._dedupe(gathered)
        self.recorder.record_step(
            step, strategy=strategy, reason=reason,
            context_size=len(current), axis_rows=axis_rows,
            actual_rows=len(output),
            elapsed_s=time.perf_counter() - started,
        )
        return output

    def _record_root_step(self, first: Step, root: XMLNode) -> List[XMLNode]:
        started = time.perf_counter()
        current = self._apply_tests(first, [root])
        self.recorder.record_step(
            first, strategy="scan",
            reason="first step from the virtual document node (root test)",
            context_size=1, axis_rows=1, actual_rows=len(current),
            elapsed_s=time.perf_counter() - started,
        )
        return current

    def _record_descendant_root_step(self, first: Step,
                                     root: XMLNode) -> List[XMLNode]:
        started = time.perf_counter()
        strategy, reason = self.axes.strategy_for("descendant-or-self")
        if strategy == "scan":
            candidates = self.axes.evaluate_scan("descendant-or-self", root)
        else:
            candidates = self.axes.evaluate("descendant-or-self", root)
        current = self._apply_tests(first, candidates)
        self.recorder.record_step(
            first, strategy=strategy, reason=reason,
            context_size=1, axis_rows=len(candidates),
            actual_rows=len(current),
            elapsed_s=time.perf_counter() - started,
        )
        return current

    # ------------------------------------------------------------------

    def _apply_tests(self, step: Step, nodes: List[XMLNode]) -> List[XMLNode]:
        return apply_node_tests(step, nodes)

    def _dedupe(self, nodes: List[XMLNode]) -> List[XMLNode]:
        """``nodes`` without duplicates, in document order.

        An accelerator orders them by its positions, O(k log k) in the
        result; without one, or when it cannot vouch for its positions
        (see ``AxisAccelerator.document_order``), a whole-document order
        map does.
        """
        seen = set()
        unique: List[XMLNode] = []
        for node in nodes:
            if node.node_id not in seen:
                seen.add(node.node_id)
                unique.append(node)
        if len(unique) < 2:
            return unique
        accelerator = self.axes.accelerator
        if accelerator is not None:
            ordered = accelerator.document_order(unique)
            if ordered is not None:
                return ordered
        order = {
            node.node_id: position
            for position, node in enumerate(self.ldoc.document.labeled_nodes())
        }
        return sorted(unique, key=lambda node: order[node.node_id])


def xpath(ldoc: LabeledDocument, path: str,
          context: Optional[XMLNode] = None,
          accelerator=None) -> List[XMLNode]:
    """Module-level shortcut: evaluate ``path`` over ``ldoc``."""
    return XPathEvaluator(ldoc, accelerator=accelerator).evaluate(
        path, context
    )
