"""A mini XPath: location paths over the labelled document.

The paper's scope is labelling, not query languages, but its properties
are justified by XPath processing cost; this evaluator makes that
concrete.  The grammar lives in :mod:`repro.axes.xpath_ast` — one typed
AST shared with the EXPLAIN planner and the update/query independence
analyzer — while this module owns *evaluation*: routing each parsed
step through :class:`~repro.axes.evaluator.AxisEvaluator` to the
document's :class:`~repro.axes.accelerator.AxisAccelerator`, and
merging results in document order with duplicates eliminated — the
XPath requirements Definition 1 exists to serve.  It is the one step
loop: queries, EXPLAIN and the update language's target resolution
(:func:`repro.ulang.compiler.resolve_targets`) all run it, and all meet
the same :class:`~repro.errors.StaleIndexError` from an index behind
its document.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath_ast import (
    LocationPath,
    Step,
    apply_node_tests,
    leading_attribute,
    parse_path,
    parse_xpath,
)
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import XMLNode

__all__ = ["Step", "XPathEvaluator", "parse_path", "xpath"]

#: An absolute path's first step evaluates from the virtual document
#: node, whose one child is the root: /book selects the root if it is
#: named book, and //book must include the root itself.
_FROM_DOCUMENT_NODE = {"child": "self", "descendant": "descendant-or-self"}


class XPathEvaluator:
    """Evaluates parsed paths against a :class:`LabeledDocument`.

    Every axis step is answered from the document's index
    (``ldoc.accelerator()``, built at the first query), and merged
    results are put into document order by its positions.  The index
    holds every element and attribute node as soon as it is attached, so
    a batch's pending (unlabelled) nodes are answered like any other.

    ``recorder`` (a :class:`~repro.observability.explain.PlanRecorder`)
    turns on EXPLAIN instrumentation: every location step reports its
    strategy, context size, cardinality, and wall time.  The default
    ``None`` reads no clock.  Either way the steps run the same path.
    """

    def __init__(self, ldoc: LabeledDocument, recorder=None):
        self.ldoc = ldoc
        self.index = ldoc.accelerator()
        self.axes = AxisEvaluator(ldoc, accelerator=self.index)
        self.recorder = recorder

    def evaluate(self, path: str,
                 context: Optional[XMLNode] = None) -> List[XMLNode]:
        """All matching nodes, in document order, duplicates removed.

        Top-level ``|`` unions are supported: each branch is evaluated
        independently and the results merge in document order.
        """
        return self.evaluate_paths(parse_xpath(path), context)

    def evaluate_paths(self, branches: Sequence[LocationPath],
                       context: Optional[XMLNode] = None) -> List[XMLNode]:
        """What the parsed union ``branches`` select, as :meth:`evaluate`.

        The step loop itself, entered by :meth:`evaluate` after parsing
        and by callers that hold parsed paths already.
        """
        root = self.ldoc.document.root
        if root is None:
            return []
        gathered: List[XMLNode] = []
        for branch in branches:
            gathered.extend(self._branch(branch, root, context))
        if len(branches) == 1:
            return gathered
        return self._dedupe(gathered)

    def _branch(self, branch: LocationPath, root: XMLNode,
                context: Optional[XMLNode]) -> List[XMLNode]:
        """One union branch; each step returns its nodes deduplicated
        and in document order."""
        steps = branch.steps
        if self.recorder is not None:
            self.recorder.begin_branch(branch.absolute)
        if not branch.absolute:
            current = [context or root]
        elif steps and steps[0].axis in _FROM_DOCUMENT_NODE:
            current = self._step(steps[0], [root],
                                 _FROM_DOCUMENT_NODE[steps[0].axis])
            steps = steps[1:]
        else:
            current = [root]
        for step in steps:
            current = self._step(step, current, step.axis)
        return current

    def _step(self, step: Step, contexts: List[XMLNode],
              axis: str) -> List[XMLNode]:
        """One location step from every context node, merged.

        Predicates are evaluated once per context node, over that
        node's own axis result — XPath 1.0 semantics: /a/b/c[1] is the
        first c of *each* b, not the first of the merged set.  A name
        test and a leading ``[@a='v']`` reach the index with the axis,
        so only the nodes passing both count as the step's axis rows.
        """
        recorder = self.recorder
        evaluate = self.axes.evaluate
        if recorder is not None:
            started = time.perf_counter()
            strategy, reason = self.index.explain_state()
        name = step.name_test if step.name_test != "*" else None
        attribute = leading_attribute(step)
        axis_rows = 0
        gathered: List[XMLNode] = []
        for node in contexts:
            candidates = evaluate(axis, node, name, attribute)
            axis_rows += len(candidates)
            gathered.extend(apply_node_tests(step, candidates))
        output = self._dedupe(gathered)
        if recorder is not None:
            recorder.record_step(
                step, strategy=strategy, reason=reason,
                context_size=len(contexts), axis_rows=axis_rows,
                actual_rows=len(output),
                elapsed_s=time.perf_counter() - started,
            )
        return output

    def _dedupe(self, nodes: List[XMLNode]) -> List[XMLNode]:
        """``nodes`` without duplicates, in document order.

        The index orders them by its positions, O(k log k) in the
        result: every step's nodes come from the current index.
        """
        seen = set()
        unique: List[XMLNode] = []
        for node in nodes:
            if node.node_id not in seen:
                seen.add(node.node_id)
                unique.append(node)
        if len(unique) < 2:
            return unique
        return self.index.document_order(unique)


def xpath(ldoc: LabeledDocument, path: str,
          context: Optional[XMLNode] = None) -> List[XMLNode]:
    """Module-level shortcut: evaluate ``path`` over ``ldoc``."""
    return XPathEvaluator(ldoc).evaluate(path, context)
