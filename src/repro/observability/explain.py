"""Query and update EXPLAIN plans: which strategy ran, and why.

Every XPath step is answered from the document's one index
(:class:`~repro.axes.accelerator.AxisAccelerator`).
:func:`explain_query` produces a :class:`QueryPlan` with one
:class:`PlanStep` per location step carrying the strategy (always
``accelerator-window``), the stated reason, estimated vs. actual
cardinality, context size, and per-step wall time.  An index behind
its document refuses a plan as it refuses :func:`~repro.axes.xpath.xpath`:
with the same counted :class:`~repro.errors.StaleIndexError`.

Two modes, mirroring SQL EXPLAIN:

* **plain** — the query is *not* executed.  Step cardinalities chain
  through the :class:`~repro.observability.stats.StatsCollector`
  estimates; the reason reflects the index state at call time.
* **analyze** — the query runs through the evaluator's own step loop
  with the ``recorder`` hook of
  :class:`~repro.axes.xpath.XPathEvaluator` set.  Actual cardinalities
  are recorded next to the estimates and fed back into the collector's
  learned selectivities, so the next estimate for the same
  ``(axis, name-test)`` pair is observation-based.

:func:`explain_batch` is the update-side counterpart: the predicted
relabel extent from the batch's ``plan_insert`` decisions (any deferral
can trigger one consolidated full relabelling) against the actual
nodes relabelled once :class:`~repro.updates.batch.BatchResult` is in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.axes.xpath import XPathEvaluator
from repro.axes.xpath_ast import Step, parse_xpath

from .metrics import get_registry
from .stats import StatsCollector

__all__ = [
    "EXPLAIN_SCHEMA_VERSION",
    "STRATEGIES",
    "PlanRecorder",
    "PlanStep",
    "QueryPlan",
    "UpdatePlan",
    "explain_batch",
    "explain_query",
]

#: Version stamp of the JSON plan payload.
EXPLAIN_SCHEMA_VERSION = 1

#: Every strategy a plan step can report: the index answers every step.
STRATEGIES = ("accelerator-window",)


@dataclass
class PlanStep:
    """One location step's routing decision and cardinalities."""

    index: int
    branch: int
    axis: str
    name_test: str
    predicates: List[str]
    strategy: str
    reason: str
    estimated_rows: float
    #: Context size the step actually saw (analyze) or the chained
    #: estimate it was planned against (plain mode).
    context_size: float
    actual_rows: Optional[int] = None
    #: Raw axis candidates before name/predicate tests (analyze only).
    axis_rows: Optional[int] = None
    elapsed_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "branch": self.branch,
            "axis": self.axis,
            "name_test": self.name_test,
            "predicates": list(self.predicates),
            "strategy": self.strategy,
            "reason": self.reason,
            "estimated_rows": round(self.estimated_rows, 3),
            "context_size": self.context_size,
            "actual_rows": self.actual_rows,
            "axis_rows": self.axis_rows,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class QueryPlan:
    """The full EXPLAIN tree for one XPath expression."""

    path: str
    scheme: str
    analyze: bool
    steps: List[PlanStep] = field(default_factory=list)
    branches: int = 1
    estimated_result: float = 0.0
    result_count: Optional[int] = None
    total_ms: Optional[float] = None

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready plan document (``repro explain --json``)."""
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "path": self.path,
            "scheme": self.scheme,
            "analyze": self.analyze,
            "branches": self.branches,
            "estimated_result": round(self.estimated_result, 3),
            "result_count": self.result_count,
            "total_ms": self.total_ms,
            "steps": [step.to_dict() for step in self.steps],
        }

    def render(self) -> str:
        """Plain-text plan for terminals."""
        mode = "analyze" if self.analyze else "plan only"
        lines = [f"EXPLAIN {self.path}  [scheme={self.scheme}, {mode}]"]
        header = (f"  {'#':>2s} {'step':28s} {'strategy':19s} "
                  f"{'ctx':>7s} {'est':>9s} {'actual':>7s} {'ms':>7s}  "
                  f"reason")
        lines.append(header)
        last_branch = 0
        for step in self.steps:
            if step.branch != last_branch:
                lines.append(f"  -- union branch {step.branch + 1} --")
                last_branch = step.branch
            test = step.name_test + "".join(
                f"[{pred}]" for pred in step.predicates)
            actual = ("" if step.actual_rows is None
                      else str(step.actual_rows))
            elapsed = ("" if step.elapsed_ms is None
                       else f"{step.elapsed_ms:.3f}")
            lines.append(
                f"  {step.index:2d} {step.axis + '::' + test:28s} "
                f"{step.strategy:19s} {step.context_size:7.0f} "
                f"{step.estimated_rows:9.1f} {actual:>7s} {elapsed:>7s}  "
                f"{step.reason}")
        summary = f"  => estimated {self.estimated_result:.1f} row(s)"
        if self.result_count is not None:
            summary += f", actual {self.result_count}"
        if self.total_ms is not None:
            summary += f", {self.total_ms:.3f} ms"
        lines.append(summary)
        return "\n".join(lines)


class PlanRecorder:
    """The hook :class:`~repro.axes.xpath.XPathEvaluator` reports into.

    Collects one :class:`PlanStep` per location step during an analyze
    run, pairing each actual cardinality with the estimate the
    statistics would have given for the same context — and feeding the
    actuals back into the collector's learned selectivities.
    """

    def __init__(self, stats: StatsCollector) -> None:
        self.stats = stats
        self.steps: List[PlanStep] = []
        self.branch = -1
        self._branch_absolute = False
        self._steps_in_branch = 0

    def begin_branch(self, absolute: bool) -> None:
        """A union branch (or the sole branch) starts evaluating."""
        self.branch += 1
        self._branch_absolute = absolute
        self._steps_in_branch = 0

    def record_step(self, step: Step, *, strategy: str, reason: str,
                    context_size: int, axis_rows: int, actual_rows: int,
                    elapsed_s: float) -> None:
        first_of_absolute = (self._branch_absolute
                             and self._steps_in_branch == 0)
        estimated = self.stats.estimate_step(
            step.axis, step.name_test, context_size,
            from_root=first_of_absolute)
        self.stats.observe(step.axis, step.name_test, context_size,
                           actual_rows)
        self.steps.append(PlanStep(
            index=len(self.steps) + 1,
            branch=max(0, self.branch),
            axis=step.axis,
            name_test=step.name_test,
            predicates=[str(p) for p in step.predicates],
            strategy=strategy,
            reason=reason,
            estimated_rows=estimated,
            context_size=context_size,
            actual_rows=actual_rows,
            axis_rows=axis_rows,
            elapsed_ms=elapsed_s * 1000.0,
        ))
        self._steps_in_branch += 1


def explain_query(ldoc, path: str,
                  stats: Optional[StatsCollector] = None,
                  analyze: bool = False, context=None) -> QueryPlan:
    """EXPLAIN ``path`` over ``ldoc``; executes it only when ``analyze``.

    ``stats`` defaults to a fresh structural collection over the
    document; pass a persisted collector to use (and, under analyze,
    grow) its learned selectivities.
    """
    if stats is None:
        stats = StatsCollector.collect(ldoc)
    registry = get_registry()
    registry.counter("explain.plans").increment()
    plan = QueryPlan(path=path, scheme=ldoc.scheme.metadata.name,
                     analyze=analyze)
    if analyze:
        registry.counter("explain.analyzed_plans").increment()
        recorder = PlanRecorder(stats)
        evaluator = XPathEvaluator(ldoc, recorder=recorder)
        started = time.perf_counter()
        result = evaluator.evaluate(path, context)
        plan.total_ms = (time.perf_counter() - started) * 1000.0
        plan.steps = recorder.steps
        plan.branches = max(1, recorder.branch + 1)
        plan.result_count = len(result)
        finals = {}
        for step in plan.steps:
            finals[step.branch] = step
        plan.estimated_result = sum(
            step.estimated_rows for step in finals.values()) or 0.0
    else:
        plan.steps, plan.estimated_result, plan.branches = _static_plan(
            ldoc, path, stats)
    return plan


def _static_plan(ldoc, path: str, stats: StatsCollector):
    """Chain cardinality estimates through the steps without executing."""
    branches = parse_xpath(path)
    strategy, reason = ldoc.accelerator().explain_state()
    steps_out: List[PlanStep] = []
    estimated_result = 0.0
    for branch_index, branch in enumerate(branches):
        steps = branch.steps
        context_estimate = 1.0
        branch_estimate = 1.0 if not steps else 0.0
        for position, step in enumerate(steps):
            first_of_absolute = branch.absolute and position == 0
            if first_of_absolute and step.axis == "child":
                # The virtual document node has exactly one child.
                root = ldoc.document.root
                estimated = 1.0 if root is not None and step.name_test in (
                    "*", root.name) else 0.0
            else:
                estimated = stats.estimate_step(
                    step.axis, step.name_test, context_estimate,
                    from_root=first_of_absolute)
            steps_out.append(PlanStep(
                index=len(steps_out) + 1,
                branch=branch_index,
                axis=step.axis,
                name_test=step.name_test,
                predicates=[str(p) for p in step.predicates],
                strategy=strategy,
                reason=reason,
                estimated_rows=estimated,
                context_size=context_estimate,
            ))
            context_estimate = estimated
            branch_estimate = estimated
        estimated_result += branch_estimate
    return steps_out, estimated_result, len(branches)


# ----------------------------------------------------------------------
# Update-side EXPLAIN
# ----------------------------------------------------------------------


@dataclass
class UpdatePlan:
    """Predicted vs. actual relabelling cost of one update batch."""

    operations: int
    fast_path_labels: int
    deferred_labels: int
    pending_nodes: int
    predicted_relabel_passes: int
    predicted_relabel_extent: int
    actual_relabel_passes: Optional[int] = None
    actual_relabeled_nodes: Optional[int] = None
    relabels_avoided: Optional[int] = None

    def finish(self, result) -> "UpdatePlan":
        """Fold a :class:`~repro.updates.batch.BatchResult` in."""
        self.actual_relabel_passes = result.relabel_passes
        self.actual_relabeled_nodes = result.relabeled_nodes
        self.relabels_avoided = result.relabels_avoided
        return self

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "operations": self.operations,
            "fast_path_labels": self.fast_path_labels,
            "deferred_labels": self.deferred_labels,
            "pending_nodes": self.pending_nodes,
            "predicted_relabel_passes": self.predicted_relabel_passes,
            "predicted_relabel_extent": self.predicted_relabel_extent,
            "actual_relabel_passes": self.actual_relabel_passes,
            "actual_relabeled_nodes": self.actual_relabeled_nodes,
            "relabels_avoided": self.relabels_avoided,
        }

    def render(self) -> str:
        lines = [
            "EXPLAIN UPDATE BATCH",
            f"  operations            {self.operations}",
            f"  fast-path labels      {self.fast_path_labels}",
            f"  deferred labels       {self.deferred_labels}",
            f"  predicted passes      {self.predicted_relabel_passes}",
            f"  predicted extent      {self.predicted_relabel_extent} "
            "label(s), upper bound",
        ]
        if self.actual_relabeled_nodes is not None:
            lines.append(f"  actual passes         "
                         f"{self.actual_relabel_passes}")
            lines.append(f"  actual relabelled     "
                         f"{self.actual_relabeled_nodes}")
            lines.append(f"  relabels avoided      {self.relabels_avoided}")
        return "\n".join(lines)


def explain_batch(batch, result=None) -> UpdatePlan:
    """EXPLAIN one :class:`~repro.updates.batch.UpdateBatch`.

    Call before ``apply()`` for the prediction alone, or pass the
    :class:`~repro.updates.batch.BatchResult` (or call :meth:`UpdatePlan.
    finish` later) to pair prediction with the actual relabel extent.
    """
    summary = batch.plan_summary()
    plan = UpdatePlan(
        operations=summary["operations"],
        fast_path_labels=summary["fast_path_labels"],
        deferred_labels=summary["deferred_labels"],
        pending_nodes=summary["pending_nodes"],
        predicted_relabel_passes=summary["predicted_relabel_passes"],
        predicted_relabel_extent=summary["predicted_relabel_extent"],
    )
    if result is not None:
        plan.finish(result)
    return plan
