"""Compile update programs onto one :class:`~repro.updates.batch.UpdateBatch`.

Statements execute *sequentially*: each statement resolves its target
paths against the current tree, so later statements see earlier
effects (FLUX-style composition, not XQuery Update's snapshot
semantics).  All mutations go through a single batch, so deferred
one-pass relabelling, transactions, WAL, op-log and tracing apply
exactly as they do for hand-written batch code.

Target resolution runs the shared XPath AST
(:mod:`repro.axes.xpath_ast`) through
:class:`~repro.axes.xpath.XPathEvaluator`'s step loop on the document's
structural index, the one query path.  The index holds a node from the
moment it is attached, labelled or not, so a statement resolves against
the tree as the statements before it left it, the batch's deferred
nodes included.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.axes.xpath import XPathEvaluator
from repro.axes.xpath_ast import LocationPath, parse_xpath
from repro.errors import ULangTargetError
from repro.observability.metrics import get_registry
from repro.ulang.ast import (
    DeleteStatement,
    InsertStatement,
    MoveStatement,
    RenameStatement,
    ReplaceValueStatement,
    UpdateProgram,
    UStatement,
)
from repro.ulang.parser import parse_program
from repro.xmlmodel.tree import XMLNode

__all__ = ["resolve_targets", "run_program"]


def resolve_targets(ldoc, paths: Union[str, Sequence[LocationPath]],
                    ) -> List[XMLNode]:
    """All nodes the path expression selects, from the document's index.

    ``paths`` is either a raw XPath string or pre-parsed
    :class:`LocationPath` branches.  Results are in document order with
    duplicates removed; an empty list means the target is unsatisfied.
    """
    if isinstance(paths, str):
        paths = parse_xpath(paths)
    return XPathEvaluator(ldoc).evaluate_paths(paths)


def _outermost(nodes: List[XMLNode]) -> List[XMLNode]:
    """Drop nodes whose ancestor is also in the list (nested targets)."""
    ids = {node.node_id for node in nodes}
    return [
        node for node in nodes
        if not any(anc.node_id in ids for anc in node.ancestors())
    ]


# ----------------------------------------------------------------------
# Statement execution
# ----------------------------------------------------------------------


def _parse_fragment_node(statement: InsertStatement) -> XMLNode:
    from repro.xmlmodel.parser import parse_fragment

    return parse_fragment(statement.fragment_xml)


def _sibling_slot(target: XMLNode, after: bool) -> Tuple[XMLNode, int]:
    parent = target.parent
    if parent is None:
        raise ULangTargetError(
            "cannot insert before/after the document root"
        )
    return parent, parent.child_index(target) + (1 if after else 0)


def _execute(batch, ldoc, statement: UStatement) -> None:
    if isinstance(statement, InsertStatement):
        fragment = _parse_fragment_node(statement)
        targets = resolve_targets(ldoc, statement.target_paths)
        for target in targets:
            if statement.position == "into":
                parent, index = target, len(target.children)
            else:
                parent, index = _sibling_slot(
                    target, after=statement.position == "after"
                )
            batch.insert_subtree(parent, index, fragment)
    elif isinstance(statement, DeleteStatement):
        targets = _outermost(resolve_targets(ldoc, statement.target_paths))
        for target in targets:
            batch.delete(target)
    elif isinstance(statement, ReplaceValueStatement):
        for target in resolve_targets(ldoc, statement.target_paths):
            if target.is_attribute:
                batch.set_attribute_value(target, statement.value)
            else:
                batch.set_text(target, statement.value)
    elif isinstance(statement, RenameStatement):
        for target in resolve_targets(ldoc, statement.target_paths):
            batch.rename(target, statement.name)
    elif isinstance(statement, MoveStatement):
        sources = _outermost(resolve_targets(ldoc, statement.source_paths))
        if not sources:
            return
        destinations = resolve_targets(ldoc, statement.target_paths)
        if len(destinations) != 1:
            raise ULangTargetError(
                f"move destination {statement.target!r} selected "
                f"{len(destinations)} nodes; exactly one is required"
            )
        destination = destinations[0]
        for source in sources:
            if statement.position == "into":
                parent, index = destination, len(destination.children)
            else:
                parent, index = _sibling_slot(
                    destination, after=statement.position == "after"
                )
            if (source.parent is parent and not source.is_attribute
                    and parent.child_index(source) < index):
                # batch.move detaches first; a source sitting before the
                # slot in the same parent shifts it down by one.
                index -= 1
            batch.move(source, parent, index)
    else:  # pragma: no cover - parser only builds the five kinds
        raise ULangTargetError(f"unknown statement {statement!r}")


def run_program(ldoc, program: Union[str, UpdateProgram],
                collect_plan: bool = False):
    """Execute a program through one batch; return its ``BatchResult``.

    With ``collect_plan=True`` the return value is ``(result, plan)``
    where ``plan`` is the :class:`~repro.observability.explain.UpdatePlan`
    captured *before* apply and finished with the actuals — the pairing
    ``repro update explain`` prints.

    On any failure the batch rolls back and the document is untouched.
    """
    if isinstance(program, str):
        program = parse_program(program)
    get_registry().counter("ulang.runs").increment()
    batch = ldoc.batch()
    plan = None
    try:
        for statement in program.statements:
            _execute(batch, ldoc, statement)
        if collect_plan:
            from repro.observability.explain import explain_batch

            plan = explain_batch(batch)
        result = batch.apply()
    except Exception:
        batch.rollback()
        raise
    if collect_plan:
        plan.finish(result)
        return result, plan
    return result
