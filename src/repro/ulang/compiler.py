"""Compile update programs onto one :class:`~repro.updates.batch.UpdateBatch`.

Statements execute *sequentially*: each statement resolves its target
paths against the current tree, so later statements see earlier
effects (FLUX-style composition, not XQuery Update's snapshot
semantics).  All mutations go through a single batch, so deferred
one-pass relabelling, transactions, WAL, op-log and tracing apply
exactly as they do for hand-written batch code.

Target resolution is a tree-pointer evaluation of the shared XPath AST
(:mod:`repro.axes.xpath_ast`) rather than the label-driven
:class:`~repro.axes.xpath.XPathEvaluator`: mid-batch, deferred nodes
have no labels yet, so structural navigation is the only sound way to
address the evolving document.  Name tests and predicates are the same
:func:`~repro.axes.xpath_ast.apply_node_tests` the evaluator uses, so
the two agree wherever both are defined.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.axes.xpath_ast import (
    REVERSE_AXES,
    LocationPath,
    apply_node_tests,
    parse_xpath,
)
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


# ----------------------------------------------------------------------
# Structural path resolution (label-free, mid-batch safe)
# ----------------------------------------------------------------------


def _axis_candidates(axis: str, node: XMLNode,
                     order: Dict[int, int]) -> List[XMLNode]:
    """One axis step via tree pointers, in document order."""
    if axis == "self":
        return [node]
    if axis == "child":
        return list(node.children)
    if axis == "parent":
        return [node.parent] if node.parent is not None else []
    if axis == "ancestor":
        return list(node.ancestors())[::-1]
    if axis == "ancestor-or-self":
        return list(node.ancestors())[::-1] + [node]
    if axis == "descendant":
        return list(node.descendants())
    if axis == "descendant-or-self":
        return [node] + list(node.descendants())
    if axis == "following-sibling":
        return list(node.following_siblings())
    if axis == "preceding-sibling":
        if node.parent is None:
            return []
        return node.parent.children[:node.parent.child_index(node)]
    if axis == "attribute":
        return node.attributes()
    if axis in ("following", "preceding"):
        position = order[node.node_id]
        subtree = {child.node_id for child in node.preorder()}
        ancestors = {anc.node_id for anc in node.ancestors()}
        root = node
        while root.parent is not None:
            root = root.parent
        if axis == "following":
            return [
                other for other in root.preorder()
                if order[other.node_id] > position
                and other.node_id not in subtree
            ]
        return [
            other for other in root.preorder()
            if order[other.node_id] < position
            and other.node_id not in ancestors
        ]
    raise ULangTargetError(f"unsupported axis {axis!r} in update target")


def resolve_targets(ldoc, paths: Union[str, Sequence[LocationPath]],
                    ) -> List[XMLNode]:
    """All nodes the path expression selects, by tree navigation.

    ``paths`` is either a raw XPath string or pre-parsed
    :class:`LocationPath` branches.  Results are in document order with
    duplicates removed; an empty list means the target is unsatisfied.

    A step from one context node already lists its nodes in document
    order, so the preorder numbering of the whole tree is built only
    when something reads it: a ``following`` or ``preceding`` step, or
    a merge of results from several context nodes or union branches.
    """
    if isinstance(paths, str):
        paths = parse_xpath(paths)
    root = ldoc.document.root
    if root is None:
        return []
    order: Dict[int, int] = {}

    def numbered() -> Dict[int, int]:
        if not order:
            order.update((node.node_id, position)
                         for position, node in enumerate(root.preorder()))
        return order

    gathered: List[XMLNode] = []
    for branch in paths:
        steps = list(branch.steps)
        if branch.absolute:
            current = [root]
            if steps:
                first = steps[0]
                if first.axis == "child":
                    current = apply_node_tests(first, [root])
                    steps = steps[1:]
                elif first.axis == "descendant":
                    current = apply_node_tests(
                        first, [root] + list(root.descendants())
                    )
                    steps = steps[1:]
        else:
            current = [root]
        for step in steps:
            if not current:
                break
            if step.axis in ("following", "preceding"):
                numbered()
            if len(current) == 1:
                current = apply_node_tests(
                    step, _axis_candidates(step.axis, current[0], order))
                if step.predicates and step.axis in REVERSE_AXES:
                    current.reverse()  # back from proximity order
                continue
            step_gathered: List[XMLNode] = []
            seen = set()
            for node in current:
                candidates = _axis_candidates(step.axis, node, order)
                for match in apply_node_tests(step, candidates):
                    if match.node_id not in seen:
                        seen.add(match.node_id)
                        step_gathered.append(match)
            positions = numbered()
            current = sorted(step_gathered,
                             key=lambda node: positions[node.node_id])
        if len(paths) == 1:
            return current
        gathered.extend(current)
    seen = set()
    unique = []
    for node in gathered:
        if node.node_id not in seen:
            seen.add(node.node_id)
            unique.append(node)
    positions = numbered()
    return sorted(unique, key=lambda node: positions[node.node_id])


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
