"""The repo-specific lint rules.

Each rule is a small class satisfying the :class:`Rule` protocol:
an ``id`` (``REP001``...), a ``severity``, a one-line ``description``
for ``repro lint --list-rules``, and a ``check`` that yields
:class:`~repro.staticcheck.reporting.Finding` objects.  Rules see the
whole parsed :class:`~repro.staticcheck.project.Project` through a
shared :class:`RuleContext`, so cross-module rules (export drift) cost
no extra parsing.

Suppression (``# repro: noqa[REP001]``) and baselining are *not* a
rule's concern — the runner in :mod:`repro.staticcheck.lint` applies
both uniformly after collection.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Dict, Iterator, List, Optional, Protocol, Sequence, Set, Tuple,
)

from repro.staticcheck.callgraph import CallGraph, iter_division_ops
from repro.staticcheck.project import FunctionInfo, ModuleInfo, Project
from repro.staticcheck.reporting import Finding

#: Modules whose arithmetic feeds the Figure 7 counters.
ARITHMETIC_SCOPE = ("repro.schemes.", "repro.labels.", "repro.strategies.")

#: Modules allowed to mutate document/label state directly.
MUTATION_SCOPE = ("repro.updates.", "repro.durability.", "repro.schemes.",
                  "repro.xmlmodel.", "repro.store.")

_METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
_METRIC_PREFIX_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*\.$")


@dataclass
class RuleContext:
    """What every rule gets to look at."""

    project: Project
    graph: CallGraph = field(init=False)

    def __post_init__(self):
        self.graph = CallGraph(self.project, scope_prefixes=("repro.",))

    def in_scope(self, module: ModuleInfo,
                 prefixes: Sequence[str]) -> bool:
        return any(
            module.name == prefix.rstrip(".")
            or module.name.startswith(prefix)
            for prefix in prefixes
        )

    def finding(self, rule: "Rule", module: ModuleInfo, line: int,
                col: int, message: str) -> Finding:
        return Finding(
            rule=rule.id, severity=rule.severity,
            path=self.project.relative_path(module),
            line=line, col=col, message=message,
            snippet=module.line_text(line),
        )


class Rule(Protocol):
    """The pluggable rule contract."""

    id: str
    name: str
    severity: str
    description: str

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        """Yield every violation in the project."""
        ...


class UninstrumentedDivisionRule:
    """REP001: raw arithmetic where the Figure 7 counters cannot see it.

    Every ``/``, ``//``, ``%`` or ``divmod`` in scheme, label-codec or
    strategy sources must go through ``instruments.divide`` (so the
    dynamic Division grade stays honest) or carry a justified
    ``# repro: noqa[REP001]``.  Parity tests (``% 2``) and string
    formatting are excluded by the published counting rules.
    """

    id = "REP001"
    name = "uninstrumented-division"
    severity = "error"
    description = ("division/modulo in scheme hot paths must be routed "
                   "through instruments.divide")

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for module in ctx.project.modules.values():
            if not ctx.in_scope(module, ARITHMETIC_SCOPE):
                continue
            for op in iter_division_ops(module.tree):
                if op.excluded is not None:
                    continue
                yield ctx.finding(
                    self, module, op.line, op.col,
                    f"`{op.op}` outside instruments.divide: the dynamic "
                    f"Division counters will not see this operation",
                )


class FloatEqualityRule:
    """REP002: ``==``/``!=`` against floats in label codecs.

    The survey's Division column exists because "division risks
    floating-point error on very large numbers" — comparing floats for
    exact equality in the codecs is the same hazard one step later.
    """

    id = "REP002"
    name = "float-equality"
    severity = "warning"
    description = "exact float equality in label/encoding code"

    _SCOPE = ("repro.labels.", "repro.encoding.", "repro.schemes.")

    @staticmethod
    def _is_floatish(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float")

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for module in ctx.project.modules.values():
            if not ctx.in_scope(module, self._SCOPE):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(isinstance(op, (ast.Eq, ast.NotEq))
                           for op in node.ops):
                    continue
                operands = [node.left] + list(node.comparators)
                if any(self._is_floatish(operand) for operand in operands):
                    yield ctx.finding(
                        self, module, node.lineno, node.col_offset,
                        "exact equality against a float; compare with a "
                        "tolerance or use exact arithmetic (Fraction)",
                    )


class OverbroadExceptRule:
    """REP003: handlers that can swallow arbitrary failures.

    A bare ``except:`` always fails.  ``except Exception`` (or
    ``BaseException``) passes only when the handler re-raises or binds
    the exception (``as error``) — the failure-isolation pattern the
    bench harness uses, where the error is recorded, not discarded.
    """

    id = "REP003"
    name = "overbroad-except"
    severity = "error"
    description = "bare except, or except Exception that swallows"

    _BROAD = ("Exception", "BaseException")

    @staticmethod
    def _names(node: Optional[ast.expr]) -> List[str]:
        if node is None:
            return []
        if isinstance(node, ast.Tuple):
            elements = node.elts
        else:
            elements = [node]
        names = []
        for element in elements:
            if isinstance(element, ast.Name):
                names.append(element.id)
            elif isinstance(element, ast.Attribute):
                names.append(element.attr)
        return names

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for module in ctx.project.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    yield ctx.finding(
                        self, module, node.lineno, node.col_offset,
                        "bare `except:`; name the exception types, or "
                        "`except Exception as error` if isolation is the "
                        "point",
                    )
                    continue
                if not any(name in self._BROAD
                           for name in self._names(node.type)):
                    continue
                if node.name is not None:
                    continue  # binds the error: isolation, not swallowing
                if any(isinstance(child, ast.Raise)
                       for child in ast.walk(node)):
                    continue  # cleanup-and-reraise
                yield ctx.finding(
                    self, module, node.lineno, node.col_offset,
                    "`except Exception` without re-raise or binding "
                    "swallows failures; narrow it, bind it, or re-raise",
                )


class NakedMutationRule:
    """REP004: label/document state mutated outside the update layers.

    Everything PRs 2–4 guarantee (rollback, journaling, index
    coherence) assumes label maps and tree structure change only inside
    ``repro.updates`` / ``repro.durability`` / the schemes themselves.
    A stray ``ldoc.labels[x] = y`` elsewhere bypasses the undo log, the
    journal and the label index at once.
    """

    id = "REP004"
    name = "naked-mutation"
    severity = "error"
    description = ("document/label state mutated outside "
                   "Transaction/UpdateBatch layers")

    _STATE_ATTRS = ("labels", "_label_index", "_active_txn", "_active_batch")
    _MUTATORS = ("pop", "clear", "update", "setdefault")

    @staticmethod
    def _chain(node: ast.expr) -> List[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        parts.reverse()
        return parts

    def _flag_target(self, target: ast.expr) -> Optional[Tuple[int, int, str]]:
        if isinstance(target, ast.Subscript):
            chain = self._chain(target.value)
            # A bare local (``labels[i] = ...``) is the caller's own dict;
            # the hazard is writing through an *attribute* of a document.
            if len(chain) >= 2 and chain[-1] in self._STATE_ATTRS:
                return (target.lineno, target.col_offset,
                        f"subscript write to .{chain[-1]}")
        if isinstance(target, ast.Attribute):
            if target.attr in self._STATE_ATTRS:
                return (target.lineno, target.col_offset,
                        f"assignment to .{target.attr}")
            if target.attr == "root":
                chain = self._chain(target.value)
                if chain and chain[-1] in ("document", "doc"):
                    return (target.lineno, target.col_offset,
                            "assignment to document.root")
        return None

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for module in ctx.project.modules.values():
            if ctx.in_scope(module, MUTATION_SCOPE):
                continue
            for node in ast.walk(module.tree):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif isinstance(node, ast.Delete):
                    targets = list(node.targets)
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (isinstance(func, ast.Attribute)
                            and func.attr in self._MUTATORS):
                        chain = self._chain(func.value)
                        if len(chain) >= 2 and chain[-1] in self._STATE_ATTRS:
                            yield ctx.finding(
                                self, module, node.lineno, node.col_offset,
                                f".{chain[-1]}.{func.attr}() outside the "
                                f"update/durability layers bypasses "
                                f"rollback and the label index",
                            )
                    continue
                for target in targets:
                    flagged = self._flag_target(target)
                    if flagged is not None:
                        line, col, what = flagged
                        yield ctx.finding(
                            self, module, line, col,
                            f"{what} outside the update/durability layers "
                            f"bypasses rollback and the label index",
                        )


class MetricNameRule:
    """REP006: metric names must be registry-made and well-formed.

    Instruments come from :class:`MetricsRegistry` (never direct
    ``Counter()``/``Histogram()`` construction outside the
    metrics module), and literal names follow the dotted-lowercase
    convention (``"updates.insertions"``) so dashboards and baselines
    sort stably.  F-string names must carry a dotted literal prefix.
    The leading segment must also be a *known family* (see
    ``KNOWN_FAMILIES``) so the OpenMetrics exposition and the health
    probes see every instrument under a namespace they cover — a typo'd
    family (``op.`` for ``ops.``) would otherwise vanish from both.
    """

    id = "REP006"
    name = "metric-name"
    severity = "error"
    description = ("metric instruments must come from MetricsRegistry "
                   "with dotted lowercase names in a known family")

    _METHODS = ("counter", "histogram")
    _CLASSES = ("Counter", "Histogram")
    _HOME = "repro.observability.metrics"

    #: The metric families dashboards, probes and baselines know about.
    #: Extending the observability surface means extending this set —
    #: deliberately, in the same change that teaches the consumers.
    KNOWN_FAMILIES = frozenset({
        "axes", "batch", "durability", "explain", "health", "ops",
        "profiler", "repository", "scheme", "store", "ulang", "updates",
    })

    @staticmethod
    def _is_registry_receiver(node: ast.expr) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "get_registry"
        parts: List[str] = []
        probe = node
        while isinstance(probe, ast.Attribute):
            parts.append(probe.attr)
            probe = probe.value
        if isinstance(probe, ast.Name):
            parts.append(probe.id)
        if isinstance(probe, ast.Call) and isinstance(probe.func, ast.Name):
            parts.append(probe.func.id)
        return any("registry" in part.lower() for part in parts)

    def _check_name_arg(self, ctx: RuleContext, module: ModuleInfo,
                        call: ast.Call) -> Iterator[Finding]:
        if not call.args:
            return
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not _METRIC_NAME_RE.match(arg.value):
                yield ctx.finding(
                    self, module, arg.lineno, arg.col_offset,
                    f"metric name {arg.value!r} is not dotted lowercase "
                    f"(like 'updates.insertions')",
                )
            elif arg.value.split(".", 1)[0] not in self.KNOWN_FAMILIES:
                yield ctx.finding(
                    self, module, arg.lineno, arg.col_offset,
                    f"metric family {arg.value.split('.', 1)[0]!r} is not "
                    f"a known family "
                    f"({', '.join(sorted(self.KNOWN_FAMILIES))}); extend "
                    f"MetricNameRule.KNOWN_FAMILIES when adding one",
                )
        elif isinstance(arg, ast.JoinedStr):
            head = arg.values[0] if arg.values else None
            if not (isinstance(head, ast.Constant)
                    and isinstance(head.value, str)
                    and _METRIC_PREFIX_RE.match(head.value)):
                yield ctx.finding(
                    self, module, arg.lineno, arg.col_offset,
                    "f-string metric name must start with a dotted "
                    "lowercase literal prefix (like f\"scheme.{name}...\")",
                )
            elif head.value.split(".", 1)[0] not in self.KNOWN_FAMILIES:
                yield ctx.finding(
                    self, module, arg.lineno, arg.col_offset,
                    f"metric family {head.value.split('.', 1)[0]!r} is not "
                    f"a known family "
                    f"({', '.join(sorted(self.KNOWN_FAMILIES))}); extend "
                    f"MetricNameRule.KNOWN_FAMILIES when adding one",
                )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for module in ctx.project.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in self._METHODS
                        and self._is_registry_receiver(func.value)):
                    yield from self._check_name_arg(ctx, module, node)
                elif (isinstance(func, ast.Name)
                        and func.id in self._CLASSES
                        and module.name != self._HOME):
                    binding = module.imports.get(func.id)
                    if binding is not None and binding.module == self._HOME:
                        yield ctx.finding(
                            self, module, node.lineno, node.col_offset,
                            f"direct {func.id}() construction; get the "
                            f"instrument from MetricsRegistry so it is "
                            f"registered and snapshot-visible",
                        )


class ExportDriftRule:
    """REP007: ``__all__`` and re-exports must point at real names.

    Both directions: a name listed in ``__all__`` must be bound in the
    module, and a ``from repro.x import y`` must name something the
    target module actually defines (or a submodule) — the drift that
    silently breaks ``from repro import *`` and the public-API tests.
    """

    id = "REP007"
    name = "export-drift"
    severity = "error"
    description = "__all__ names or intra-repo re-exports that do not exist"

    @staticmethod
    def _all_names(module: ModuleInfo) -> List[Tuple[str, int]]:
        names: List[Tuple[str, int]] = []
        for node in module.tree.body:
            target_names: List[str] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                target_names = [t.id for t in node.targets
                                if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                target_names = [node.target.id]
                value = node.value
            if "__all__" not in target_names or value is None:
                continue
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.append((element.value, element.lineno))
        return names

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for module in ctx.project.modules.values():
            for name, line in self._all_names(module):
                if name not in module.top_level_names:
                    yield ctx.finding(
                        self, module, line, 0,
                        f"__all__ lists {name!r} but the module never "
                        f"binds it",
                    )
            for binding in module.imports.values():
                if binding.attr is None:
                    continue
                if not binding.module.startswith("repro"):
                    continue
                target = ctx.project.module(binding.module)
                if target is None:
                    continue
                if binding.attr in target.top_level_names:
                    continue
                if ctx.project.module(
                    f"{binding.module}.{binding.attr}"
                ) is not None:
                    continue  # importing a submodule
                yield ctx.finding(
                    self, module, binding.line, 0,
                    f"`from {binding.module} import {binding.attr}`: the "
                    f"target module does not define {binding.attr!r}",
                )


class MutableDefaultRule:
    """REP008: mutable default arguments.

    The classic shared-state bug; in this codebase a mutable default on
    a scheme or update entry point would leak label state between
    documents.
    """

    id = "REP008"
    name = "mutable-default"
    severity = "error"
    description = "mutable default argument ([], {}, set(), list(), dict())"

    @staticmethod
    def _is_mutable(node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "dict", "set")
                and not node.args and not node.keywords)

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for module in ctx.project.modules.values():
            for function in module.functions.values():
                args = function.node.args
                for default in list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]:
                    if self._is_mutable(default):
                        yield ctx.finding(
                            self, module, default.lineno,
                            default.col_offset,
                            f"mutable default in {function.qualname}; "
                            f"use None and create inside the body",
                        )


class UnpublishedMutationRule:
    """REP009: label-state mutators must publish a ``StructuralDelta``.

    The axis accelerator (and any other delta subscriber) stays
    coherent only because every public mutation path on
    ``LabeledDocument``, ``UpdateSurface`` (``ldoc.updates``) and
    ``UpdateBatch`` ends in a ``_publish_*`` call.  A node is published
    when it is attached, whether it is labelled then or a batch defers
    its label; a relabelling (a batch's consolidated pass included)
    moves no node and publishes nothing.
    A public method that writes label state — directly or through
    private helpers — without a publish reachable from it silently
    strands subscribers on stale indexes.

    Mutation here means *label-state* mutation (writes to ``.labels`` /
    ``._label_index``), not tree-text edits: ``set_text`` moves no
    labels and owes no delta.  Calls are resolved by name against the
    methods of the update/durability classes (``UndoRecord`` included,
    so the rollback chain resolves), which keeps the reachability
    conservative without a typed call graph: the document and the batch
    both name their labeller ``_label_node``, so a structural core's
    call reaches both.
    """

    id = "REP009"
    name = "unpublished-mutation"
    severity = "error"
    description = ("public LabeledDocument/UpdateSurface/UpdateBatch "
                   "mutation methods must publish a StructuralDelta "
                   "(_publish_* reachable)")

    #: Classes whose *public* methods are held to the contract.
    _FLAGGED_CLASSES = ("LabeledDocument", "UpdateSurface", "UpdateBatch")
    #: Classes whose methods participate in call resolution.
    _UNIVERSE_CLASSES = ("LabeledDocument", "UpdateSurface", "UpdateBatch",
                         "UndoRecord")
    _LABEL_ATTRS = ("labels", "_label_index")
    _DICT_MUTATORS = ("pop", "clear", "update", "setdefault")

    @staticmethod
    def _terminal(node: ast.expr) -> Optional[str]:
        """The last attribute (or bare name) of a call target chain."""
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _writes_labels(self, target: ast.expr) -> bool:
        if isinstance(target, ast.Subscript):
            target = target.value
        return (isinstance(target, ast.Attribute)
                and target.attr in self._LABEL_ATTRS)

    def _method_facts(self, function: FunctionInfo):
        """(mutates, publishes, called names) for one method body."""
        mutates = False
        publishes = False
        calls: Set[str] = set()
        for node in ast.walk(function.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (node.targets
                           if isinstance(node, (ast.Assign, ast.Delete))
                           else [node.target])
                if any(self._writes_labels(target) for target in targets):
                    mutates = True
            elif isinstance(node, ast.Call):
                name = self._terminal(node.func)
                if name is None:
                    continue
                if name.startswith("_publish"):
                    publishes = True
                elif (name in self._DICT_MUTATORS
                        and isinstance(node.func, ast.Attribute)
                        and self._writes_labels(node.func)):
                    mutates = True
                else:
                    calls.add(name)
        return mutates, publishes, calls

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        universe: Dict[str, List[Tuple[FunctionInfo, tuple]]] = {}
        flagged: List[Tuple[ModuleInfo, FunctionInfo]] = []
        for module in ctx.project.modules.values():
            if not ctx.in_scope(module, MUTATION_SCOPE):
                continue
            for cls in module.classes.values():
                if cls.name not in self._UNIVERSE_CLASSES:
                    continue
                for method in cls.methods.values():
                    facts = self._method_facts(method)
                    universe.setdefault(method.name, []).append(
                        (method, facts)
                    )
                    if (cls.name in self._FLAGGED_CLASSES
                            and not method.name.startswith("_")):
                        flagged.append((module, method))

        def reach(name: str, seen: Set[tuple]) -> Tuple[bool, bool]:
            mutates = publishes = False
            for method, (m, p, calls) in universe.get(name, ()):
                if method.key() in seen:
                    continue
                seen.add(method.key())
                mutates |= m
                publishes |= p
                for callee in calls:
                    sub_m, sub_p = reach(callee, seen)
                    mutates |= sub_m
                    publishes |= sub_p
            return mutates, publishes

        for module, method in flagged:
            mutates, publishes = reach(method.name, set())
            if mutates and not publishes:
                yield ctx.finding(
                    self, module, method.lineno, method.node.col_offset,
                    f"{method.qualname} mutates label state but no "
                    f"_publish_* call is reachable; StructuralDelta "
                    f"subscribers (axis accelerator) go stale",
                )


#: Every shipped rule, in id order.
ALL_RULES: List[Rule] = [
    UninstrumentedDivisionRule(),
    FloatEqualityRule(),
    OverbroadExceptRule(),
    NakedMutationRule(),
    MetricNameRule(),
    ExportDriftRule(),
    MutableDefaultRule(),
    UnpublishedMutationRule(),
]
