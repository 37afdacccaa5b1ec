"""A static call graph over a :class:`~repro.staticcheck.project.Project`.

The graph answers the two questions the property verifier asks about
every labelling scheme:

* which functions are *reachable* from a scheme's entry points
  (``label_tree``, ``insert_sibling``, ...), resolving ``self`` calls
  through a statically linearised class hierarchy so that, say,
  ``QEDScheme.label_tree`` inherited from :class:`PrefixSchemeBase` still
  reaches QED's own ``initial_child_components`` override; and
* which *cycles* exist among those reachable functions — direct
  recursion is a self-edge, mutual recursion a longer cycle.

Resolution is deliberately conservative.  Calls the resolver cannot pin
to a project function (``self.storage.check(...)``, builtins, calls on
arbitrary expressions) are recorded as *unresolved* rather than guessed,
and the verifier surfaces them in its evidence so a reader can audit what
the static verdict did not see.  Traversal is also fenced to the module
prefixes the verdict is about — the scheme sources and their helper
packages — so a recursive tree-walk in the XML substrate does not count
as the *scheme* using recursion (the paper's Figure 7 grades the
labelling algorithm, not the document model it runs over).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
)

#: ``instruments.<method>`` names that perform a real division.
INSTRUMENTED_DIVISION_METHODS = frozenset({"divide", "divide_float"})

#: Instrumentation counter attributes a function must never touch directly.
COUNTER_ATTRIBUTES = frozenset({
    "divisions", "recursions", "multiplications", "additions", "comparisons",
    "max_recursion_depth",
})

_DIV_OPS = {ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%"}


@dataclass
class CallSite:
    """One call expression, classified by receiver shape."""

    line: int
    form: str          # "name" | "self" | "super" | "attr"
    parts: Tuple[str, ...]
    text: str = ""


@dataclass
class DivisionOp:
    """One ``/``, ``//``, ``%`` or ``divmod`` in a function body."""

    line: int
    col: int
    op: str
    #: why the op does not count ("parity", "string-format"), or ``None``.
    excluded: Optional[str] = None


@dataclass
class InstrumentedOp:
    """One call into the instrumentation layer (``instruments.divide``...)."""

    line: int
    method: str


@dataclass
class CounterWrite:
    """A direct assignment to an instrumentation counter attribute."""

    line: int
    attribute: str


@dataclass
class FunctionFacts:
    """Everything the analyses need to know about one function body.

    Facts cover the function's own statements only — nested ``def``s are
    separate functions with their own facts; calling one creates an edge.
    """

    function: FunctionInfo
    calls: List[CallSite] = field(default_factory=list)
    divisions: List[DivisionOp] = field(default_factory=list)
    instrumented: List[InstrumentedOp] = field(default_factory=list)
    counter_writes: List[CounterWrite] = field(default_factory=list)


def _attr_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _classify_division(node: ast.AST, op: ast.operator) -> Optional[DivisionOp]:
    kind = _DIV_OPS.get(type(op))
    if kind is None:
        return None
    excluded = None
    if kind == "%":
        left = getattr(node, "left", None) or getattr(node, "target", None)
        right = getattr(node, "right", None) or getattr(node, "value", None)
        if isinstance(right, ast.Constant) and right.value == 2:
            # Parity tests drive branching (ORDPATH's odd/even careting),
            # not label arithmetic; the published counting rules exclude
            # them, and the dynamic counters never see them either.
            excluded = "parity"
        if isinstance(left, ast.Constant) and isinstance(left.value, str):
            excluded = "string-format"
    return DivisionOp(line=node.lineno, col=node.col_offset, op=kind,
                      excluded=excluded)


def iter_division_ops(tree: ast.AST) -> List[DivisionOp]:
    """Every division-family op anywhere under ``tree``, nested defs
    included — the whole-module view the REP001 lint rule wants, as
    opposed to the per-function-body view of :class:`FunctionFacts`."""
    ops: List[DivisionOp] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            division = _classify_division(node, node.op)
            if division is not None:
                ops.append(division)
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "divmod"):
            ops.append(DivisionOp(line=node.lineno, col=node.col_offset,
                                  op="divmod"))
    return ops


class _FactsWalker:
    """Extracts :class:`FunctionFacts` without entering nested defs."""

    def __init__(self, facts: FunctionFacts):
        self.facts = facts

    def walk(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested definition is its own function; only its decorators
            # and default expressions execute in this scope.
            for expr in list(node.decorator_list) + list(
                node.args.defaults
            ) + [d for d in node.args.kw_defaults if d is not None]:
                self.visit(expr)
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.BinOp):
            division = _classify_division(node, node.op)
            if division is not None:
                self.facts.divisions.append(division)
        elif isinstance(node, ast.AugAssign):
            division = _classify_division(node, node.op)
            if division is not None:
                self.facts.divisions.append(division)
            self._visit_counter_target(node.target, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._visit_counter_target(target, node.lineno)
        self.walk(node)

    def _visit_counter_target(self, target: ast.expr, line: int) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in COUNTER_ATTRIBUTES:
            return
        chain = _attr_chain(target)
        if chain and "instruments" in chain[:-1]:
            self.facts.counter_writes.append(
                CounterWrite(line=line, attribute=target.attr)
            )

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "divmod":
                self.facts.divisions.append(
                    DivisionOp(line=node.lineno, col=node.col_offset,
                               op="divmod")
                )
            self.facts.calls.append(CallSite(
                line=node.lineno, form="name", parts=(func.id,),
            ))
            return
        if isinstance(func, ast.Attribute):
            # super().method(...)
            value = func.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "super"):
                self.facts.calls.append(CallSite(
                    line=node.lineno, form="super", parts=(func.attr,),
                ))
                return
            chain = _attr_chain(func)
            if chain is not None:
                receiver = chain[:-1]
                if "instruments" in receiver:
                    if func.attr in INSTRUMENTED_DIVISION_METHODS:
                        self.facts.instrumented.append(InstrumentedOp(
                            line=node.lineno, method=func.attr,
                        ))
                    elif func.attr == "recursive_call":
                        self.facts.instrumented.append(InstrumentedOp(
                            line=node.lineno, method="recursive_call",
                        ))
                if chain[0] in ("self", "cls") and len(chain) == 2:
                    self.facts.calls.append(CallSite(
                        line=node.lineno, form="self", parts=(func.attr,),
                    ))
                    return
                self.facts.calls.append(CallSite(
                    line=node.lineno, form="attr", parts=tuple(chain),
                ))
                return
            # Call on an arbitrary expression; keep it as unresolvable.
            self.facts.calls.append(CallSite(
                line=node.lineno, form="attr", parts=("<expr>", func.attr),
            ))


def extract_facts(function: FunctionInfo) -> FunctionFacts:
    """Compute the :class:`FunctionFacts` of one function body."""
    facts = FunctionFacts(function=function)
    walker = _FactsWalker(facts)
    walker.walk(function.node)
    return facts


#: A call-graph node: one function analysed under one concrete receiver
#: class (``None`` for free functions).
Node = Tuple[tuple, Optional[tuple]]


@dataclass
class UnresolvedCall:
    """A call the resolver could not pin to a project function."""

    function: FunctionInfo
    line: int
    target: str


@dataclass
class Reachability:
    """Everything reachable from a set of entry points."""

    nodes: List[Node] = field(default_factory=list)
    edges: List[Tuple[Node, Node, int]] = field(default_factory=list)
    functions: Dict[tuple, FunctionInfo] = field(default_factory=dict)
    unresolved: List[UnresolvedCall] = field(default_factory=list)
    out_of_scope: List[Tuple[FunctionInfo, int, str]] = field(
        default_factory=list
    )


class CallGraph:
    """Call resolution, reachability and cycle detection for a project."""

    def __init__(self, project: Project,
                 scope_prefixes: Sequence[str] = ("repro.",)):
        self.project = project
        self.scope_prefixes = tuple(scope_prefixes)
        self._facts: Dict[tuple, FunctionFacts] = {}
        self._mro: Dict[tuple, List[ClassInfo]] = {}

    # -- facts ------------------------------------------------------------

    def facts(self, function: FunctionInfo) -> FunctionFacts:
        key = function.key()
        if key not in self._facts:
            self._facts[key] = extract_facts(function)
        return self._facts[key]

    # -- class hierarchy --------------------------------------------------

    def resolve_base(self, module: ModuleInfo,
                     expr: ast.expr) -> Optional[ClassInfo]:
        """A base-class expression (Name or dotted Attribute) to its class."""
        if isinstance(expr, ast.Name):
            return self.project.find_class(module, expr.id)
        chain = _attr_chain(expr)
        if chain and len(chain) >= 2:
            binding = module.imports.get(chain[0])
            if binding is not None and binding.attr is None:
                target = self.project.module(binding.module)
                if target is not None:
                    return self.project.find_class(target, chain[-1])
        return None

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Static linearisation: the class, then bases depth-first.

        Left-to-right depth-first with first-occurrence dedup is not full
        C3, but the repository's single-inheritance-plus-mixin shapes
        resolve identically — and unlike C3 it cannot fail on a class we
        merely observe.
        """
        key = cls.key()
        if key in self._mro:
            return self._mro[key]
        order: List[ClassInfo] = []
        seen: Set[tuple] = set()

        def expand(current: ClassInfo) -> None:
            if current.key() in seen:
                return
            seen.add(current.key())
            order.append(current)
            for base in current.bases:
                resolved = self.resolve_base(current.module, base)
                if resolved is not None:
                    expand(resolved)

        expand(cls)
        self._mro[key] = order
        return order

    def resolve_method(self, cls: ClassInfo,
                       name: str) -> Optional[FunctionInfo]:
        """The method ``name`` as instance ``cls`` would dispatch it."""
        for candidate in self.mro(cls):
            if name in candidate.methods:
                return candidate.methods[name]
        return None

    # -- call resolution --------------------------------------------------

    def resolve_call(self, site: CallSite, function: FunctionInfo,
                     ctx: Optional[ClassInfo]):
        """Resolve one call site to ``(FunctionInfo, new_ctx)``.

        Returns ``None`` when the target is outside the project or not
        statically resolvable; the caller records those as unresolved.
        """
        if site.form == "self":
            if ctx is None:
                return None
            target = self.resolve_method(ctx, site.parts[0])
            return (target, ctx) if target is not None else None
        if site.form == "super":
            if ctx is None or function.cls is None:
                return None
            defining = self.project.find_class(function.module, function.cls)
            if defining is None:
                return None
            linearised = self.mro(ctx)
            try:
                start = next(
                    index for index, candidate in enumerate(linearised)
                    if candidate.key() == defining.key()
                ) + 1
            except StopIteration:
                start = 1
            for candidate in linearised[start:]:
                if site.parts[0] in candidate.methods:
                    return (candidate.methods[site.parts[0]], ctx)
            return None
        if site.form == "name":
            return self._resolve_name(site.parts[0], function, ctx)
        if site.form == "attr":
            return self._resolve_attr(site.parts, function, ctx)
        return None

    def _resolve_name(self, name: str, function: FunctionInfo,
                      ctx: Optional[ClassInfo]):
        # Innermost enclosing scope first: the function's own nested
        # defs, then each ancestor's.
        scope: Optional[FunctionInfo] = function
        while scope is not None:
            if name in scope.children:
                return (scope.children[name], ctx)
            scope = scope.parent
        module = function.module
        if name in module.functions and module.functions[name].cls is None:
            candidate = module.functions[name]
            if candidate.parent is None:
                return (candidate, None)
        cls = self.project.find_class(module, name)
        if cls is not None:
            # A constructor call: analyse the class's __init__ under the
            # constructed class as receiver.
            init = self.resolve_method(cls, "__init__")
            if init is not None:
                return (init, cls)
            return None
        binding = module.imports.get(name)
        if binding is not None and binding.attr is not None:
            target = self.project.module(binding.module)
            if target is not None:
                if binding.attr in target.functions:
                    candidate = target.functions[binding.attr]
                    if candidate.cls is None and candidate.parent is None:
                        return (candidate, None)
        return None

    def _resolve_attr(self, parts: Tuple[str, ...], function: FunctionInfo,
                      ctx: Optional[ClassInfo]):
        module = function.module
        head = parts[0]
        if head == "<expr>":
            return None
        # ``ClassName.method(self, ...)`` — an explicit unbound call; the
        # receiver context stays whatever ``self`` is.
        cls = self.project.find_class(module, head)
        if cls is not None and len(parts) == 2:
            target = self.resolve_method(cls, parts[1])
            if target is not None:
                return (target, ctx)
            return None
        binding = module.imports.get(head)
        if binding is not None and binding.attr is None and len(parts) == 2:
            # ``quaternary.initial_codes(...)`` through a module binding.
            target_module = self.project.module(binding.module)
            if target_module is not None:
                name = parts[1]
                if name in target_module.functions:
                    candidate = target_module.functions[name]
                    if candidate.cls is None and candidate.parent is None:
                        return (candidate, None)
                found = self.project.find_class(target_module, name)
                if found is not None:
                    init = self.resolve_method(found, "__init__")
                    if init is not None:
                        return (init, found)
        return None

    # -- reachability and cycles ------------------------------------------

    def in_scope(self, function: FunctionInfo) -> bool:
        name = function.module.name
        return any(
            name == prefix.rstrip(".") or name.startswith(prefix)
            for prefix in self.scope_prefixes
        )

    @staticmethod
    def _node(function: FunctionInfo, ctx: Optional[ClassInfo]) -> Node:
        return (function.key(), ctx.key() if ctx is not None else None)

    def reachable(self, entries: Iterable[Tuple[FunctionInfo,
                                                Optional[ClassInfo]]]
                  ) -> Reachability:
        """BFS over resolvable calls from ``entries``, fenced to scope."""
        result = Reachability()
        classes: Dict[Optional[tuple], Optional[ClassInfo]] = {None: None}
        queue: List[Tuple[FunctionInfo, Optional[ClassInfo]]] = []
        seen: Set[Node] = set()
        for function, ctx in entries:
            node = self._node(function, ctx)
            if node not in seen:
                seen.add(node)
                queue.append((function, ctx))
        while queue:
            function, ctx = queue.pop(0)
            node = self._node(function, ctx)
            result.nodes.append(node)
            result.functions[function.key()] = function
            if ctx is not None:
                classes[ctx.key()] = ctx
            for site in self.facts(function).calls:
                resolved = self.resolve_call(site, function, ctx)
                if resolved is None:
                    if site.form in ("self", "super", "name", "attr"):
                        result.unresolved.append(UnresolvedCall(
                            function=function, line=site.line,
                            target=".".join(site.parts),
                        ))
                    continue
                callee, new_ctx = resolved
                if not self.in_scope(callee):
                    result.out_of_scope.append(
                        (function, site.line, callee.module.name)
                    )
                    continue
                callee_node = self._node(callee, new_ctx)
                result.edges.append((node, callee_node, site.line))
                if callee_node not in seen:
                    seen.add(callee_node)
                    queue.append((callee, new_ctx))
        return result

    @staticmethod
    def cycles(reach: Reachability) -> List[List[Node]]:
        """Strongly connected components with an internal edge.

        Returns one node list per cycle: every SCC of size > 1, plus any
        single node with a self-edge (direct recursion).
        """
        adjacency: Dict[Node, List[Node]] = {node: [] for node in reach.nodes}
        self_loops: Set[Node] = set()
        for source, target, _line in reach.edges:
            if source == target:
                self_loops.add(source)
            if target in adjacency:
                adjacency.setdefault(source, []).append(target)
        # Tarjan's algorithm, iterative to survive deep graphs.
        index_of: Dict[Node, int] = {}
        low: Dict[Node, int] = {}
        on_stack: Set[Node] = set()
        stack: List[Node] = []
        counter = [0]
        components: List[List[Node]] = []

        def strongconnect(root: Node) -> None:
            work = [(root, iter(adjacency.get(root, ())))]
            index_of[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index_of:
                        index_of[successor] = low[successor] = counter[0]
                        counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(adjacency.get(successor, ())))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        low[node] = min(low[node], index_of[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: List[Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)

        for node in reach.nodes:
            if node not in index_of:
                strongconnect(node)
        cycles: List[List[Node]] = []
        for component in components:
            if len(component) > 1:
                cycles.append(list(reversed(component)))
            elif component[0] in self_loops:
                cycles.append(component)
        return cycles
