"""Static Figure 7 verdicts: division and recursion, proved from the AST.

The survey's Figure 7 grades every scheme on whether insertion "performs
division" and whether labelling "uses recursion".  The dynamic framework
establishes those grades by counting at runtime
(:mod:`repro.analysis.instrumentation`); this module establishes them a
second way, from the source alone:

* **division** — any ``/``, ``//``, ``%`` or ``divmod`` reachable from
  the scheme's labelling entry points (``label_tree``,
  ``relabel_below``, ``insert_sibling``, ``plan_insert``,
  ``on_delete``), whether it is wrapped in ``instruments.divide`` or
  not.  Parity tests (``x % 2``) and string formatting are excluded,
  mirroring the published counting rules; a ``# repro: noqa[REP001]``
  suppression keeps an op out of the verdict but still lists it in the
  evidence.
* **recursion** — any call-graph cycle reachable from ``label_tree``.
  The recursion entry point is deliberately narrower than division's:
  Figure 7 (and our dynamic probe) grade the *bulk labelling algorithm*,
  which is why Dewey's recursive subtree relabelling after an insertion
  does not make Dewey a "recursive" scheme.

The scheme-name-to-class map is read from ``repro/schemes/registry.py``'s
``_SCHEME_CLASSES`` dict literal — statically, so the verifier works on
any checkout without importing it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FrameworkError
from repro.staticcheck.callgraph import CallGraph, Node, Reachability
from repro.staticcheck.project import ClassInfo, FunctionInfo, Project

#: Entry points whose reachable code decides the Division verdict.
DIVISION_ENTRY_POINTS = ("label_tree", "relabel_below", "insert_sibling",
                         "plan_insert", "on_delete")

#: Entry points whose reachable code decides the Recursion verdict.
RECURSION_ENTRY_POINTS = ("label_tree",)

#: Modules the scheme call graph may traverse into.
SCHEME_SCOPE = ("repro.schemes.", "repro.labels.", "repro.strategies.")

#: Rule id whose ``noqa`` suppressions also exempt an op from the verdict.
DIVISION_RULE_ID = "REP001"


@dataclass
class DivisionEvidence:
    """One division-family operation found on a reachable path."""

    path: str
    line: int
    op: str
    function: str
    instrumented: bool
    suppressed: bool = False
    excluded: Optional[str] = None

    def to_payload(self) -> dict:
        return {
            "path": self.path, "line": self.line, "op": self.op,
            "function": self.function, "instrumented": self.instrumented,
            "suppressed": self.suppressed, "excluded": self.excluded,
        }


@dataclass
class RecursionEvidence:
    """One call-graph cycle, as the functions participating in it."""

    functions: List[str]
    instrumented: bool

    def to_payload(self) -> dict:
        return {"cycle": self.functions, "instrumented": self.instrumented}


@dataclass
class SchemeVerdict:
    """The static half of one scheme's Division/Recursion grades."""

    name: str
    class_name: str
    uses_division: bool
    uses_recursion: bool
    division_sites: List[DivisionEvidence] = field(default_factory=list)
    recursion_cycles: List[RecursionEvidence] = field(default_factory=list)
    #: ``instruments.recursive_call`` sites reachable from ``label_tree``.
    recursion_markers: List[Tuple[str, int]] = field(default_factory=list)
    #: direct writes to instrumentation counters on any reachable path.
    counter_writes: List[Tuple[str, int, str]] = field(default_factory=list)
    unresolved_calls: List[Tuple[str, int, str]] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "scheme": self.name,
            "class": self.class_name,
            "uses_division": self.uses_division,
            "uses_recursion": self.uses_recursion,
            "division_sites": [site.to_payload()
                               for site in self.division_sites],
            "recursion_cycles": [cycle.to_payload()
                                 for cycle in self.recursion_cycles],
            "recursion_markers": [
                {"path": path, "line": line}
                for path, line in self.recursion_markers
            ],
            "counter_writes": [
                {"path": path, "line": line, "attribute": attribute}
                for path, line, attribute in self.counter_writes
            ],
            "unresolved_calls": [
                {"path": path, "line": line, "target": target}
                for path, line, target in self.unresolved_calls
            ],
        }


def scheme_classes(project: Project) -> Dict[str, ClassInfo]:
    """The registry's scheme-name-to-class map, read from its AST."""
    registry = project.module("repro.schemes.registry")
    if registry is None:
        raise FrameworkError("project has no repro.schemes.registry module")
    mapping: Dict[str, ClassInfo] = {}
    for node in registry.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
        else:
            continue
        if "_SCHEME_CLASSES" not in targets or node.value is None:
            continue
        if not isinstance(node.value, ast.Dict):
            raise FrameworkError("_SCHEME_CLASSES is not a dict literal")
        for key, value in zip(node.value.keys, node.value.values):
            if not isinstance(key, ast.Constant) or not isinstance(
                key.value, str
            ):
                continue
            if not isinstance(value, ast.Name):
                continue
            cls = project.find_class(registry, value.id)
            if cls is None:
                raise FrameworkError(
                    f"scheme {key.value!r} maps to unresolvable class "
                    f"{value.id!r}"
                )
            mapping[key.value] = cls
    if not mapping:
        raise FrameworkError("no _SCHEME_CLASSES assignment found")
    return mapping


def _entries(graph: CallGraph, cls: ClassInfo,
             names: Tuple[str, ...]) -> List[Tuple[FunctionInfo, ClassInfo]]:
    entries = []
    for name in names:
        method = graph.resolve_method(cls, name)
        if method is not None:
            entries.append((method, cls))
    return entries


def _function_label(node_key: tuple) -> str:
    module_name, qualname = node_key
    return f"{module_name}:{qualname}"


def _collect_divisions(graph: CallGraph, reach: Reachability,
                       project: Project) -> List[DivisionEvidence]:
    evidence: List[DivisionEvidence] = []
    seen = set()
    for function_key, _ctx in reach.nodes:
        if function_key in seen:
            continue
        seen.add(function_key)
        function = reach.functions[function_key]
        facts = graph.facts(function)
        module = function.module
        path = project.relative_path(module)
        for op in facts.divisions:
            evidence.append(DivisionEvidence(
                path=path, line=op.line, op=op.op,
                function=_function_label(function_key),
                instrumented=False,
                suppressed=module.is_suppressed(op.line, DIVISION_RULE_ID),
                excluded=op.excluded,
            ))
        for call in facts.instrumented:
            if call.method == "recursive_call":
                continue
            evidence.append(DivisionEvidence(
                path=path, line=call.line,
                op=f"instruments.{call.method}",
                function=_function_label(function_key),
                instrumented=True,
            ))
    evidence.sort(key=lambda site: (site.path, site.line))
    return evidence


def verify_scheme(graph: CallGraph, project: Project, name: str,
                  cls: ClassInfo) -> SchemeVerdict:
    """Compute one scheme's static verdict and its evidence."""
    division_reach = graph.reachable(
        _entries(graph, cls, DIVISION_ENTRY_POINTS)
    )
    recursion_reach = graph.reachable(
        _entries(graph, cls, RECURSION_ENTRY_POINTS)
    )
    division_sites = _collect_divisions(graph, division_reach, project)
    uses_division = any(
        site.instrumented or (not site.suppressed and site.excluded is None)
        for site in division_sites
    )

    cycles = graph.cycles(recursion_reach)
    cycle_evidence: List[RecursionEvidence] = []
    cycle_function_keys = set()
    for cycle in cycles:
        keys = {node[0] for node in cycle}
        cycle_function_keys.update(keys)
        instrumented = any(
            any(call.method == "recursive_call"
                for call in graph.facts(recursion_reach.functions[key])
                .instrumented)
            for key in keys
        )
        cycle_evidence.append(RecursionEvidence(
            functions=sorted(_function_label(key) for key in keys),
            instrumented=instrumented,
        ))

    markers: List[Tuple[str, int]] = []
    seen_functions = set()
    for function_key, _ctx in recursion_reach.nodes:
        if function_key in seen_functions:
            continue
        seen_functions.add(function_key)
        function = recursion_reach.functions[function_key]
        for call in graph.facts(function).instrumented:
            if call.method == "recursive_call":
                markers.append(
                    (project.relative_path(function.module), call.line)
                )

    counter_writes: List[Tuple[str, int, str]] = []
    seen_functions = set()
    for function_key, _ctx in division_reach.nodes:
        if function_key in seen_functions:
            continue
        seen_functions.add(function_key)
        function = division_reach.functions[function_key]
        for write in graph.facts(function).counter_writes:
            counter_writes.append((
                project.relative_path(function.module), write.line,
                write.attribute,
            ))

    unresolved = sorted({
        (project.relative_path(call.function.module), call.line, call.target)
        for call in division_reach.unresolved + recursion_reach.unresolved
    })

    return SchemeVerdict(
        name=name,
        class_name=f"{cls.module.name}.{cls.name}",
        uses_division=uses_division,
        uses_recursion=bool(cycle_evidence),
        division_sites=division_sites,
        recursion_cycles=cycle_evidence,
        recursion_markers=sorted(set(markers)),
        counter_writes=counter_writes,
        unresolved_calls=unresolved,
    )


def verify_all(project: Optional[Project] = None) -> Dict[str, SchemeVerdict]:
    """Static verdicts for every scheme registered in the project."""
    if project is None:
        project = Project.load()
    graph = CallGraph(project, scope_prefixes=SCHEME_SCOPE)
    verdicts: Dict[str, SchemeVerdict] = {}
    for name, cls in scheme_classes(project).items():
        verdicts[name] = verify_scheme(graph, project, name, cls)
    return verdicts
