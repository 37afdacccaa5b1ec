"""Static safety analysis of update programs — no execution required.

Two jobs, both decided from the typed ASTs alone:

**Independence.**  :func:`analyze_program` decides, per registered
query, whether the program can change that query's results.  The
decision is a conservative *name-chain overlap*: every location path is
over-approximated by a set of root-to-node name chains (``//item/name``
becomes ``(GAP, item, name)``), every statement by the chains of nodes
it may remove, add or revalue, and two chains interfere when some word
of one can be a prefix of (or equal to) some word of the other — an
ancestor-or-self relationship in the tree.  The test is a small NFA
product (:func:`can_prefix`), so gaps (``//``), wildcards and unions
are exact, and predicates widen rather than narrow (dropping a filter
can only add words).  The result is *sound in one direction*:
"independent" is a proof, "may-conflict" is a fallback — exactly the
asymmetry Genevès et al. exploit for static query/update analysis.

**Unsafe-program flags.**  The same chains drive five checks, surfaced
as :class:`~repro.staticcheck.reporting.Finding` objects through the
``repro lint`` reporting stack (severities, fingerprint baselining,
``# noqa[UPD...]`` suppression in program comments):

========  ========  ====================================================
UPD001    warning   dead update: target unsatisfiable given document stats
UPD002    warning   delete/move aliasing: a later statement targets nodes
                    an earlier one may already have detached
UPD003    error     move destination may lie inside the moved subtree
UPD004    error     program may invalidate a registered query
UPD005    warning   structural extent ≥ half the document on a
                    relabel-prone scheme (relabel storm)
========  ========  ====================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.axes.xpath_ast import (
    ComparisonPredicate,
    ExistencePredicate,
    LocationPath,
    PositionPredicate,
    parse_xpath,
)
from repro.core.properties import PAPER_FIGURE_7
from repro.observability.metrics import get_registry
from repro.staticcheck.reporting import Finding
from repro.ulang.ast import (
    DeleteStatement,
    InsertStatement,
    MoveStatement,
    RenameStatement,
    ReplaceValueStatement,
    UpdateProgram,
    UStatement,
)

__all__ = [
    "AnalysisReport",
    "IndependenceVerdict",
    "RULES",
    "ULANG_SCHEMA_VERSION",
    "analyze_program",
    "can_prefix",
    "check_program",
    "path_chains",
    "paths_may_interfere",
]

ULANG_SCHEMA_VERSION = 1

#: rule id -> (name, severity, description) — the analyzer's catalogue,
#: mirrored by ``repro update check --list-rules`` and docs/API.md.
RULES = {
    "UPD001": ("dead-update", "warning",
               "target path unsatisfiable given document statistics"),
    "UPD002": ("target-aliasing", "warning",
               "statement targets nodes an earlier delete/move may have "
               "detached"),
    "UPD003": ("move-cycle", "error",
               "move destination may lie inside the moved subtree"),
    "UPD004": ("query-conflict", "error",
               "program may invalidate a registered query"),
    "UPD005": ("relabel-storm", "warning",
               "structural extent may reach half the document on a "
               "relabel-prone scheme"),
}

#: UPD005 fires when the structural statements may touch this share of
#: the document's labelled nodes on a non-persistent scheme.
_STORM_FRACTION = 0.5

# ----------------------------------------------------------------------
# Name chains: the abstract domain
# ----------------------------------------------------------------------

#: Chain items: ("name", n) matches exactly n, WILD matches any one
#: name, GAP matches any (possibly empty) name sequence.
GAP = ("gap",)
WILD = ("wild",)

Chain = Tuple[tuple, ...]

#: The everything-everywhere chain (used for axes the domain cannot
#: model: parent, ancestor, siblings, following/preceding).
UNIVERSAL: Chain = (GAP,)

_CHAIN_LIMIT = 32


def _name_item(name_test: str) -> tuple:
    return ("name", name_test) if name_test != "*" else WILD


def path_chains(path: LocationPath) -> List[Chain]:
    """Over-approximate one location path by root-to-node name chains."""
    chains: List[Tuple[tuple, ...]] = [()] if path.absolute else [(GAP,)]
    for step in path.steps:
        item = _name_item(step.name_test)
        extended: List[Tuple[tuple, ...]] = []
        for chain in chains:
            if step.axis in ("child", "attribute"):
                extended.append(chain + (item,))
            elif step.axis == "descendant":
                extended.append(chain + (GAP, item))
            elif step.axis == "descendant-or-self":
                if step.name_test == "*":
                    extended.append(chain + (GAP,))
                else:
                    # self (name check dropped: widening) or below.
                    extended.append(chain)
                    extended.append(chain + (GAP, item))
            elif step.axis == "self":
                extended.append(chain)  # name check dropped: widening
            else:
                # parent/ancestor/sibling/following/preceding: the
                # domain cannot track them — any node anywhere.
                extended = [UNIVERSAL]
                break
        chains = extended
        if len(chains) > _CHAIN_LIMIT:
            chains = [UNIVERSAL]
    return [tuple(chain) for chain in chains]


def _predicate_windows(path: LocationPath) -> List[Tuple[List[Chain],
                                                         Set[str],
                                                         Set[str]]]:
    """(candidate chains, predicate kinds, referenced names) per step.

    A predicate at step *k* inspects the subtree of the step's
    candidates: positional predicates see same-name siblings,
    comparison/existence predicates see the immediate children and
    attributes *they name* (``text_value`` is direct text only, so a
    value comparison cannot see deeper).  The referenced names let the
    conflict test skip updates that touch the candidate's subtree but
    can never produce or change a node the predicate reads.
    """
    windows: List[Tuple[List[Chain], Set[str], Set[str]]] = []
    for cut in range(len(path.steps)):
        step = path.steps[cut]
        if not step.predicates:
            continue
        kinds: Set[str] = set()
        ref_names: Set[str] = set()
        for predicate in step.predicates:
            if isinstance(predicate, PositionPredicate):
                kinds.add("position")
            elif isinstance(predicate, ComparisonPredicate):
                kinds.add("comparison")
                ref_names.add(predicate.name)
            elif isinstance(predicate, ExistencePredicate):
                kinds.add("existence")
                ref_names.add(predicate.name)
        prefix = LocationPath(absolute=path.absolute,
                              steps=path.steps[:cut + 1],
                              text=path.text)
        windows.append((path_chains(prefix), kinds, ref_names))
    return windows


def _parent_chains(chains: Sequence[Chain]) -> List[Chain]:
    """Chains of the targets' parents (drop the last name item)."""
    out: List[Chain] = []
    for chain in chains:
        if chain and chain[-1][0] in ("name", "wild"):
            out.append(chain[:-1])
        else:
            # Ends with a gap: the region already includes the parents.
            out.append(chain or UNIVERSAL)
    return out


# ----------------------------------------------------------------------
# The word-level tests (NFA product reachability)
# ----------------------------------------------------------------------


def _closure(state: Tuple[int, int], a: Chain, b: Chain) -> Set[Tuple[int, int]]:
    out = {state}
    queue = [state]
    while queue:
        i, j = queue.pop()
        if i < len(a) and a[i][0] == "gap" and (i + 1, j) not in out:
            out.add((i + 1, j))
            queue.append((i + 1, j))
        if j < len(b) and b[j][0] == "gap" and (i, j + 1) not in out:
            out.add((i, j + 1))
            queue.append((i, j + 1))
    return out


def _product_reach(a: Chain, b: Chain, accept) -> bool:
    """BFS over the (a, b) NFA product; True when ``accept`` hits."""
    start = _closure((0, 0), a, b)
    if any(accept(state, a, b) for state in start):
        return True
    seen = set(start)
    queue = deque(start)
    while queue:
        i, j = queue.popleft()
        a_moves: List[Tuple[int, Optional[str]]] = []
        if i < len(a):
            kind = a[i][0]
            if kind == "name":
                a_moves.append((i + 1, a[i][1]))
            elif kind == "wild":
                a_moves.append((i + 1, None))
            else:  # gap: consume one name, stay
                a_moves.append((i, None))
        b_moves: List[Tuple[int, Optional[str]]] = []
        if j < len(b):
            kind = b[j][0]
            if kind == "name":
                b_moves.append((j + 1, b[j][1]))
            elif kind == "wild":
                b_moves.append((j + 1, None))
            else:
                b_moves.append((j, None))
        for next_i, name_a in a_moves:
            for next_j, name_b in b_moves:
                if name_a is not None and name_b is not None \
                        and name_a != name_b:
                    continue
                for state in _closure((next_i, next_j), a, b):
                    if accept(state, a, b):
                        return True
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
    return False


def can_prefix(a: Chain, b: Chain) -> bool:
    """Whether some word of ``a`` is a prefix of (or equals) a word of
    ``b`` — i.e. an ``a``-node can be an ancestor-or-self of a
    ``b``-node."""
    return _product_reach(a, b, lambda s, ca, cb: s[0] == len(ca))


def can_prefix_anchored(a: Chain, b: Chain) -> bool:
    """Like :func:`can_prefix`, but the witness must be *anchored*:
    ``b`` consumes ``a``'s final name with an explicit name/wildcard
    step, not by inventing it inside a ``//`` gap.

    This is the heuristic behind the aliasing and move-cycle checks:
    plain ``can_prefix`` would make every ``//x`` region alias every
    later ``//y`` target (a ``y`` *could* nest under an ``x``), which
    drowns real aliases.  Anchoring trades that noise for witnesses the
    program text actually spells out.  Independence verdicts never use
    this — they keep the fully conservative test.
    """
    if not a or a[-1][0] == "gap":
        return can_prefix(a, b)
    start = _closure((0, 0), a, b)
    seen = set(start)
    queue = deque(start)
    while queue:
        i, j = queue.popleft()
        a_moves: List[Tuple[int, Optional[str]]] = []
        if i < len(a):
            kind = a[i][0]
            if kind == "name":
                a_moves.append((i + 1, a[i][1]))
            elif kind == "wild":
                a_moves.append((i + 1, None))
            else:
                a_moves.append((i, None))
        b_moves: List[Tuple[int, Optional[str]]] = []
        if j < len(b):
            kind = b[j][0]
            if kind == "name":
                b_moves.append((j + 1, b[j][1]))
            elif kind == "wild":
                b_moves.append((j + 1, None))
            else:
                b_moves.append((j, None))
        for next_i, name_a in a_moves:
            for next_j, name_b in b_moves:
                if name_a is not None and name_b is not None \
                        and name_a != name_b:
                    continue
                if next_i == len(a) and next_j > j:
                    return True
                for state in _closure((next_i, next_j), a, b):
                    if state[0] < len(a) and state not in seen:
                        seen.add(state)
                        queue.append(state)
    return False


def can_equal(a: Chain, b: Chain) -> bool:
    """Whether ``a`` and ``b`` share a word (same node position)."""
    return _product_reach(
        a, b, lambda s, ca, cb: s[0] == len(ca) and s[1] == len(cb)
    )


def chains_interfere(a: Sequence[Chain], b: Sequence[Chain]) -> bool:
    """Ancestor-or-self overlap in either direction, any pair."""
    return any(
        can_prefix(x, y) or can_prefix(y, x) for x in a for y in b
    )


def paths_may_interfere(update_path: str, query_path: str) -> bool:
    """Public convenience: conservative overlap of two raw paths.

    True unless the name-chain domain *proves* that no node touched
    at-or-below ``update_path`` can influence ``query_path``.
    """
    update_chains = [
        chain for branch in parse_xpath(update_path)
        for chain in path_chains(branch)
    ]
    query_chains = [
        chain for branch in parse_xpath(query_path)
        for chain in path_chains(branch)
    ]
    return chains_interfere(update_chains, query_chains)


# ----------------------------------------------------------------------
# Statement effects
# ----------------------------------------------------------------------


@dataclass
class _Effects:
    """What one statement can do, in chain space."""

    #: nodes (and their subtrees) whose presence/selection may change
    removed: List[Chain] = field(default_factory=list)
    #: exact chains of newly created nodes (may end with GAP for moves)
    added: List[Chain] = field(default_factory=list)
    #: nodes whose own value changes (fingerprint, not selection)
    revalued: List[Chain] = field(default_factory=list)
    #: which predicate kinds this statement can flip
    window_kinds: Set[str] = field(default_factory=set)

    def all_chains(self) -> List[Chain]:
        return self.removed + self.added + self.revalued


def _target_chains(paths: Sequence[LocationPath]) -> List[Chain]:
    return [chain for path in paths for chain in path_chains(path)]


def _last_name_item(chain: Chain) -> tuple:
    for item in reversed(chain):
        if item[0] in ("name", "wild"):
            return item
    return WILD


def _statement_effects(statement: UStatement) -> _Effects:
    effects = _Effects()
    if isinstance(statement, InsertStatement):
        targets = _target_chains(statement.target_paths)
        anchors = (targets if statement.position == "into"
                   else _parent_chains(targets))
        for anchor in anchors:
            for fragment_chain in statement.fragment_paths:
                effects.added.append(
                    anchor + tuple(("name", name)
                                   for name in fragment_chain)
                )
        effects.window_kinds = {"position", "comparison", "existence"}
    elif isinstance(statement, DeleteStatement):
        effects.removed = _target_chains(statement.target_paths)
        effects.window_kinds = {"position", "comparison", "existence"}
    elif isinstance(statement, ReplaceValueStatement):
        effects.revalued = _target_chains(statement.target_paths)
        effects.window_kinds = {"comparison"}
    elif isinstance(statement, RenameStatement):
        targets = _target_chains(statement.target_paths)
        renamed = [
            chain[:-1] + (("name", statement.name),)
            if chain and chain[-1][0] in ("name", "wild") else chain
            for chain in targets
        ]
        effects.removed = targets + renamed
        effects.window_kinds = {"position", "comparison", "existence"}
    elif isinstance(statement, MoveStatement):
        sources = _target_chains(statement.source_paths)
        effects.removed = sources
        destinations = _target_chains(statement.target_paths)
        anchors = (destinations if statement.position == "into"
                   else _parent_chains(destinations))
        root_items = {_last_name_item(chain) for chain in sources}
        for anchor in anchors:
            for item in root_items:
                effects.added.append(anchor + (item, GAP))
        effects.window_kinds = {"position", "comparison", "existence"}
    return effects


# ----------------------------------------------------------------------
# Query-side view
# ----------------------------------------------------------------------


@dataclass
class _QueryInfo:
    text: str
    chains: List[Chain]
    windows: List[Tuple[List[Chain], Set[str]]]


def _query_info(query: str) -> _QueryInfo:
    branches = parse_xpath(query)
    chains: List[Chain] = []
    windows: List[Tuple[List[Chain], Set[str]]] = []
    for branch in branches:
        chains.extend(path_chains(branch))
        windows.extend(_predicate_windows(branch))
    return _QueryInfo(text=query, chains=chains, windows=windows)


def _conflict_evidence(statement: UStatement, effects: _Effects,
                       query: _QueryInfo) -> Optional[str]:
    """Why this statement may change this query's results, or ``None``."""
    for chain in effects.removed:
        for query_chain in query.chains:
            if can_prefix(chain, query_chain):
                return (f"nodes removed/renamed at-or-below the "
                        f"{statement.kind} target can carry query matches")
    for chain in effects.added:
        for query_chain in query.chains:
            if can_equal(chain, query_chain):
                return (f"nodes created by the {statement.kind} can match "
                        f"the query")
    for chain in effects.revalued:
        for query_chain in query.chains:
            if can_equal(chain, query_chain):
                return ("the query can select the node whose value the "
                        "replace rewrites")
    for window_chains, kinds, ref_names in query.windows:
        shared = kinds & effects.window_kinds
        if not shared:
            continue
        relevant = (effects.revalued if effects.window_kinds == {"comparison"}
                    else effects.all_chains())
        for chain in relevant:
            if not _window_applicable(shared, ref_names, chain):
                continue
            for window_chain in window_chains:
                if can_prefix(window_chain, chain):
                    return ("the update touches nodes a query predicate "
                            "inspects")
    return None


def _window_applicable(kinds: Set[str], ref_names: Set[str],
                       chain: Chain) -> bool:
    """Whether an affected chain can flip a predicate of these kinds.

    Positional predicates react to any structural sibling change.
    Comparison/existence predicates read only the child/attribute names
    they mention, so a chain whose terminal name is known and not
    referenced cannot flip them.
    """
    if "position" in kinds:
        return True
    last = chain[-1] if chain else GAP
    if last[0] != "name":
        return True
    return last[1] in ref_names


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@dataclass
class IndependenceVerdict:
    """One (program, query) decision with its evidence."""

    query: str
    independent: bool
    evidence: str
    lines: List[int] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "query": self.query,
            "verdict": "independent" if self.independent else "may-conflict",
            "evidence": self.evidence,
            "lines": list(self.lines),
        }


@dataclass
class AnalysisReport:
    """Everything one static analysis of a program produced."""

    program: UpdateProgram
    findings: List[Finding] = field(default_factory=list)
    verdicts: List[IndependenceVerdict] = field(default_factory=list)
    suppressed: int = 0
    prediction: Dict[str, object] = field(default_factory=dict)

    @property
    def active(self) -> List[Finding]:
        """Findings that count: not baselined."""
        return [finding for finding in self.findings
                if not finding.baselined]

    @property
    def exit_code(self) -> int:
        """CI semantics: 1 on any active error-severity finding."""
        return 1 if any(finding.severity == "error"
                        for finding in self.active) else 0

    def to_payload(self) -> dict:
        errors = sum(1 for f in self.active if f.severity == "error")
        warnings = sum(1 for f in self.active if f.severity == "warning")
        return {
            "schema_version": ULANG_SCHEMA_VERSION,
            "program": self.program.path,
            "statements": len(self.program.statements),
            "findings": [finding.to_payload()
                         for finding in sorted(self.findings,
                                               key=Finding.sort_key)],
            "verdicts": [verdict.to_payload()
                         for verdict in self.verdicts],
            "prediction": dict(self.prediction),
            "summary": {
                "errors": errors,
                "warnings": warnings,
                "baselined": len(self.findings) - len(self.active),
                "suppressed": self.suppressed,
                "independent": sum(1 for v in self.verdicts
                                   if v.independent),
                "may_conflict": sum(1 for v in self.verdicts
                                    if not v.independent),
                "exit_code": self.exit_code,
            },
        }

    def render(self) -> str:
        from repro.staticcheck.reporting import render_findings

        lines: List[str] = []
        if self.active:
            lines.append(render_findings(self.active))
        for verdict in self.verdicts:
            marker = "independent " if verdict.independent else "may-conflict"
            where = (f" (line {', '.join(map(str, verdict.lines))})"
                     if verdict.lines else "")
            lines.append(f"  {marker}  {verdict.query}{where} — "
                         f"{verdict.evidence}")
        errors = sum(1 for f in self.active if f.severity == "error")
        warnings = sum(1 for f in self.active if f.severity == "warning")
        lines.append(
            f"{errors} error(s), {warnings} warning(s), "
            f"{len(self.findings) - len(self.active)} baselined, "
            f"{self.suppressed} suppressed; "
            f"{sum(1 for v in self.verdicts if v.independent)}/"
            f"{len(self.verdicts)} quer"
            f"{'y' if len(self.verdicts) == 1 else 'ies'} proven independent"
        )
        if self.prediction:
            extent = self.prediction.get("predicted_relabel_extent")
            lines.append(
                f"predicted relabel extent: {extent} label(s), upper bound "
                f"({self.prediction.get('structural_statements', 0)} "
                f"structural statement(s))"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The analyzer proper
# ----------------------------------------------------------------------


def _scheme_is_persistent(scheme_name: Optional[str]) -> Optional[bool]:
    """Figure 7's Persistent Labels grade; None when unknown.

    Extension schemes without a published row count as non-persistent:
    the conservative direction for relabel-extent prediction.
    """
    if scheme_name is None:
        return None
    row = PAPER_FIGURE_7.get(scheme_name)
    if row is None:
        return False
    return row[2] == "F"


def _finding(program: UpdateProgram, rule_id: str, line: int,
             message: str) -> Finding:
    _name, severity, _desc = RULES[rule_id]
    return Finding(
        rule=rule_id, severity=severity, path=program.path, line=line,
        col=0, message=message,
        snippet=program.line_text(line) or "",
    )


def _dead_branches(statement: UStatement, known_names: Set[str]) -> bool:
    """All target branches name an element no document stat has seen."""
    paths = getattr(statement, "target_paths", None) or []
    if isinstance(statement, MoveStatement):
        paths = statement.source_paths
    if not paths:
        return False
    for path in paths:
        branch_dead = False
        for step in path.steps:
            if (step.axis in ("child", "descendant")
                    and step.name_test != "*"
                    and step.name_test not in known_names):
                branch_dead = True
                break
        if not branch_dead:
            return False
    return True


def _grow_known_names(statement: UStatement, known_names: Set[str]) -> None:
    if isinstance(statement, InsertStatement):
        for chain in statement.fragment_paths:
            known_names.update(chain)
    elif isinstance(statement, RenameStatement):
        known_names.add(statement.name)


def _estimate_touched(statement: UStatement, stats) -> int:
    """Rough touched-label estimate for storm prediction.

    Matched target roots (tag-count of the chain's terminal name) times
    the statement's reach: deletes and moves drag their whole subtrees,
    inserts bring the fragment's labeled nodes per anchor.
    """
    paths = getattr(statement, "target_paths", None) or []
    per_target = max(1.0, stats.node_count / max(1, stats.element_count))
    if isinstance(statement, MoveStatement):
        paths = statement.source_paths
    elif isinstance(statement, InsertStatement):
        per_target = float(len(statement.fragment_paths))
    roots = 0
    for path in paths:
        for chain in path_chains(path):
            item = _last_name_item(chain)
            if item[0] == "name":
                roots += stats.tag_counts.get(item[1], 0)
            else:
                roots += stats.element_count
    return int(roots * per_target)


def analyze_program(program: Union[str, UpdateProgram],
                    queries: Sequence[str] = (),
                    *,
                    stats=None,
                    scheme_name: Optional[str] = None,
                    baseline_path: Optional[Path] = None,
                    ) -> AnalysisReport:
    """Statically analyze one update program.

    ``queries`` are the registered path queries to decide independence
    for; ``stats`` (a :class:`~repro.observability.stats.StatsCollector`)
    unlocks the stats-backed checks (dead updates, relabel storms);
    ``scheme_name`` selects the Figure 7 persistence row for relabel
    prediction; ``baseline_path`` grandfathers known findings exactly
    like ``repro lint --baseline``.
    """
    from repro.staticcheck import baseline as baseline_store
    from repro.ulang.parser import parse_program

    if isinstance(program, str):
        program = parse_program(program)
    report = AnalysisReport(program=program)
    effects = [_statement_effects(statement)
               for statement in program.statements]

    # -- UPD001 dead updates / UPD005 storm estimate (stats-backed) ----
    known_names: Set[str] = set()
    if stats is not None:
        known_names = {name for name, count in stats.tag_counts.items()
                       if count > 0}
    structural_estimate = 0
    for statement in program.statements:
        if stats is not None:
            if _dead_branches(statement, known_names):
                report.findings.append(_finding(
                    program, "UPD001", statement.line,
                    f"{statement.kind} target can match nothing: no "
                    f"document node carries the required names",
                ))
            if statement.structural:
                structural_estimate += _estimate_touched(statement, stats)
        _grow_known_names(statement, known_names)

    # -- UPD002 aliasing ------------------------------------------------
    for earlier_index, earlier in enumerate(program.statements):
        if not isinstance(earlier, (DeleteStatement, MoveStatement)):
            continue
        detached = effects[earlier_index].removed
        for later in program.statements[earlier_index + 1:]:
            later_paths = getattr(later, "target_paths", None) or []
            if isinstance(later, MoveStatement):
                later_paths = later.source_paths + later.target_paths
            later_chains = _target_chains(later_paths)
            if any(can_prefix_anchored(region, target)
                   for region in detached for target in later_chains):
                report.findings.append(_finding(
                    program, "UPD002", later.line,
                    f"targets nodes the {earlier.kind} on line "
                    f"{earlier.line} may already have detached",
                ))

    # -- UPD003 move cycles ---------------------------------------------
    for statement in program.statements:
        if not isinstance(statement, MoveStatement):
            continue
        sources = _target_chains(statement.source_paths)
        destinations = _target_chains(statement.target_paths)
        if any(can_prefix_anchored(source, destination)
               for source in sources for destination in destinations):
            report.findings.append(_finding(
                program, "UPD003", statement.line,
                "move destination may lie at-or-below the moved subtree "
                "(ancestor-into-descendant cycle)",
            ))

    # -- independence verdicts + UPD004 ---------------------------------
    for query in queries:
        info = _query_info(query)
        evidence = ""
        conflict_lines: List[int] = []
        for statement, statement_effects in zip(program.statements, effects):
            found = _conflict_evidence(statement, statement_effects, info)
            if found:
                conflict_lines.append(statement.line)
                if not evidence:
                    evidence = found
        if conflict_lines:
            report.verdicts.append(IndependenceVerdict(
                query=query, independent=False, evidence=evidence,
                lines=conflict_lines,
            ))
            report.findings.append(_finding(
                program, "UPD004", conflict_lines[0],
                f"may invalidate registered query {query!r}: {evidence}",
            ))
        else:
            report.verdicts.append(IndependenceVerdict(
                query=query, independent=True,
                evidence="no name-chain of the program overlaps the "
                         "query's selection or predicate windows",
            ))

    # -- UPD005 relabel storm -------------------------------------------
    persistent = _scheme_is_persistent(scheme_name)
    structural = [s for s in program.statements if s.structural]
    if (stats is not None and structural and persistent is False
            and stats.node_count > 0
            and structural_estimate >= _STORM_FRACTION * stats.node_count):
        report.findings.append(_finding(
            program, "UPD005", structural[0].line,
            f"structural statements may touch ~{structural_estimate} of "
            f"{stats.node_count} labeled nodes (>= {_STORM_FRACTION:.0%} "
            f"of the document) on non-persistent scheme "
            f"{scheme_name!r}: expect relabel storms",
        ))

    # -- prediction (the `update explain` static half) ------------------
    report.prediction = {
        "statements": len(program.statements),
        "structural_statements": len(structural),
        "scheme": scheme_name,
        "persistent_labels": persistent,
        "estimated_structural_targets": (
            structural_estimate if stats is not None else None
        ),
        "predicted_relabel_extent": (
            0 if (persistent or not structural)
            else (stats.node_count if stats is not None else None)
        ),
    }

    # -- suppression + baseline, lint-identical ------------------------
    kept: List[Finding] = []
    for finding in report.findings:
        if program.is_suppressed(finding.line, finding.rule):
            report.suppressed += 1
        else:
            kept.append(finding)
    report.findings = kept
    if baseline_path is not None:
        entries = baseline_store.load_baseline(baseline_path)
        baseline_store.apply_baseline(report.findings, entries)

    registry = get_registry()
    registry.counter("ulang.checks").increment()
    registry.counter("ulang.conflicts").increment(
        sum(1 for verdict in report.verdicts if not verdict.independent)
    )
    return report


def check_program(source: Union[str, UpdateProgram],
                  queries: Sequence[str] = (),
                  ldoc=None,
                  path: str = "<program>",
                  **kwargs) -> AnalysisReport:
    """Parse + analyze in one call, pulling stats/scheme from ``ldoc``."""
    from repro.ulang.parser import parse_program

    program = (parse_program(source, path=path)
               if isinstance(source, str) else source)
    if ldoc is not None and "stats" not in kwargs:
        from repro.observability.stats import StatsCollector

        kwargs["stats"] = StatsCollector.collect(ldoc)
        kwargs.setdefault("scheme_name", ldoc.scheme.metadata.name)
    return analyze_program(program, queries, **kwargs)
