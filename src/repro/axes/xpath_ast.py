"""The standalone mini-XPath parser: one typed AST, many consumers.

Parsing used to live inline in :mod:`repro.axes.xpath`, which left the
EXPLAIN planner and every new static analysis re-tokenising location
paths on their own.  This module is the single grammar authority: the
evaluator (:class:`~repro.axes.xpath.XPathEvaluator`), the EXPLAIN
planner (:func:`~repro.observability.explain.explain_query`) and the
update/query independence analyzer (:mod:`repro.ulang.analysis`) all
consume the same :class:`Step`/:class:`Predicate` objects.

Grammar (a practical XPath 1.0 subset):

* absolute and relative location paths: ``/book/title``, ``author``
* the abbreviations ``//`` (descendant-or-self), ``.``, ``..``, ``@name``
* explicit axes: ``ancestor::*``, ``following-sibling::item``, ...
* name test ``*`` and node name tests
* predicates: positional ``[2]``, attribute equality ``[@year='2004']``,
  child-text equality ``[name='Destiny Image']``, existence ``[@year]``
* top-level unions: ``//a | //b``

Predicates parse to typed objects (:class:`PositionPredicate`,
:class:`ComparisonPredicate`, :class:`ExistencePredicate`) at *parse*
time, so malformed predicates fail before any evaluation starts and
analyses can inspect predicate structure without regexes.  Each
predicate remembers its ``raw`` source text and compares equal to it,
which keeps plans and error messages round-trippable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import XPathError
from repro.xmlmodel.tree import NodeKind

_ATTRIBUTE = NodeKind.ATTRIBUTE

#: The axes the grammar (and the evaluator) understand.
AXES = (
    "self",
    "child",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "descendant",
    "descendant-or-self",
    "following",
    "preceding",
    "following-sibling",
    "preceding-sibling",
    "attribute",
)

#: Axes whose positional predicates count in *reverse* document order
#: (proximity order): ``ancestor::*[1]`` is the nearest ancestor, not
#: the root.
REVERSE_AXES = frozenset(
    ("ancestor", "ancestor-or-self", "preceding", "preceding-sibling")
)

_STEP_RE = re.compile(
    r"^(?:(?P<axis>[a-z-]+)::)?(?P<attr>@)?(?P<name>\*|[A-Za-z_][\w.-]*|\.\.|\.)"
)
_PRED_POSITION_RE = re.compile(r"^\d+$")
_PRED_EQUALS_RE = re.compile(
    r"^(?P<attr>@)?(?P<name>[A-Za-z_][\w.-]*)\s*=\s*"
    r"(?P<quote>['\"])(?P<value>.*)(?P=quote)$"
)
_PRED_EXISTS_RE = re.compile(r"^(?P<attr>@)?(?P<name>[A-Za-z_][\w.-]*)$")


class Predicate:
    """Base of the typed predicate objects.

    Every predicate keeps the exact source text it was parsed from in
    ``raw`` and compares equal to that string, so code that used to
    treat predicates as strings (plan payloads, tests, renderers)
    keeps working unchanged.
    """

    raw: str

    def __str__(self) -> str:
        return self.raw

    def __eq__(self, other) -> bool:
        if isinstance(other, str):
            return self.raw == other
        if isinstance(other, Predicate):
            return type(self) is type(other) and self.raw == other.raw
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.raw)


@dataclass(eq=False)
class PositionPredicate(Predicate):
    """``[2]`` — positional selection within the step's candidate list."""

    position: int
    raw: str = ""

    def __post_init__(self):
        if not self.raw:
            self.raw = str(self.position)


@dataclass(eq=False)
class ComparisonPredicate(Predicate):
    """``[@year='2004']`` / ``[name='X']`` — value equality."""

    name: str
    value: str
    attribute: bool
    raw: str = ""

    def __post_init__(self):
        if not self.raw:
            marker = "@" if self.attribute else ""
            self.raw = f"{marker}{self.name}='{self.value}'"


@dataclass(eq=False)
class ExistencePredicate(Predicate):
    """``[@year]`` / ``[name]`` — attribute or child-element existence."""

    name: str
    attribute: bool
    raw: str = ""

    def __post_init__(self):
        if not self.raw:
            self.raw = ("@" if self.attribute else "") + self.name


def parse_predicate(text: str) -> Predicate:
    """Parse one bracket-free predicate body into a typed object."""
    body = text.strip()
    if _PRED_POSITION_RE.match(body):
        return PositionPredicate(position=int(body), raw=body)
    match = _PRED_EQUALS_RE.match(body)
    if match:
        return ComparisonPredicate(
            name=match.group("name"), value=match.group("value"),
            attribute=bool(match.group("attr")), raw=body,
        )
    match = _PRED_EXISTS_RE.match(body)
    if match:
        return ExistencePredicate(
            name=match.group("name"), attribute=bool(match.group("attr")),
            raw=body,
        )
    raise XPathError(f"unsupported predicate [{body}]")


@dataclass
class Step:
    """One parsed location step."""

    axis: str
    name_test: str
    predicates: List[Predicate] = field(default_factory=list)

    @property
    def has_positional(self) -> bool:
        """Whether any predicate is positional (order-sensitive)."""
        return any(isinstance(p, PositionPredicate) for p in self.predicates)

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        if self.axis == "attribute":
            return f"@{self.name_test}{preds}"
        if self.axis == "child":
            return f"{self.name_test}{preds}"
        return f"{self.axis}::{self.name_test}{preds}"


@dataclass
class LocationPath:
    """One union-free location path: ``absolute?`` plus its steps."""

    absolute: bool
    steps: List[Step]
    text: str = ""

    def __str__(self) -> str:
        return self.text or ("/" if self.absolute else "") + "/".join(
            str(step) for step in self.steps
        )


def split_union(path: str) -> List[str]:
    """Split a path on top-level ``|`` (quote- and bracket-aware)."""
    pieces: List[str] = []
    depth = 0
    quote = None
    current: List[str] = []
    for char in path:
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "|" and depth == 0 and quote is None:
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    pieces.append("".join(current))
    return [piece.strip() for piece in pieces]


def parse_path(path: str) -> Tuple[bool, List[Step]]:
    """Parse a union-free location path into ``(absolute?, steps)``."""
    if not path or path.isspace():
        raise XPathError("empty XPath expression")
    text = path.strip()
    absolute = text.startswith("/")
    steps: List[Step] = []
    # Normalise '//' into an explicit descendant-or-self step marker.
    pieces: List[str] = []
    index = 0
    while index < len(text):
        if text.startswith("//", index):
            pieces.append("descendant-or-self::*")
            index += 2
        elif text[index] == "/":
            index += 1
        else:
            end = index
            depth = 0
            quote = None
            while end < len(text) and (text[end] != "/" or depth or quote):
                char = text[end]
                if quote:
                    if char == quote:
                        quote = None
                elif char in "'\"":
                    quote = char
                elif char == "[":
                    depth += 1
                elif char == "]":
                    depth -= 1
                end += 1
            pieces.append(text[index:end])
            index = end
    for piece in pieces:
        steps.append(_parse_step(piece))
    return absolute, _merge_descendant_steps(steps)


def parse_xpath(path: str) -> List[LocationPath]:
    """Parse a full expression (unions included) into location paths."""
    branches: List[LocationPath] = []
    for piece in split_union(path):
        absolute, steps = parse_path(piece)
        branches.append(LocationPath(absolute=absolute, steps=steps,
                                     text=piece))
    return branches


def _merge_descendant_steps(steps: List[Step]) -> List[Step]:
    """Fold ``//name`` into one ``descendant::name`` step.

    ``a//b`` abbreviates ``a/descendant-or-self::node()/child::b``, which
    is exactly ``a/descendant::b`` — and the single-step form also makes
    the absolute ``//b`` case (where the virtual document node is the
    context) easy to evaluate correctly.  The merge only applies when the
    following step uses the child axis; ``//ancestor::x`` style paths
    keep the explicit expansion.
    """
    merged: List[Step] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if (
            step.axis == "descendant-or-self"
            and step.name_test == "*"
            and not step.predicates
            and index + 1 < len(steps)
            and steps[index + 1].axis == "child"
        ):
            follower = steps[index + 1]
            merged.append(
                Step(
                    axis="descendant",
                    name_test=follower.name_test,
                    predicates=follower.predicates,
                )
            )
            index += 2
        else:
            merged.append(step)
            index += 1
    return merged


def _parse_step(piece: str) -> Step:
    match = _STEP_RE.match(piece)
    if match is None:
        raise XPathError(f"cannot parse location step {piece!r}")
    axis = match.group("axis")
    name = match.group("name")
    if name == ".":
        axis, name = "self", "*"
    elif name == "..":
        axis, name = "parent", "*"
    elif match.group("attr"):
        if axis:
            raise XPathError(f"@ abbreviation conflicts with axis in {piece!r}")
        axis = "attribute"
    elif axis is None:
        axis = "child"
    if axis not in AXES:
        raise XPathError(f"unsupported axis {axis!r}")
    rest = piece[match.end():]
    predicates: List[Predicate] = []
    while rest:
        if not rest.startswith("["):
            raise XPathError(f"unexpected trailing text in step {piece!r}")
        depth = 0
        quote = None
        end = -1
        for position, char in enumerate(rest):
            if quote:
                if char == quote:
                    quote = None
            elif char in "'\"":
                quote = char
            elif char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
                if depth == 0:
                    end = position
                    break
        if end < 0:
            raise XPathError(f"unterminated predicate in step {piece!r}")
        predicates.append(parse_predicate(rest[1:end]))
        rest = rest[end + 1:]
    return Step(axis=axis, name_test=name, predicates=predicates)


# ----------------------------------------------------------------------
# Shared node tests — used by the label-driven evaluator and by the
# tree-pointer target resolver in repro.ulang.compiler.
# ----------------------------------------------------------------------


def apply_node_tests(step: Step, nodes: list) -> list:
    """Name test + predicates of one step over candidate nodes.

    ``nodes`` must arrive in the axis's natural order; reverse axes are
    flipped here so positional predicates count in proximity order.
    """
    if step.name_test != "*":
        if step.axis == "attribute":
            nodes = [node for node in nodes if node.name == step.name_test]
        else:
            # The name compare comes first: it rejects almost every
            # candidate of a '//name' window before the property call.
            nodes = [
                node for node in nodes
                if node.name == step.name_test and node.is_element
            ]
    elif step.axis != "attribute":
        # '*' on a non-attribute axis selects elements, per XPath.
        nodes = [node for node in nodes if node.is_element]
    if step.predicates and step.axis in REVERSE_AXES:
        # Reverse axes number in proximity order: position 1 is the
        # node nearest the context.  The final merge re-sorts the
        # survivors into document order.
        nodes = nodes[::-1]
    for predicate in step.predicates:
        nodes = apply_predicate(predicate, nodes)
    return nodes


def leading_attribute(step: Step):
    """``(name, value)`` of the step's first predicate if that is an
    attribute-equality test ``[@name='value']``, else ``None``.

    Evaluated before any other predicate, it is a filter on the axis
    itself, so the evaluator hands it to the index with the axis.
    """
    if step.predicates:
        first = step.predicates[0]
        if isinstance(first, ComparisonPredicate) and first.attribute:
            return first.name, first.value
    return None


def with_attribute(nodes: list, name: str, value: str) -> list:
    """The elements of ``nodes`` that carry attribute ``name`` valued
    ``value``; each reads only its attributes, which come first."""
    kept = []
    for node in nodes:
        for child in node.children:
            if child.kind is not _ATTRIBUTE:
                break
            if child.name == name and child.value == value:
                kept.append(node)
                break
    return kept


def apply_predicate(predicate: Predicate, nodes: list) -> list:
    """Filter candidate nodes by one typed predicate."""
    if isinstance(predicate, PositionPredicate):
        position = predicate.position
        return [nodes[position - 1]] if 1 <= position <= len(nodes) else []
    if isinstance(predicate, ComparisonPredicate):
        name, value = predicate.name, predicate.value
        if predicate.attribute:
            return with_attribute(nodes, name, value)
        return [
            node for node in nodes
            if node.is_element
            and any(
                child.name == name and child.text_value().strip() == value
                for child in node.element_children()
            )
        ]
    if isinstance(predicate, ExistencePredicate):
        name = predicate.name
        if predicate.attribute:
            return [
                node for node in nodes
                if node.is_element and node.attribute(name) is not None
            ]
        return [
            node for node in nodes
            if node.is_element
            and any(child.name == name for child in node.element_children())
        ]
    raise XPathError(f"unsupported predicate [{predicate}]")
