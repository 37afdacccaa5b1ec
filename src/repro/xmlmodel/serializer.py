"""Serialize :class:`~repro.xmlmodel.tree.Document` trees back to XML text.

Definition 2 of the paper requires that an encoding scheme "permit the full
reconstruction of the textual XML document"; the serializer is the final
step of that reconstruction pipeline (encoding table -> tree -> text) and
the inverse of :mod:`repro.xmlmodel.parser` for the supported XML subset.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.errors import TreeStructureError
from repro.xmlmodel.tree import Document, NodeKind, XMLNode

_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]
#: A character either escape rewrites; a value without one is written
#: as it is.
_ESCAPED = re.compile('[&<>"]')

_ELEMENT = NodeKind.ELEMENT
_ATTRIBUTE = NodeKind.ATTRIBUTE
_TEXT = NodeKind.TEXT
_COMMENT = NodeKind.COMMENT
_PROCESSING_INSTRUCTION = NodeKind.PROCESSING_INSTRUCTION


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    for raw, escaped in _TEXT_ESCAPES:
        value = value.replace(raw, escaped)
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    for raw, escaped in _ATTR_ESCAPES:
        value = value.replace(raw, escaped)
    return value


class XMLSerializer:
    """Writer from trees to text.

    ``indent=None`` (default) produces the compact canonical form the
    parser round-trips exactly; an integer indent produces a pretty-printed
    rendering for human inspection (used by the examples).  An element
    whose content holds no text node puts each child on its own line,
    indented by its depth; mixed content is written as it stands.

    The tree is written in one loop over an explicit stack, so nesting
    depth is bounded by memory, not by Python's recursion limit.
    """

    def __init__(self, indent: Optional[int] = None):
        self.indent = indent

    def serialize(self, document: Document) -> str:
        """Render a whole document (root element required)."""
        if document.root is None:
            raise TreeStructureError("cannot serialize a document with no root")
        return self.serialize_node(document.root)

    def serialize_node(self, node: XMLNode) -> str:
        """Render the subtree under ``node``."""
        pieces: List[str] = []
        self._write(node, pieces)
        text = "".join(pieces)
        return text + "\n" if self.indent is not None else text

    # ------------------------------------------------------------------

    def _write(self, top: XMLNode, out: List[str]) -> None:
        """Append the text of the subtree under ``top`` to ``out``.

        The stack holds ``(item, depth)`` pairs, where an item is a node
        still to write or a string (an end tag, or a line break and
        indent) to append as it is.  An element's attributes are its
        leading children.
        """
        indent = self.indent
        append = out.append
        stack: list = [(top, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            node, depth = pop()
            if node.__class__ is str:
                append(node)
                continue
            kind = node.kind
            if kind is _ELEMENT:
                name = node.name
                children = node.children
                append("<" + name)
                first = 0
                for child in children:
                    if child.kind is not _ATTRIBUTE:
                        break
                    value = child.value or ""
                    if _ESCAPED.search(value) is not None:
                        value = escape_attribute(value)
                    append(f' {child.name}="{value}"')
                    first += 1
                if first == len(children):
                    append("/>")
                    continue
                append(">")
                depth += 1
                if indent is None or any(
                    child.kind is _TEXT for child in children
                ):
                    push(("</" + name + ">", None))
                    line = None
                else:
                    push((f"\n{' ' * (indent * (depth - 1))}</{name}>", None))
                    line = "\n" + " " * (indent * depth)
                for child in reversed(children):
                    if child.kind is _ATTRIBUTE:
                        break
                    push((child, depth))
                    if line is not None:
                        push((line, None))
            elif kind is _TEXT:
                value = node.value or ""
                append(escape_text(value)
                       if _ESCAPED.search(value) is not None else value)
            elif kind is _COMMENT:
                append(f"<!--{node.value or ''}-->")
            elif kind is _PROCESSING_INSTRUCTION:
                data = f" {node.value}" if node.value else ""
                append(f"<?{node.name}{data}?>")
            else:
                raise TreeStructureError(
                    "attribute nodes are serialized inside their owner element"
                )


def serialize(document: Document, indent: Optional[int] = None) -> str:
    """Serialize a document (module-level shortcut)."""
    return XMLSerializer(indent=indent).serialize(document)


def serialize_node(node: XMLNode, indent: Optional[int] = None) -> str:
    """Serialize a subtree (module-level shortcut)."""
    return XMLSerializer(indent=indent).serialize_node(node)
