"""The recursive serializer: the serializer test oracle.

This is the original :mod:`repro.xmlmodel.serializer`, kept whole as the
reference the one-loop serializer is compared against: one recursive
call per node, attributes gathered with ``XMLNode.attributes()`` and a
content list built per element, every value escaped with ``replace``.
Both must write the same text, compact and indented, on every tree.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TreeStructureError
from repro.xmlmodel.tree import Document, NodeKind, XMLNode

_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]


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
    rendering for human inspection (used by the examples).
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
        self._write(node, pieces, depth=0)
        text = "".join(pieces)
        return text + "\n" if self.indent is not None else text

    # ------------------------------------------------------------------

    def _write(self, node: XMLNode, out: List[str], depth: int) -> None:
        if node.kind is NodeKind.TEXT:
            out.append(escape_text(node.value or ""))
        elif node.kind is NodeKind.COMMENT:
            out.append(f"<!--{node.value or ''}-->")
        elif node.kind is NodeKind.PROCESSING_INSTRUCTION:
            data = f" {node.value}" if node.value else ""
            out.append(f"<?{node.name}{data}?>")
        elif node.kind is NodeKind.ATTRIBUTE:
            raise TreeStructureError(
                "attribute nodes are serialized inside their owner element"
            )
        else:
            self._write_element(node, out, depth)

    def _write_element(self, node: XMLNode, out: List[str], depth: int) -> None:
        attributes = "".join(
            f' {attr.name}="{escape_attribute(attr.value or "")}"'
            for attr in node.attributes()
        )
        content = [child for child in node.children if not child.is_attribute]
        if not content:
            out.append(f"<{node.name}{attributes}/>")
            return
        out.append(f"<{node.name}{attributes}>")
        pretty = self.indent is not None and all(
            not child.is_text for child in content
        )
        for child in content:
            if pretty:
                out.append("\n" + " " * self.indent * (depth + 1))
            self._write(child, out, depth + 1)
        if pretty:
            out.append("\n" + " " * self.indent * depth)
        out.append(f"</{node.name}>")


def serialize(document: Document, indent: Optional[int] = None) -> str:
    """Serialize a document (module-level shortcut)."""
    return XMLSerializer(indent=indent).serialize(document)


def serialize_node(node: XMLNode, indent: Optional[int] = None) -> str:
    """Serialize a subtree (module-level shortcut)."""
    return XMLSerializer(indent=indent).serialize_node(node)
