"""A hand-written XML parser producing :class:`~repro.xmlmodel.tree.Document`.

The paper's schemes are defined over the tree representation, not the
textual document (section 2.1), so the package needs exactly one bridge
from text to trees.  This is a small, strict, dependency-free parser
covering the XML subset the experiments use: elements, attributes,
character data with entity references, CDATA sections, comments and
processing instructions.  It is not a validating parser and does not
process DTDs.

By default whitespace-only text nodes between elements are dropped, which
matches how the paper's Figure 1 sample file is modelled in Figure 1(b)
(ten labelled nodes, no whitespace nodes).  Pass ``keep_whitespace=True``
to preserve them.

The parser reads the root element in one loop over an explicit stack of
open elements, so nesting depth is bounded by memory, not by Python's
recursion limit.  ``str.find`` locates the next markup and the end of
each comment, CDATA section and processing instruction; one compiled
pattern matches a whole start tag.  A construct the pattern does not
match (unusual spacing, or anything malformed) is read by the
:class:`_Scanner` productions from that position, which either parse it
or raise the :class:`~repro.errors.XMLSyntaxError` naming its line and
column.  Nodes are created in document order and attached directly: a
fresh node appended in order needs none of
:meth:`~repro.xmlmodel.tree.XMLNode.insert_child`'s checks, and each
element's ``elements`` count is added into its parent when it closes.

A name character is ``str.isalnum()`` or one of ``_:-.``, whitespace is
``str.isspace()``; the tests hold both classes to those predicates on
every code point.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import XMLSyntaxError
from repro.xmlmodel.tree import Document, NodeKind, XMLNode

_NAME_START_EXTRA = set("_:")

#: A run of name characters: ``\w`` is ``str.isalnum()`` or ``_``.
_NAME = r"[\w:.-]+"
#: One whitespace character: ``\s`` is ``str.isspace()``.
_SPACE = r"\s"
_NAME_CHARS = re.compile(_NAME)
_WHITESPACE = re.compile(_SPACE + "*")
#: A whole start tag: name, attribute list, then ``/>`` or ``>``.
_START_TAG = re.compile(
    rf"""<({_NAME})((?:{_SPACE}+{_NAME}{_SPACE}*={_SPACE}*"""
    rf"""(?:"[^"<]*"|'[^'<]*'))+)?{_SPACE}*(/?)>"""
)
#: One attribute of a matched start tag: name, then a "double" or
#: 'single' quoted value.
_ATTRIBUTE = re.compile(
    rf"""{_SPACE}+({_NAME}){_SPACE}*={_SPACE}*(?:"([^"<]*)"|'([^'<]*)')"""
)

_ELEMENT = NodeKind.ELEMENT
_ATTRIBUTE_KIND = NodeKind.ATTRIBUTE
_TEXT = NodeKind.TEXT
_COMMENT = NodeKind.COMMENT
_PROCESSING_INSTRUCTION = NodeKind.PROCESSING_INSTRUCTION

_BUILTIN_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "apos": "'",
    "quot": '"',
}


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


class _Scanner:
    """Cursor over the input with line/column tracking for error messages."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def advance(self, count: int = 1) -> str:
        chunk = self.text[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def starts_with(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        self.pos = _WHITESPACE.match(self.text, self.pos).end()

    def read_until(self, token: str, description: str) -> str:
        end = self.text.find(token, self.pos)
        if end == -1:
            raise self.error(f"unterminated {description}")
        chunk = self.text[self.pos : end]
        self.pos = end + len(token)
        return chunk

    def location(self) -> tuple:
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> XMLSyntaxError:
        line, column = self.location()
        return XMLSyntaxError(message, line, column)

    def error_at(self, pos: int, message: str) -> XMLSyntaxError:
        self.pos = pos
        return self.error(message)


class XMLParser:
    """One-pass parser from XML text to a :class:`Document`."""

    def __init__(self, keep_whitespace: bool = False):
        self.keep_whitespace = keep_whitespace

    def parse(self, text: str) -> Document:
        """Parse ``text`` and return the resulting document.

        Raises :class:`~repro.errors.XMLSyntaxError` on malformed input.
        """
        scanner = _Scanner(text)
        document = Document()
        self._skip_prolog(scanner)
        scanner.skip_whitespace()
        if not scanner.starts_with("<"):
            raise scanner.error("document must start with a root element")
        root = self._parse_root(scanner, document)
        document.set_root(root)
        self._skip_misc(scanner)
        if not scanner.at_end:
            raise scanner.error("content after the root element")
        return document

    # ------------------------------------------------------------------
    # The root element, in one loop
    # ------------------------------------------------------------------

    def _parse_root(self, scanner: _Scanner, document: Document) -> XMLNode:
        """Parse the element at the scanner and everything inside it.

        The outer loop reads one start tag per turn, the inner loop the
        character data, comments, processing instructions and end tags
        that follow it, up to the next start tag.  ``open_elements`` is
        the path from the root to ``parent``, the element whose content
        is being read; the loop returns the root when its end tag
        closes it.
        """
        text = scanner.text
        find = text.find
        startswith = text.startswith
        match_start_tag = _START_TAG.match
        # Ids are handed out in creation order, as ``Document.new_node``
        # would, so a tree's ids do not depend on which path read it.
        next_id = document._next_id.__next__
        keep_whitespace = self.keep_whitespace
        open_elements: List[XMLNode] = []
        parent: Optional[XMLNode] = None
        children: List[XMLNode] = []  # parent's children
        lt = scanner.pos
        while True:
            # A start tag at ``lt``, or markup no branch below reads, which
            # _parse_start_tag then refuses.
            match = match_start_tag(text, lt)
            attributes = None
            if match is not None and _is_name_start(text[lt + 1]):
                name, listing, empty = match.groups()
                attributes = (self._attribute_list(scanner, listing)
                              if listing else ())
            if attributes is not None:
                element = XMLNode(document, next_id(), _ELEMENT, name)
                for attribute_name, value in attributes:
                    node = XMLNode(document, next_id(), _ATTRIBUTE_KIND,
                                   attribute_name, value)
                    node.parent = element
                    element.children.append(node)
                pos = match.end()
            else:
                scanner.pos = lt
                element, empty = self._parse_start_tag(scanner, document)
                pos = scanner.pos
            if parent is not None:
                element.parent = parent
                children.append(element)
                if empty:
                    parent.elements += 1
            if not empty:
                open_elements.append(element)
                parent = element
                children = element.children
            elif parent is None:
                scanner.pos = pos
                return element
            # Content up to the next start tag.
            while True:
                lt = find("<", pos)
                if lt == -1:
                    raise scanner.error_at(
                        len(text), f"unterminated element <{parent.name}>")
                mark = text[lt + 1 : lt + 2]
                if mark == "!" and startswith("<![CDATA[", lt):
                    value, lt = self._character_data(scanner, pos, parent)
                    mark = text[lt + 1 : lt + 2]
                elif lt > pos:
                    value = text[pos:lt]
                    if "&" in value:
                        scanner.pos = lt
                        value = self._decode_entities(value, scanner)
                else:
                    value = None
                if value is not None and (keep_whitespace or value.strip()):
                    node = XMLNode(document, next_id(), _TEXT, None, value)
                    node.parent = parent
                    children.append(node)
                if mark == "/":
                    name = parent.name
                    pos = lt + 2 + len(name)
                    if startswith(name, lt + 2) and startswith(">", pos):
                        pos += 1
                    else:
                        scanner.pos = lt + 2
                        self._parse_end_tag(scanner, name)
                        pos = scanner.pos
                    closed = open_elements.pop()
                    if not open_elements:
                        scanner.pos = pos
                        return closed
                    parent = open_elements[-1]
                    parent.elements += closed.elements
                    children = parent.children
                elif mark == "!" and startswith("<!--", lt):
                    end = find("-->", lt + 4)
                    if end == -1:
                        raise scanner.error_at(lt + 4, "unterminated comment")
                    node = XMLNode(document, next_id(), _COMMENT, None,
                                   text[lt + 4 : end])
                    node.parent = parent
                    children.append(node)
                    pos = end + 3
                elif mark == "?":
                    end = find("?>", lt + 2)
                    if end == -1:
                        raise scanner.error_at(
                            lt + 2, "unterminated processing instruction")
                    target, _, data = text[lt + 2 : end].partition(" ")
                    node = XMLNode(document, next_id(),
                                   _PROCESSING_INSTRUCTION, target,
                                   data.strip())
                    node.parent = parent
                    children.append(node)
                    pos = end + 2
                else:
                    break

    def _attribute_list(self, scanner: _Scanner,
                        listing: str) -> Optional[List[Tuple[str, str]]]:
        """The (name, value) pairs of a matched start tag's attributes.

        ``None`` when a name does not start like a name, a name repeats
        or a value holds a bad entity reference: the start tag is then
        read again by :meth:`_parse_start_tag`, which raises the error
        at its position.
        """
        pairs = []
        for name, double, single in _ATTRIBUTE.findall(listing):
            value = double or single
            if not _is_name_start(name[0]):
                return None
            if "&" in value:
                try:
                    value = self._decode_entities(value, scanner)
                except XMLSyntaxError:
                    return None
            pairs.append((name, value))
        if len(pairs) > 1 and len({name for name, _ in pairs}) < len(pairs):
            return None
        return pairs

    def _character_data(self, scanner: _Scanner, pos: int,
                        parent: XMLNode) -> Tuple[str, int]:
        """Character data and CDATA sections from ``pos`` on.

        Returns the decoded value and the position of the markup that
        ends it.  Entities are decoded there, at that markup, so an
        entity error reports that position.  Two character-data runs are
        never adjacent (only a CDATA section separates runs), so each
        run is decoded whole.
        """
        text = scanner.text
        pieces = []  # (chunk, is_raw); CDATA chunks skip decoding
        while True:
            lt = text.find("<", pos)
            if lt == -1:
                raise scanner.error_at(
                    len(text), f"unterminated element <{parent.name}>")
            if lt > pos:
                pieces.append((text[pos:lt], False))
            if not text.startswith("<![CDATA[", lt):
                break
            end = text.find("]]>", lt + 9)
            if end == -1:
                raise scanner.error_at(lt + 9, "unterminated CDATA section")
            pieces.append((text[lt + 9 : end], True))
            pos = end + 3
        scanner.pos = lt
        return "".join([
            chunk if raw else self._decode_entities(chunk, scanner)
            for chunk, raw in pieces
        ]), lt

    # ------------------------------------------------------------------
    # Grammar productions
    # ------------------------------------------------------------------

    def _skip_prolog(self, scanner: _Scanner) -> None:
        scanner.skip_whitespace()
        if scanner.starts_with("<?xml"):
            scanner.read_until("?>", "XML declaration")
        self._skip_misc(scanner)

    def _skip_misc(self, scanner: _Scanner) -> None:
        """Skip whitespace, comments and PIs outside the root element."""
        while True:
            scanner.skip_whitespace()
            if scanner.starts_with("<!--"):
                scanner.advance(4)
                scanner.read_until("-->", "comment")
            elif scanner.starts_with("<!DOCTYPE"):
                scanner.read_until(">", "DOCTYPE declaration")
            elif scanner.starts_with("<?"):
                scanner.advance(2)
                scanner.read_until("?>", "processing instruction")
            else:
                return

    def _parse_start_tag(self, scanner: _Scanner,
                         document: Document) -> Tuple[XMLNode, bool]:
        """``<name attributes>`` or ``<name attributes/>``.

        Returns the element with its attributes attached, and whether
        the tag was empty.
        """
        scanner.expect("<")
        element = document.new_element(self._parse_name(scanner))
        self._parse_attributes(scanner, document, element)
        if scanner.starts_with("/>"):
            scanner.advance(2)
            return element, True
        scanner.expect(">")
        return element, False

    def _parse_end_tag(self, scanner: _Scanner, name: str) -> None:
        """The rest of an end tag after its ``</``; it must close ``name``."""
        closing = self._parse_name(scanner)
        if closing != name:
            raise scanner.error(
                f"mismatched end tag: expected </{name}>, found </{closing}>"
            )
        scanner.skip_whitespace()
        scanner.expect(">")

    def _parse_attributes(
        self, scanner: _Scanner, document: Document, element: XMLNode
    ) -> None:
        seen = set()
        while True:
            scanner.skip_whitespace()
            if scanner.at_end or scanner.text.startswith((">", "/"), scanner.pos):
                return
            name = self._parse_name(scanner)
            if name in seen:
                raise scanner.error(f"duplicate attribute {name!r}")
            seen.add(name)
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            attribute = document.new_attribute(
                name, self._parse_attribute_value(scanner))
            attribute.parent = element
            element.children.append(attribute)

    def _parse_attribute_value(self, scanner: _Scanner) -> str:
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        raw = scanner.read_until(quote, "attribute value")
        if "<" in raw:
            raise scanner.error("'<' is not allowed in attribute values")
        return self._decode_entities(raw, scanner)

    def _parse_name(self, scanner: _Scanner) -> str:
        match = _NAME_CHARS.match(scanner.text, scanner.pos)
        if match is None or not _is_name_start(scanner.text[scanner.pos]):
            raise scanner.error("expected a name")
        scanner.pos = match.end()
        return match.group()

    def _decode_entities(self, text: str, scanner: _Scanner) -> str:
        if "&" not in text:
            return text
        pieces = []
        index = 0
        while True:
            start = text.find("&", index)
            if start == -1:
                pieces.append(text[index:])
                return "".join(pieces)
            end = text.find(";", start + 1)
            if end == -1:
                raise scanner.error("unterminated entity reference")
            pieces.append(text[index:start])
            pieces.append(self._decode_entity(text[start + 1 : end], scanner))
            index = end + 1

    def _decode_entity(self, entity: str, scanner: _Scanner) -> str:
        if entity in _BUILTIN_ENTITIES:
            return _BUILTIN_ENTITIES[entity]
        if entity.startswith("#x") or entity.startswith("#X"):
            try:
                return chr(int(entity[2:], 16))
            except ValueError:
                raise scanner.error(f"bad character reference &{entity};") from None
        if entity.startswith("#"):
            try:
                return chr(int(entity[1:]))
            except ValueError:
                raise scanner.error(f"bad character reference &{entity};") from None
        raise scanner.error(f"unknown entity &{entity};")


def parse(text: str, keep_whitespace: bool = False) -> Document:
    """Parse XML ``text`` into a :class:`Document` (module-level shortcut)."""
    return XMLParser(keep_whitespace=keep_whitespace).parse(text)


def parse_fragment(text: str, keep_whitespace: bool = False) -> XMLNode:
    """Parse a single-element fragment and return its root node.

    Useful for constructing subtrees to insert — the paper's subtree update
    operations serialise a fragment as a node sequence (section 3.1.2).
    The returned node belongs to its own private document; move it with
    :func:`repro.updates.operations.adopt_subtree`.
    """
    return parse(text, keep_whitespace=keep_whitespace).root
