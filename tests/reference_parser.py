"""The character-at-a-time XML parser: the parser test oracle.

This is the original :mod:`repro.xmlmodel.parser`, kept whole as the
reference the one-pass parser is compared against: recursive descent,
one call per element, character data appended one character per loop
turn, names and whitespace consumed one predicate call per character,
entity references decoded one character at a time, every node attached
through ``XMLNode.append_child``.  The one-pass parser must build the
same tree and raise the same ``XMLSyntaxError`` (message, line and
column) on every input.
"""

from __future__ import annotations

from repro.errors import XMLSyntaxError
from repro.xmlmodel.tree import Document, XMLNode
_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:-.")

_BUILTIN_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "apos": "'",
    "quot": '"',
}


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


class _ReferenceScanner:
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
        if not self.starts_with(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while not self.at_end and self.peek().isspace():
            self.pos += 1

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


class ReferenceXMLParser:
    """Recursive-descent parser from XML text to a :class:`Document`."""

    def __init__(self, keep_whitespace: bool = False):
        self.keep_whitespace = keep_whitespace

    def parse(self, text: str) -> Document:
        """Parse ``text`` and return the resulting document.

        Raises :class:`~repro.errors.XMLSyntaxError` on malformed input.
        """
        scanner = _ReferenceScanner(text)
        document = Document()
        self._skip_prolog(scanner)
        scanner.skip_whitespace()
        if not scanner.starts_with("<"):
            raise scanner.error("document must start with a root element")
        root = self._parse_element(scanner, document)
        document.set_root(root)
        self._skip_misc(scanner)
        if not scanner.at_end:
            raise scanner.error("content after the root element")
        return document

    # ------------------------------------------------------------------
    # Grammar productions
    # ------------------------------------------------------------------

    def _skip_prolog(self, scanner: _ReferenceScanner) -> None:
        scanner.skip_whitespace()
        if scanner.starts_with("<?xml"):
            scanner.read_until("?>", "XML declaration")
        self._skip_misc(scanner)

    def _skip_misc(self, scanner: _ReferenceScanner) -> None:
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

    def _parse_element(self, scanner: _ReferenceScanner, document: Document) -> XMLNode:
        scanner.expect("<")
        name = self._parse_name(scanner)
        element = document.new_element(name)
        self._parse_attributes(scanner, document, element)
        scanner.skip_whitespace()
        if scanner.starts_with("/>"):
            scanner.advance(2)
            return element
        scanner.expect(">")
        self._parse_content(scanner, document, element)
        scanner.expect("</")
        closing = self._parse_name(scanner)
        if closing != name:
            raise scanner.error(
                f"mismatched end tag: expected </{name}>, found </{closing}>"
            )
        scanner.skip_whitespace()
        scanner.expect(">")
        return element

    def _parse_attributes(
        self, scanner: _ReferenceScanner, document: Document, element: XMLNode
    ) -> None:
        seen = set()
        while True:
            scanner.skip_whitespace()
            if scanner.at_end or scanner.peek() in (">", "/"):
                return
            name = self._parse_name(scanner)
            if name in seen:
                raise scanner.error(f"duplicate attribute {name!r}")
            seen.add(name)
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            value = self._parse_attribute_value(scanner)
            element.append_child(document.new_attribute(name, value))

    def _parse_attribute_value(self, scanner: _ReferenceScanner) -> str:
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        raw = scanner.read_until(quote, "attribute value")
        if "<" in raw:
            raise scanner.error("'<' is not allowed in attribute values")
        return self._decode_entities(raw, scanner)

    def _parse_content(
        self, scanner: _ReferenceScanner, document: Document, element: XMLNode
    ) -> None:
        buffer = []  # (chunk, is_raw) pieces; CDATA chunks skip decoding

        def flush_text() -> None:
            if not buffer:
                return
            pieces = []
            pending = []
            for chunk, raw in buffer:
                if raw:
                    if pending:
                        pieces.append(
                            self._decode_entities("".join(pending), scanner)
                        )
                        pending = []
                    pieces.append(chunk)
                else:
                    pending.append(chunk)
            if pending:
                pieces.append(self._decode_entities("".join(pending), scanner))
            buffer.clear()
            text = "".join(pieces)
            if text.strip() or self.keep_whitespace:
                element.append_child(document.new_text(text))

        while True:
            if scanner.at_end:
                raise scanner.error(f"unterminated element <{element.name}>")
            if scanner.starts_with("</"):
                flush_text()
                return
            if scanner.starts_with("<!--"):
                flush_text()
                scanner.advance(4)
                comment = scanner.read_until("-->", "comment")
                element.append_child(document.new_comment(comment))
            elif scanner.starts_with("<![CDATA["):
                scanner.advance(9)
                buffer.append((scanner.read_until("]]>", "CDATA section"), True))
            elif scanner.starts_with("<?"):
                flush_text()
                scanner.advance(2)
                body = scanner.read_until("?>", "processing instruction")
                target, _, data = body.partition(" ")
                element.append_child(
                    document.new_processing_instruction(target, data.strip())
                )
            elif scanner.starts_with("<"):
                flush_text()
                element.append_child(self._parse_element(scanner, document))
            else:
                buffer.append((scanner.advance(), False))

    def _parse_name(self, scanner: _ReferenceScanner) -> str:
        if scanner.at_end or not _is_name_start(scanner.peek()):
            raise scanner.error("expected a name")
        start = scanner.pos
        scanner.advance()
        while not scanner.at_end and _is_name_char(scanner.peek()):
            scanner.advance()
        return scanner.text[start : scanner.pos]

    def _decode_entities(self, text: str, scanner: _ReferenceScanner) -> str:
        if "&" not in text:
            return text
        pieces = []
        index = 0
        while index < len(text):
            char = text[index]
            if char != "&":
                pieces.append(char)
                index += 1
                continue
            end = text.find(";", index + 1)
            if end == -1:
                raise scanner.error("unterminated entity reference")
            entity = text[index + 1 : end]
            pieces.append(self._decode_entity(entity, scanner))
            index = end + 1
        return "".join(pieces)

    def _decode_entity(self, entity: str, scanner: _ReferenceScanner) -> str:
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


def reference_parse(text: str, keep_whitespace: bool = False) -> Document:
    """Parse ``text`` with the character-at-a-time reference parser."""
    return ReferenceXMLParser(keep_whitespace=keep_whitespace).parse(text)
