"""Parse and serialize against the standard library's ElementTree.

``xml.etree.ElementTree.fromstring(serialize(doc))`` and
``parse(serialize(doc))`` must agree on element names, attribute maps
and character data, in document order.  Only what both models hold is
compared: the generated documents carry no comments or processing
instructions, adjacent character data is merged (ElementTree's
``text``/``tail``), and whitespace-only character data is dropped.
"""

import xml.etree.ElementTree as ElementTree

import pytest

from repro.xmlmodel.generator import random_document
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.xmark import xmark_document


def _text_event(pieces, events):
    text = "".join(pieces)
    if text.strip():
        events.append(("text", text))
    pieces.clear()


def ours(element, events):
    events.append(("start", element.name, {
        attribute.name: attribute.value for attribute in element.attributes()
    }))
    pieces = []
    for child in element.children:
        if child.is_text:
            pieces.append(child.value)
        elif child.is_element:
            _text_event(pieces, events)
            ours(child, events)
    _text_event(pieces, events)
    events.append(("end", element.name))
    return events


def stdlib(element, events):
    events.append(("start", element.tag, dict(element.attrib)))
    _text_event([element.text or ""], events)
    for child in element:
        stdlib(child, events)
        _text_event([child.tail or ""], events)
    events.append(("end", element.tag))
    return events


def assert_agrees_with_elementtree(document):
    for indent in (None, 2):
        text = serialize(document, indent=indent)
        expected = stdlib(ElementTree.fromstring(text), [])
        assert ours(parse(text).root, []) == expected
        assert ours(parse(text, keep_whitespace=True).root, []) == expected
        assert ours(document.root, []) == expected


@pytest.mark.parametrize("seed,size", [
    (0, 10), (1, 60), (2, 250), (7, 1000), (19, 3000),
])
def test_random_documents_agree(seed, size):
    assert_agrees_with_elementtree(random_document(size, seed=seed))


@pytest.mark.parametrize("scale", [1, 2, 3, 4, 5])
def test_xmark_documents_agree(scale):
    assert_agrees_with_elementtree(xmark_document(scale=scale, seed=scale))
