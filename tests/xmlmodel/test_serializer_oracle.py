"""The one-loop serializer against the recursive oracle.

``tests/reference_serializer.py`` is the original serializer.  On random
trees that hold comments, processing instructions, empty elements, mixed
content and every character either escape rewrites, both must write the
same text, compact and indented.  A chain far deeper than the recursion
limit is written and read back.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st
from reference_serializer import serialize as reference_serialize
from reference_serializer import serialize_node as reference_serialize_node

from repro.errors import TreeStructureError
from repro.xmlmodel.builder import (
    attribute,
    build_document,
    comment,
    element,
    processing_instruction,
    text,
)
from repro.xmlmodel.generator import random_document
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize, serialize_node
from repro.xmlmodel.xmark import xmark_document

NAMES = st.sampled_from(["a", "b", "item", "ns:t", "_p", "x-1", "é"])
#: Every character an escape rewrites, with plain text and whitespace.
VALUES = st.lists(st.sampled_from([
    "v", "two words", "&", "<", ">", '"', "'", "&amp;", " ", "\n", "\t", "é",
]), max_size=4).map("".join)
INDENTS = st.sampled_from([None, 0, 1, 2, 4])


@st.composite
def specs(draw, depth=0):
    children = []
    for position in range(draw(st.integers(min_value=0, max_value=2))):
        children.append(attribute(f"{draw(NAMES)}{position}", draw(VALUES)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(
            ["element", "element", "text", "comment", "pi"]))
        if kind == "text":
            children.append(text(draw(VALUES)))
        elif kind == "comment":
            children.append(comment(draw(VALUES).replace("-", "")))
        elif kind == "pi":
            children.append(processing_instruction(
                draw(NAMES), draw(VALUES).replace("?>", "")))
        elif depth < 4:
            children.append(draw(specs(depth + 1)))
    return element(draw(NAMES), *children)


@settings(max_examples=400, deadline=None)
@given(spec=specs(), indent=INDENTS)
def test_random_trees_serialize_identically(spec, indent):
    document = build_document(spec)
    assert serialize(document, indent=indent) == reference_serialize(
        document, indent=indent)
    inner = document.root.children[-1] if document.root.children else None
    if inner is not None and not inner.is_attribute:
        assert serialize_node(inner, indent=indent) == (
            reference_serialize_node(inner, indent=indent))


@pytest.mark.parametrize("seed,size", [(0, 40), (3, 400), (11, 2000)])
@pytest.mark.parametrize("indent", [None, 2])
def test_random_documents_serialize_identically(seed, size, indent):
    document = random_document(size, seed=seed)
    assert serialize(document, indent=indent) == reference_serialize(
        document, indent=indent)


@pytest.mark.parametrize("indent", [None, 1])
def test_xmark_serializes_identically(indent):
    document = xmark_document(scale=2, seed=5)
    assert serialize(document, indent=indent) == reference_serialize(
        document, indent=indent)


def test_an_attribute_alone_is_refused():
    document = build_document(element("a", attribute("b", "1")))
    with pytest.raises(TreeStructureError):
        serialize_node(document.root.children[0])


@pytest.mark.parametrize("indent", [None, 1])
def test_nesting_deeper_than_the_recursion_limit(indent):
    depth = sys.getrecursionlimit() + 500
    xml = "<a>" * depth + "x" + "</a>" * depth
    document = parse(xml)
    written = serialize(document, indent=indent)
    if indent is None:
        assert written == xml
    assert serialize(parse(written)) == xml
