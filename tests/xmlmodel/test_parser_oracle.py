"""The one-pass parser against the character-at-a-time oracle.

``tests/reference_parser.py`` is the original parser.  On generated
documents and on mutations of them (entities good and bad, CDATA next
to text, comments, processing instructions, spacing inside tags,
unterminated constructs) both must build the same tree — node ids,
kinds, names, values, parents, child order and element counts — or
raise the same ``XMLSyntaxError`` at the same line and column, with
whitespace kept and dropped.  Every tree the parser returns must pass
``Document.validate()``, since it attaches nodes without
``XMLNode.insert_child``'s checks.  The compiled name and whitespace
classes the patterns are built from are checked against the character
predicates they replaced on every code point.
"""

import sys

import pytest
from conftest import all_scheme_names, labeled
from hypothesis import given, settings, strategies as st
from reference_parser import _is_name_char, reference_parse
from update_programs import DOCUMENT_XML, programs, run_program

from repro.errors import ReproError, XMLSyntaxError
from repro.xmlmodel import parser as parser_module
from repro.xmlmodel.generator import random_document
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tree import XMLNode
from repro.xmlmodel.xmark import xmark_document

NAMES = st.sampled_from(
    ["a", "b", "x1", "ns:t", "_p", "long-name", "a.b", "é", "Ж2", "日本"]
)
TEXT = st.lists(st.sampled_from([
    "hello", "two words", " ", "  \n\t", "\n", " ", " ", "é",
    "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;",
    "&#X43;", "&bogus;", "&#xZZ;", "&#;", "&", "a&b", ";", "]]>", ">",
]), max_size=5).map("".join)
ATTRIBUTE_VALUE = st.lists(st.sampled_from([
    "v", "x y", "&amp;", "&#39;", "&nope;", "&", "'", '"', " ", "\t",
    ">", "\n", "a>b", "/>",
]), max_size=3).map("".join)
SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", "　", "\n ", " \t\n"])


@st.composite
def attributes(draw):
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        quote = draw(st.sampled_from(['"', "'"]))
        pieces.append(f"{draw(SPACE) or ' '}{draw(NAMES)}{draw(SPACE)}="
                      f"{draw(SPACE)}{quote}{draw(ATTRIBUTE_VALUE)}{quote}")
    return "".join(pieces)


@st.composite
def elements(draw, depth=0):
    name = draw(NAMES)
    head = f"<{name}{draw(attributes())}{draw(SPACE)}"
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return head + "/>"
    content = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(
            ["text", "text", "cdata", "mixed", "comment", "pi", "element"]
        ))
        if kind == "text":
            content.append(draw(TEXT))
        elif kind == "cdata":
            content.append(f"<![CDATA[{draw(TEXT)}]]>")
        elif kind == "mixed":  # CDATA between runs that hold entities
            content.append(f"{draw(TEXT)}<![CDATA[{draw(TEXT)}]]>"
                           f"{draw(TEXT)}<![CDATA[]]>{draw(TEXT)}")
        elif kind == "comment":
            content.append(f"<!--{draw(TEXT)}-->")
        elif kind == "pi":
            content.append(f"<?{draw(NAMES)} {draw(TEXT)}?>")
        elif depth < 3:
            content.append(draw(elements(depth + 1)))
    return f"{head}>{''.join(content)}</{name}{draw(SPACE)}>"


@st.composite
def documents(draw):
    prolog = draw(st.sampled_from([
        "", "<?xml version='1.0'?>", " \n", "<!--c-->", "<!DOCTYPE a>\n",
        "<?pi x?>",
    ]))
    return f"{prolog}{draw(elements())}{draw(SPACE)}"


@st.composite
def mutated(draw):
    text = draw(documents())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            token = draw(st.sampled_from(list("<>/&;=!?-[]'\" a1") + [
                "<!--", "-->", "<![CDATA[", "]]>", "<?", "?>", "</", "/>",
            ]))
            text = text[:at] + token + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        else:
            text = text[:at]
    return text


def shape(document):
    """Everything the tree holds, in document order."""
    return [
        (node.node_id, node.kind, node.name, node.value,
         node.parent.node_id if node.parent is not None else None,
         node.elements)
        for node in document.all_nodes()
    ]


def outcome(parse_function, text, keep_whitespace):
    try:
        document = parse_function(text, keep_whitespace=keep_whitespace)
    except XMLSyntaxError as error:
        return ("error", str(error), error.line, error.column)
    document.validate()
    return ("tree", document.root.node_id, shape(document))


def assert_same_outcome(text):
    for keep_whitespace in (False, True):
        assert outcome(parse, text, keep_whitespace) == outcome(
            reference_parse, text, keep_whitespace), (text, keep_whitespace)


@settings(max_examples=400, deadline=None)
@given(text=documents())
def test_generated_documents_parse_identically(text):
    assert_same_outcome(text)


@settings(max_examples=600, deadline=None)
@given(text=mutated())
def test_mutated_documents_fail_or_parse_identically(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("text", [
    "", "   ", "<", "<a", "<a>", "<a>text", "<a><b></a>", "<a></b>",
    "<1a/>", "<a 1b='x'/>", "<a b='x' b='y'/>", "<a b=x/>", "<a b='<'/>",
    "<a b='x/>", "<a>&amp</a>", "<a>&zz;</a>", "<a>&#xQ;</a>",
    "<a><![CDATA[x</a>", "<a><!--x</a>", "<a><?p x</a>", "<a/><b/>",
    "<a/>text", "<a>\n\n  <b>\n x &bad;<![CDATA[y]]></b></a>",
    "<a>&bad;<![CDATA[unterminated</a>", "<a></a >", "<a></ a>",
    "<!DOCTYPE x", "<?xml", "<a><!DOCTYPE b></a>", "<a>x</a\n>",
    "<a\n b = 'x'\t/>", "<a  >x</a>", "<a b='x'c='y'/>", "<a b='>'\n/>",
    "<a b='1\n2' c=\"x>y\"></a>", "<a b='&amp;' b='&bad;'/>",
    "<a b='&bad;' b='x'/>", "<a b='x' 1c='y'/>", "<a b='x'/ >",
    "<a>x&amp;<![CDATA[&bad;]]>y&lt;</a>", "<a>&bad;<![CDATA[x]]>&amp;</a>",
    "<a><b/></b></a>", "<a><b></a></b>", "<a><ab></a></ab>",
    "<a><b></bc></a>", "<a><", "<a></", "<a></a", "<a><b/",
    "<²a/>", "<a ²b='x'/>", "<a><²b/></a>", "<a/><!--x-->", "<a/><!--x",
])
def test_edge_cases_match(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("seed,size", [(0, 40), (3, 400), (11, 2000)])
def test_random_documents_match(seed, size):
    document = random_document(size, seed=seed)
    for indent in (None, 2):
        assert_same_outcome(serialize(document, indent=indent))


def test_xmark_matches():
    assert_same_outcome(serialize(xmark_document(scale=2, seed=5), indent=1))


def test_name_and_whitespace_classes_agree_on_every_code_point():
    characters = "".join(map(chr, range(sys.maxunicode + 1)))
    for pattern, predicate in (
        (parser_module._NAME_CHARS, _is_name_char),
        (parser_module._WHITESPACE, str.isspace),
    ):
        matched = bytearray(len(characters))
        for match in pattern.finditer(characters):
            matched[match.start():match.end()] = b"\x01" * (
                match.end() - match.start())
        expected = bytes(map(predicate, characters))
        assert matched == expected, pattern.pattern


def test_deep_nesting_parses_without_recursion():
    depth = sys.getrecursionlimit() * 5
    document = parse("<a>" * depth + "x" + "</a>" * depth)
    document.validate()
    assert document.root.elements == depth
    assert document.labeled_size() == depth


def test_parse_attaches_without_insert_child(monkeypatch):
    """The parser appends fresh nodes in document order, so it needs
    none of ``insert_child``'s checks and must not pay for them."""
    texts = [
        serialize(xmark_document(scale=1, seed=5)),
        "<?xml version='1.0'?><!--c--><a x='1' y=\"&amp;\"><!--note-->"
        "<?pi data?>t&lt;<![CDATA[<raw>]]><b\n z = '2'/>u</a\n>",
    ]
    cases = [(text, keep) for text in texts for keep in (False, True)]
    # The oracle builds its trees with insert_child, so before the patch.
    expected = [shape(reference_parse(text, keep_whitespace=keep))
                for text, keep in cases]

    def refuse(*args):
        raise AssertionError("the parser called XMLNode.insert_child")

    monkeypatch.setattr(XMLNode, "insert_child", refuse)
    for (text, keep), tree in zip(cases, expected):
        document = parse(text, keep_whitespace=keep)
        document.validate()
        assert shape(document) == tree


def preorder_labeled(document):
    return [node for node in document.root.preorder()
            if node.kind.is_labeled]


@pytest.mark.parametrize("seed,size", [(0, 40), (3, 400), (11, 2000)])
def test_labeled_nodes_is_the_labelled_preorder(seed, size):
    document = random_document(size, seed=seed)
    assert list(document.labeled_nodes()) == preorder_labeled(document)


@pytest.mark.parametrize("mode", ["per-op", "batch", "transaction"])
@settings(max_examples=25, deadline=None)
@given(scheme=st.sampled_from(all_scheme_names()),
       program=programs(max_size=10))
def test_labeled_nodes_after_update_programs(mode, scheme, program):
    ldoc = labeled(parse(DOCUMENT_XML), scheme)
    try:
        if mode == "per-op":
            run_program(ldoc, ldoc.updates, program)
        elif mode == "batch":
            with ldoc.batch() as batch:
                run_program(ldoc, batch, program)
        else:
            with ldoc.transaction():
                run_program(ldoc, ldoc.updates, program)
    except ReproError:  # e.g. a sector collision: compare what is left
        pass
    document = ldoc.document
    assert list(document.labeled_nodes()) == preorder_labeled(document)
