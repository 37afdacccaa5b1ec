"""``resolve_targets`` against the tree-pointer resolver it replaced.

The resolver runs ``XPathEvaluator``'s step loop on the document's
index, which holds a batch's pending nodes from their attach on.  On
random documents (random update programs over a fixed one, some still
pending in an open batch) and random paths — every axis, name tests,
predicates, nested contexts and unions — it must select exactly what
``tests/reference_ulang.py`` selects by walking the tree, node for node.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import labeled
from reference_ulang import reference_resolve_targets
from repro.axes.xpath_ast import AXES, parse_xpath
from repro.errors import XPathError
from repro.ulang import resolve_targets
from repro.xmlmodel.parser import parse
from repro.xmlmodel.tree import Document, XMLNode
from update_programs import DOCUMENT_XML, programs, run_program

NAMES = ("*", "person", "name", "item", "people", "id", "leaf", "graft",
         "n1", "n2")
PREDICATES = ("", "[1]", "[2]", "[name]", "[@id]", "[@id='p2']")


def render_step(step) -> str:
    axis, name, predicate = step
    if axis == "attribute":
        return f"@{name}{predicate}"
    return f"{axis}::{name}{predicate}"


steps = st.tuples(st.sampled_from(AXES), st.sampled_from(NAMES),
                  st.sampled_from(PREDICATES))
branches = st.builds(
    lambda prefix, parts: prefix + "/".join(map(render_step, parts)),
    st.sampled_from(("/", "//", "")),
    st.lists(steps, min_size=1, max_size=3),
)
paths = st.lists(branches, min_size=1, max_size=2).map(" | ".join)


def assert_same(got, expected, path):
    assert [node.node_id for node in got] == [
        node.node_id for node in expected], path
    assert all(left is right for left, right in zip(got, expected)), path


@pytest.mark.parametrize("scheme_name", ["dewey", "qed", "prepost"])
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(max_size=5), queries=st.lists(paths, min_size=1,
                                                      max_size=4))
def test_resolution_matches_the_whole_tree_numbering(scheme_name, program,
                                                     queries):
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    half = len(program) // 2
    run_program(ldoc, ldoc.updates, program[:half])
    # The rest runs in a batch left open: under Dewey, inserts before a
    # sibling stay pending (unlabelled), under PrePost every insert does,
    # while targets resolve next to them.
    batch = ldoc.batch()
    run_program(ldoc, batch, program[half:], start=half)
    try:
        for path in queries:
            try:
                parsed = parse_xpath(path)
            except XPathError:
                continue
            assert_same(resolve_targets(ldoc, parsed),
                        reference_resolve_targets(ldoc, parsed), path)
    finally:
        batch.rollback()


def test_targets_next_to_pending_nodes():
    ldoc = labeled(parse(DOCUMENT_XML), "dewey")
    people = next(node for node in ldoc.document.labeled_nodes()
                  if node.name == "people")
    first = people.element_children()[0]
    with ldoc.batch() as batch:
        batch.insert_before(first, "person")  # Dewey defers: pending
        batch.append_child(first, "name")
        assert batch.pending
        for path in ("//person", "//person/following::name",
                     "//name/preceding::person | //item",
                     "/site/people/person/name", "//person[1]/@id",
                     "//name/ancestor-or-self::*[2]"):
            parsed = parse_xpath(path)
            assert_same(resolve_targets(ldoc, parsed),
                        reference_resolve_targets(ldoc, parsed), path)


def test_one_context_per_step_numbers_nothing(monkeypatch):
    # With the index current, resolution reads it alone: no step, from
    # one context or many, walks or numbers the tree, pending nodes
    # present or not.
    ldoc = labeled(parse(DOCUMENT_XML), "dewey")
    people = next(node for node in ldoc.document.labeled_nodes()
                  if node.name == "people")
    batch = ldoc.batch()
    batch.insert_before(people.element_children()[0], "person")
    assert batch.pending
    ldoc.accelerator().ensure_current()
    expected = {}
    paths = [f"{start}/{axis}::*" for axis in AXES
             for start in ("/site/people/person[1]", "//person")]
    for path in paths:
        expected[path] = reference_resolve_targets(ldoc, path)

    def refuse(*_args):
        raise AssertionError("the tree was walked")

    monkeypatch.setattr(XMLNode, "preorder", refuse)
    monkeypatch.setattr(XMLNode, "descendants", refuse)
    monkeypatch.setattr(Document, "labeled_nodes", refuse)
    for path in paths:
        assert_same(resolve_targets(ldoc, path), expected[path], path)
    found = resolve_targets(ldoc, "/site/people/person[@id='p2']/name")
    assert [node.name for node in found] == ["name"]
    found = resolve_targets(ldoc, "/site/items/item[1]/ancestor::*")
    assert [node.name for node in found] == ["site", "items"]
    monkeypatch.undo()
    batch.rollback()
