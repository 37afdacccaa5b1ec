"""The sibling context an insert is labelled in, against a full listing.

``LabeledDocument._insert_context_for`` finds the new node's slot among
its parent's children and scans outward to the nearest labelled sibling
on each side.  :func:`listing_context` is the version it replaced: list
every labelled sibling, then take the new node's two neighbours.  After
every step of a random program — per operation and inside a batch,
where deferred siblings stay unlabelled — both must name the same
neighbours for every node.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import labeled
from repro.xmlmodel.parser import parse
from repro.xmlmodel.tree import XMLNode
from update_programs import DOCUMENT_XML, programs, run_step


def listing_context(ldoc, node):
    """``(left_id, right_id)`` from the list of labelled siblings."""
    siblings = [
        child for child in node.parent.labeled_children()
        if child.node_id == node.node_id or child.node_id in ldoc.labels
    ]
    position = next(index for index, child in enumerate(siblings)
                    if child.node_id == node.node_id)
    left = siblings[position - 1] if position > 0 else None
    right = siblings[position + 1] if position + 1 < len(siblings) else None
    return (left.node_id if left is not None else None,
            right.node_id if right is not None else None)


def assert_contexts_agree(ldoc):
    for node in ldoc.document.labeled_nodes():
        if node.parent is None:
            continue
        context = ldoc._insert_context_for(node)
        assert (context.left_id, context.right_id) == listing_context(
            ldoc, node), node
        assert context.parent is node.parent


@pytest.mark.parametrize("scheme_name", ["dewey", "qed", "ordpath"])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(max_size=6))
def test_context_matches_the_listing(scheme_name, program):
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    for serial, step in enumerate(program):
        run_step(ldoc, ldoc.updates, step, serial)
        assert_contexts_agree(ldoc)
    with ldoc.batch() as batch:
        for serial, step in enumerate(program, len(program)):
            run_step(ldoc, batch, step, serial)
            assert_contexts_agree(ldoc)  # pending siblings included
    assert_contexts_agree(ldoc)


def test_an_insert_lists_no_siblings(monkeypatch):
    ldoc = labeled(parse(DOCUMENT_XML), "qed")
    people = next(node for node in ldoc.document.labeled_nodes()
                  if node.name == "people")

    def refuse(self):
        raise AssertionError("every labelled sibling was listed")

    monkeypatch.setattr(XMLNode, "labeled_children", refuse)
    ldoc.updates.append_child(people, "person")
    ldoc.updates.insert_before(people, "lead")
    monkeypatch.undo()
    ldoc.verify_order()
