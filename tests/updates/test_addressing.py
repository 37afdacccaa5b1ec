"""Positional addressing by subtree element counts, against list scans.

``element_position`` and ``_element_at`` walk the ancestor chain using
each node's ``elements`` count.  The list-scan versions below are the
reference: they list every element in document order.  After random
mutation programs, and after rollbacks of them, both must agree for
every element, for edge positions and with and without
``exclude_root``, and every node's count must equal a recount.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fresh_random_document, labeled
from repro.errors import ReproError, UpdateError
from repro.updates.operations import _element_at, element_position
from update_programs import programs, run_program

ADDRESSING_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def scan_element_at(ldoc, position, exclude_root=False):
    elements = [
        node for node in ldoc.document.all_nodes() if node.is_element
    ]
    if exclude_root:
        elements = [node for node in elements if node.parent is not None]
    if not elements:
        return None
    return elements[position % len(elements)]


def scan_element_position(ldoc, node, exclude_root=False):
    elements = [
        candidate for candidate in ldoc.document.all_nodes()
        if candidate.is_element
        and not (exclude_root and candidate.parent is None)
    ]
    for index, candidate in enumerate(elements):
        if candidate is node:
            return index
    raise UpdateError(
        f"node {node!r} is not a positionally addressable element"
    )


def outcome(function, *args):
    """A call's result, or the type of the error it raised."""
    try:
        return function(*args)
    except UpdateError as error:
        return type(error)


def assert_addressing_agrees(ldoc, detached=()) -> None:
    document = ldoc.document
    for node in document.all_nodes():
        assert node.elements == sum(
            1 for member in node.preorder() if member.is_element
        )
    for exclude_root in (False, True):
        for node in list(document.all_nodes()) + list(detached):
            assert (outcome(element_position, ldoc, node, exclude_root)
                    == outcome(scan_element_position, ldoc, node,
                               exclude_root)), (node, exclude_root)
        count = document.root.elements - exclude_root
        for position in (0, count - 1, count, -1, -count - 3, 10**12,
                         -(10**12) - 1, *range(count)):
            assert (_element_at(ldoc, position, exclude_root)
                    is scan_element_at(ldoc, position, exclude_root)), (
                position, exclude_root)


@ADDRESSING_SETTINGS
@given(seed=st.integers(0, 50), program=programs(max_size=10))
def test_addressing_agrees_after_mutations(seed, program):
    ldoc = labeled(fresh_random_document(30, seed=seed), "qed")
    assert_addressing_agrees(ldoc)
    detached = []
    for serial, step in enumerate(program):
        before = list(ldoc.document.all_nodes())
        run_program(ldoc, ldoc.updates, [step], start=serial)
        present = {id(node) for node in ldoc.document.all_nodes()}
        detached.extend(node for node in before if id(node) not in present)
        assert_addressing_agrees(ldoc, detached)


@ADDRESSING_SETTINGS
@given(seed=st.integers(0, 50), program=programs(max_size=10),
       batched=st.booleans())
def test_addressing_agrees_after_rollback(seed, program, batched):
    ldoc = labeled(fresh_random_document(30, seed=seed), "dewey")
    held = list(ldoc.document.all_nodes())
    with pytest.raises((RuntimeError, ReproError)):
        with ldoc.transaction():
            if batched:
                with ldoc.batch() as batch:
                    run_program(ldoc, batch, program)
            else:
                run_program(ldoc, ldoc.updates, program)
            assert_addressing_agrees(ldoc)
            raise RuntimeError("roll back")
    assert list(ldoc.document.all_nodes()) == held
    assert_addressing_agrees(ldoc)


def test_detached_and_non_element_nodes_are_refused():
    ldoc = labeled(fresh_random_document(30, seed=4), "qed")
    root = ldoc.document.root
    victim = root.element_children()[0]
    attribute = next(node for node in ldoc.document.all_nodes()
                     if node.is_attribute)
    ldoc.updates.delete(victim)
    stranger = labeled(fresh_random_document(10, seed=5), "qed")
    for node in (victim, attribute, root, stranger.document.root):
        for exclude_root in (False, True):
            assert (outcome(element_position, ldoc, node, exclude_root)
                    == outcome(scan_element_position, ldoc, node,
                               exclude_root))
    with pytest.raises(UpdateError):
        element_position(ldoc, root, exclude_root=True)
    with pytest.raises(UpdateError):
        element_position(ldoc, victim)


def test_root_only_document_has_no_positions_without_root():
    ldoc = labeled(fresh_random_document(1, seed=0), "qed")
    for child in list(ldoc.document.root.element_children()):
        ldoc.updates.delete(child)
    assert ldoc.document.root.elements == 1
    assert _element_at(ldoc, 0, exclude_root=True) is None
    assert _element_at(ldoc, 5) is ldoc.document.root
