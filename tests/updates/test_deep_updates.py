"""Updates on subtrees nested deeper than Python's recursion limit.

A chain of 3,000 elements is three times the default limit.  Dewey's
shift of the following siblings and ``insert_subtree`` each walk an
explicit stack; both recursed once per level and raised
``RecursionError``, although parse, label_tree, move, delete and XPath
already handled the same document.
"""

import pytest

from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse, parse_fragment

DEPTH = 3000
CHAIN_XML = "<c>" * DEPTH + "</c>" * DEPTH


def chain_below(node):
    """``node`` and its first element child, its child's, and so on."""
    chain = [node]
    while chain[-1].element_children():
        chain.append(chain[-1].element_children()[0])
    return chain


def assert_index_matches(ldoc):
    assert ldoc._label_index == {
        label: node_id for node_id, label in ldoc.labels.items()}


def test_dewey_shifts_a_following_sibling_that_holds_a_deep_subtree():
    ldoc = LabeledDocument(parse(f"<r><a/><b>{CHAIN_XML}</b></r>"),
                           make_scheme("dewey"))
    _a, b = ldoc.document.root.element_children()
    result = ldoc.updates.insert_before(b, "n")
    assert result.relabeled_nodes == DEPTH + 1
    assert ldoc.labels[result.node.node_id] == (1, 2)
    for depth, node in enumerate(chain_below(b)):
        assert ldoc.labels[node.node_id] == (1, 3) + (1,) * depth
    assert_index_matches(ldoc)


@pytest.mark.parametrize("scheme_name", ["qed", "dewey"])
@pytest.mark.parametrize("surface", ["per-operation", "batch"])
def test_a_deep_subtree_inserts_node_by_node(scheme_name, surface):
    ldoc = LabeledDocument(parse("<r><a/></r>"), make_scheme(scheme_name))
    root = ldoc.document.root
    fragment = parse_fragment(CHAIN_XML)
    if surface == "batch":
        with ldoc.batch() as batch:
            result = batch.insert_subtree(root, 1, fragment)
        assert ldoc.last_batch_result.relabel_passes == 0
    else:
        result = ldoc.updates.insert_subtree(root, 1, fragment)
    assert result.labels_assigned == DEPTH
    chain = chain_below(result.node)
    assert len(chain) == DEPTH
    top = ldoc.labels[result.node.node_id]
    only = ldoc.scheme.component_for_only_child()
    for depth, node in enumerate(chain):
        assert ldoc.labels[node.node_id] == top + (only,) * depth
    assert_index_matches(ldoc)
