"""The pre/post plane: window queries versus the tree oracle.

Section 3.1.1's plane is the document's index over a PrePost-labelled
document: its positions are the pre ranks, so every window is one of
Grust's rectangular region queries.
"""

import pytest

from conftest import fresh_random_document
from repro.data.sample import sample_document
from repro.errors import StaleIndexError
from repro.schemes.containment.prepost import PrePostScheme
from repro.updates.document import LabeledDocument


def prepost_plane(document):
    plane = LabeledDocument(document, PrePostScheme()).accelerator()
    plane.refresh()
    return plane


@pytest.fixture
def plane():
    return prepost_plane(sample_document())


def ids(nodes):
    return [node.node_id for node in nodes]


class TestAxesWindows:
    def test_descendants(self, plane):
        root = plane.document.root
        assert len(plane.evaluate("descendant", root)) == 9
        editor = next(
            n for n in plane.document.labeled_nodes() if n.name == "editor"
        )
        assert [n.name for n in plane.evaluate("descendant", editor)] == [
            "name", "address",
        ]

    def test_ancestors(self, plane):
        name = next(
            n for n in plane.document.labeled_nodes() if n.name == "name"
        )
        assert [n.name for n in plane.evaluate("ancestor", name)] == [
            "book", "publisher", "editor",
        ]

    def test_following_and_preceding(self, plane):
        author = next(
            n for n in plane.document.labeled_nodes() if n.name == "author"
        )
        assert [n.name for n in plane.evaluate("following", author)] == [
            "publisher", "editor", "name", "address", "edition", "year",
        ]
        assert [n.name for n in plane.evaluate("preceding", author)] == [
            "title", "genre",
        ]

    def test_windows_match_oracle_on_random_document(self):
        document = fresh_random_document(80, seed=91)
        plane = prepost_plane(document)
        order = list(document.labeled_nodes())
        for node in order[:25]:
            descendants = {
                d.node_id for d in node.descendants() if d.kind.is_labeled
            }
            ancestors = {a.node_id for a in node.ancestors()}
            assert set(ids(plane.evaluate("descendant", node))) == descendants
            assert set(ids(plane.evaluate("ancestor", node))) == ancestors
            position = order.index(node)
            expected_following = [
                other.node_id for other in order[position + 1 :]
                if other.node_id not in descendants
            ]
            assert ids(plane.evaluate("following", node)) == expected_following
            expected_preceding = [
                other.node_id for other in order[:position]
                if other.node_id not in ancestors
            ]
            assert ids(plane.evaluate("preceding", node)) == expected_preceding


class TestPlaneMechanics:
    def test_raw_window(self, plane):
        # Nodes with pre in [1, 4): a pre range is a slice of the index.
        nodes = plane.nodes()[1:4]
        assert [n.name for n in nodes] == ["title", "genre", "author"]
        assert [plane.ldoc.label_of(n).pre for n in nodes] == [1, 2, 3]

    def test_size(self, plane):
        assert plane.size() == 10

    def test_stale_node_rejected_until_refresh(self, plane):
        # An index that does not consume the document's deltas is a
        # static plane: after an update it refuses until refresh().
        plane.ldoc.unsubscribe_deltas(plane)
        root = plane.document.root
        fresh_node = plane.ldoc.updates.append_child(root, "late").node
        with pytest.raises(StaleIndexError):
            plane.evaluate("descendant", fresh_node)
        # The whole plane is stale now, not just the new node: querying
        # from an old node refuses too instead of serving dead windows.
        with pytest.raises(StaleIndexError):
            plane.evaluate("descendant", root)
        plane.refresh()
        assert plane.evaluate("ancestor", fresh_node) == [root]

    def test_refresh_after_updates_keeps_oracle_agreement(self, plane):
        root = plane.document.root
        plane.ldoc.updates.prepend_child(root, "zero")
        plane.refresh()
        assert len(plane.evaluate("descendant", root)) == 10
