"""The pre/post plane: window queries versus the tree oracle."""

import pytest

from conftest import fresh_random_document
from repro.axes.plane import PrePostPlane
from repro.data.sample import sample_document
from repro.errors import StaleIndexError


@pytest.fixture
def plane():
    return PrePostPlane(sample_document())


def ids(nodes):
    return [node.node_id for node in nodes]


class TestAxesWindows:
    def test_descendants(self, plane):
        root = plane.document.root
        assert len(plane.descendants(root)) == 9
        editor = next(
            n for n in plane.document.labeled_nodes() if n.name == "editor"
        )
        assert [n.name for n in plane.descendants(editor)] == [
            "name", "address",
        ]

    def test_ancestors(self, plane):
        name = next(
            n for n in plane.document.labeled_nodes() if n.name == "name"
        )
        assert [n.name for n in plane.ancestors(name)] == [
            "book", "publisher", "editor",
        ]

    def test_following_and_preceding(self, plane):
        author = next(
            n for n in plane.document.labeled_nodes() if n.name == "author"
        )
        assert [n.name for n in plane.following(author)] == [
            "publisher", "editor", "name", "address", "edition", "year",
        ]
        assert [n.name for n in plane.preceding(author)] == [
            "title", "genre",
        ]

    def test_windows_match_oracle_on_random_document(self):
        document = fresh_random_document(80, seed=91)
        plane = PrePostPlane(document)
        order = list(document.labeled_nodes())
        for node in order[:25]:
            descendants = {
                d.node_id for d in node.descendants() if d.kind.is_labeled
            }
            ancestors = {a.node_id for a in node.ancestors()}
            assert set(ids(plane.descendants(node))) == descendants
            assert set(ids(plane.ancestors(node))) == ancestors
            position = order.index(node)
            expected_following = [
                other.node_id for other in order[position + 1 :]
                if other.node_id not in descendants
            ]
            assert ids(plane.following(node)) == expected_following
            expected_preceding = [
                other.node_id for other in order[:position]
                if other.node_id not in ancestors
            ]
            assert ids(plane.preceding(node)) == expected_preceding


class TestPlaneMechanics:
    def test_raw_window(self, plane):
        nodes = plane.window(1, 4)
        assert [n.name for n in nodes] == ["title", "genre", "author"]

    def test_size(self, plane):
        assert plane.size() == 10

    def test_stale_node_rejected_until_refresh(self, plane):
        root = plane.document.root
        fresh_node = plane.ldoc.updates.append_child(root, "late").node
        with pytest.raises(StaleIndexError):
            plane.descendants(fresh_node)
        # The whole plane is stale now, not just the new node: querying
        # from an old node refuses too instead of serving dead windows.
        with pytest.raises(StaleIndexError):
            plane.descendants(root)
        plane.refresh()
        assert plane.ancestors(fresh_node) == [root]

    def test_refresh_after_updates_keeps_oracle_agreement(self, plane):
        root = plane.document.root
        plane.ldoc.updates.prepend_child(root, "zero")
        plane.refresh()
        assert len(plane.descendants(root)) == 10
