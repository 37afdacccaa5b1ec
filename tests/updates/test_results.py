"""UpdateResult and the immediate update surface."""

import pytest

from conftest import labeled
from repro.data.sample import sample_document
from repro.updates.results import UpdateResult, UpdateSurface
from repro.xmlmodel.tree import XMLNode


@pytest.fixture
def ldoc():
    return labeled(sample_document(), "qed")


class TestUpdateSurface:
    def test_property_returns_surface(self, ldoc):
        assert isinstance(ldoc.updates, UpdateSurface)

    def test_insert_returns_result(self, ldoc):
        result = ldoc.updates.append_child(ldoc.document.root, "kid")
        assert isinstance(result, UpdateResult)
        assert result.kind == "insert"
        assert isinstance(result.node, XMLNode)
        assert result.label == ldoc.labels[result.node.node_id]
        assert result.labels_assigned == 1
        assert not result.deferred

    def test_insert_sibling_positions(self, ldoc):
        children = ldoc.document.root.element_children()
        before = ldoc.updates.insert_before(children[0], "first")
        after = ldoc.updates.insert_after(children[-1], "last")
        ordered = ldoc.document.root.element_children()
        assert ordered[0] is before.node
        assert ordered[-1] is after.node

    def test_delete_returns_result(self, ldoc):
        victim = ldoc.document.root.element_children()[0]
        result = ldoc.updates.delete(victim)
        assert result.kind == "delete"
        assert result.node is None

    def test_relabel_cost_reported(self):
        ldoc = labeled(sample_document(), "prepost")
        target = ldoc.document.root.element_children()[0]
        result = ldoc.updates.insert_after(target, "new")
        assert result.relabel_events == 1
        assert result.relabeled_nodes > 0

    def test_content_updates(self, ldoc):
        element = ldoc.document.root.element_children()[0]
        result = ldoc.updates.set_text(element, "hello")
        assert result.kind == "content"
        renamed = ldoc.updates.rename(element, "other")
        assert renamed.kind == "content"
        assert element.name == "other"

    def test_move_returns_result(self, ldoc):
        a, b = ldoc.document.root.element_children()[:2]
        child = a.element_children()[0] if a.element_children() else None
        if child is None:
            pytest.skip("sample tree shape changed")
        result = ldoc.updates.move(child, b, len(b.children))
        assert result.kind == "move"
        assert result.node is child
        assert result.label == ldoc.labels[child.node_id]
        ldoc.verify_order()


@pytest.mark.parametrize("name", [
    "insert_before", "insert_after", "append_child", "prepend_child",
    "insert_attribute", "insert_subtree", "delete", "move", "set_text",
    "set_attribute_value", "rename",
])
def test_document_has_no_mutators_of_its_own(name, ldoc):
    """Updates go through ``ldoc.updates``, ``batch()`` or
    ``transaction()``; the document itself exposes none."""
    assert not hasattr(ldoc, name)
    assert callable(getattr(ldoc.updates, name))
