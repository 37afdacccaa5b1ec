"""LabeledDocument: update routing, accounting, integrity."""

import pytest

from conftest import labeled
from repro.data.sample import sample_document
from repro.errors import LabelCollisionError, UpdateError
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument


@pytest.fixture
def qed_doc():
    return labeled(sample_document(), "qed")


class TestLookups:
    def test_label_of_and_format(self, qed_doc):
        root = qed_doc.document.root
        assert qed_doc.label_of(root) == qed_doc.labels[root.node_id]
        assert isinstance(qed_doc.format_label(root), str)

    def test_node_by_label(self, qed_doc):
        root = qed_doc.document.root
        assert qed_doc.node_by_label(qed_doc.label_of(root)) is root

    def test_node_by_unknown_label(self, qed_doc):
        with pytest.raises(UpdateError):
            qed_doc.node_by_label(("nope",))

    def test_labels_in_document_order(self, qed_doc):
        values = qed_doc.labels_in_document_order()
        assert len(values) == 10


class TestInsertAccounting:
    def test_insertions_counted(self, qed_doc):
        root = qed_doc.document.root
        qed_doc.updates.append_child(root, "one")
        qed_doc.updates.prepend_child(root, "two")
        assert qed_doc.log.insertions == 2

    def test_new_node_is_in_tree_and_labelled(self, qed_doc):
        node = qed_doc.updates.append_child(
            qed_doc.document.root, "fresh").node
        assert node.parent is qed_doc.document.root
        assert node.node_id in qed_doc.labels

    def test_insert_before_relative_position(self, qed_doc):
        children = qed_doc.document.root.element_children()
        node = qed_doc.updates.insert_before(children[1], "wedge").node
        updated = qed_doc.document.root.element_children()
        assert updated[1] is node

    def test_root_cannot_get_siblings(self, qed_doc):
        with pytest.raises(UpdateError):
            qed_doc.updates.insert_before(qed_doc.document.root, "impossible")

    def test_attribute_insert_positioning(self, qed_doc):
        title = qed_doc.document.root.element_children()[0]
        attr = qed_doc.updates.insert_attribute(title, "lang", "en").node
        assert title.attributes()[-1] is attr
        qed_doc.verify_order()

    def test_relabel_accounting_for_shifting_scheme(self):
        ldoc = labeled(sample_document(), "dewey")
        children = ldoc.document.root.element_children()
        ldoc.updates.insert_before(children[0], "front")
        assert ldoc.log.relabel_events == 1
        assert ldoc.log.relabeled_nodes == 9


class TestSubtreeInsert:
    def test_fragment_from_other_document(self, qed_doc):
        from repro.xmlmodel.parser import parse_fragment

        fragment = parse_fragment("<kit><part n='1'/><part n='2'/></kit>")
        root = qed_doc.document.root
        node = qed_doc.updates.insert_subtree(
            root, len(root.children), fragment).node
        assert node.document is qed_doc.document
        qed_doc.verify_order()
        names = [n.name for n in qed_doc.document.labeled_nodes()]
        assert names.count("part") == 2

    def test_subtree_preserves_text(self, qed_doc):
        from repro.xmlmodel.parser import parse_fragment

        fragment = parse_fragment("<note>remember</note>")
        root = qed_doc.document.root
        node = qed_doc.updates.insert_subtree(
            root, len(root.children), fragment).node
        assert node.text_value() == "remember"


class TestDeletion:
    def test_delete_removes_labels_and_index(self, qed_doc):
        children = qed_doc.document.root.element_children()
        label = qed_doc.label_of(children[0])
        qed_doc.updates.delete(children[0])
        with pytest.raises(UpdateError):
            qed_doc.node_by_label(label)

    def test_delete_root_rejected(self, qed_doc):
        with pytest.raises(UpdateError):
            qed_doc.updates.delete(qed_doc.document.root)


class TestContentUpdates:
    def test_set_text_replaces(self, qed_doc):
        title = qed_doc.document.root.element_children()[0]
        qed_doc.updates.set_text(title, "New Title")
        assert title.text_value() == "New Title"
        assert qed_doc.log.content_updates == 1

    def test_set_text_does_not_touch_labels(self, qed_doc):
        title = qed_doc.document.root.element_children()[0]
        before = dict(qed_doc.labels)
        qed_doc.updates.set_text(title, "New Title")
        assert qed_doc.labels == before

    def test_set_attribute_value(self, qed_doc):
        title = qed_doc.document.root.element_children()[0]
        genre = title.attribute("genre")
        qed_doc.updates.set_attribute_value(genre, "SciFi")
        assert genre.value == "SciFi"

    def test_rename(self, qed_doc):
        title = qed_doc.document.root.element_children()[0]
        qed_doc.updates.rename(title, "heading")
        assert title.name == "heading"

    def test_content_ops_validate_targets(self, qed_doc):
        title = qed_doc.document.root.element_children()[0]
        genre = title.attribute("genre")
        with pytest.raises(UpdateError):
            qed_doc.updates.set_text(genre, "x")
        with pytest.raises(UpdateError):
            qed_doc.updates.set_attribute_value(title, "x")


class TestCollisionsAndIntegrity:
    def test_on_collision_validation(self):
        with pytest.raises(UpdateError):
            LabeledDocument(sample_document(), make_scheme("qed"),
                            on_collision="explode")

    def test_verify_order_detects_corruption(self, qed_doc):
        nodes = list(qed_doc.document.labeled_nodes())
        # Swap two labels behind the document's back.
        a, b = nodes[1].node_id, nodes[2].node_id
        qed_doc.labels[a], qed_doc.labels[b] = (
            qed_doc.labels[b], qed_doc.labels[a],
        )
        with pytest.raises(UpdateError):
            qed_doc.verify_order()

    def test_verify_order_detects_duplicates(self, qed_doc):
        nodes = list(qed_doc.document.labeled_nodes())
        qed_doc.labels[nodes[2].node_id] = qed_doc.labels[nodes[1].node_id]
        with pytest.raises(LabelCollisionError):
            qed_doc.verify_order()

    def test_storage_totals(self, qed_doc):
        assert qed_doc.total_label_bits() > 0
        assert qed_doc.max_label_bits() <= qed_doc.total_label_bits()
