"""Subtree move: detach + re-insert with fresh labels at the target."""

import pytest

from conftest import all_scheme_names, labeled
from repro.data.sample import sample_document
from repro.errors import UpdateError
from repro.xmlmodel.parser import parse
from update_programs import DOCUMENT_XML, run_step


def find(ldoc, name):
    return next(
        node for node in ldoc.document.labeled_nodes() if node.name == name
    )


@pytest.mark.parametrize("name", all_scheme_names())
class TestMoveAcrossSchemes:
    def test_move_keeps_order_invariant(self, name):
        ldoc = labeled(sample_document(), name)
        editor = find(ldoc, "editor")
        root = ldoc.document.root
        ldoc.updates.move(editor, root, len(root.children))
        ldoc.verify_order()
        assert editor.parent is root

    def test_moved_subtree_keeps_identity_and_content(self, name):
        ldoc = labeled(sample_document(), name)
        editor = find(ldoc, "editor")
        editor_id = editor.node_id
        child_names = [c.name for c in editor.labeled_children()]
        ldoc.updates.move(editor, ldoc.document.root,
                          len(ldoc.document.root.children))
        assert editor.node_id == editor_id
        assert [c.name for c in editor.labeled_children()] == child_names


    def test_move_relabelled_by_its_own_insert_stays_indexed(self, name):
        # Labelling the moved root can run a full relabel that labels
        # the rest of the moved subtree (sector does); the move must not
        # label those nodes a second time behind the label index.
        ldoc = labeled(parse(DOCUMENT_XML), name)
        run_step(ldoc, ldoc.updates, ("move", 0, 1))
        ldoc.verify_order()
        for node in ldoc.document.labeled_nodes():
            assert ldoc.node_by_label(ldoc.label_of(node)) is node

    def test_subtree_graft_keeps_the_label_index(self, name):
        # A graft attaches and labels its nodes one at a time, so no
        # relabelling can label a grafted node ahead of its turn.
        ldoc = labeled(parse(DOCUMENT_XML), name)
        for step in (("insert-subtree", 0, 0), ("move", 3, 2),
                     ("insert-subtree", 2, 3)):
            run_step(ldoc, ldoc.updates, step)
        if ldoc.log.collisions:
            return  # LSDX/ComD duplicate labels (section 3.1.2)
        ldoc.verify_order()
        for node in ldoc.document.labeled_nodes():
            assert ldoc.node_by_label(ldoc.label_of(node)) is node


class TestMoveSemantics:
    def test_persistent_scheme_keeps_outside_labels(self):
        ldoc = labeled(sample_document(), "qed")
        editor = find(ldoc, "editor")
        moved_ids = {n.node_id for n in editor.preorder() if n.kind.is_labeled}
        outside = {
            node_id: label for node_id, label in ldoc.labels.items()
            if node_id not in moved_ids
        }
        ldoc.updates.move(editor, ldoc.document.root,
                          len(ldoc.document.root.children))
        for node_id, label in outside.items():
            assert ldoc.labels[node_id] == label
        assert ldoc.log.relabeled_nodes == 0

    @pytest.mark.parametrize("name,assigned,relabeled",
                             [("prepost", 2, 4), ("cohen", 2, 2)])
    def test_nodes_a_relabel_labels_first_count_as_assigned(
            self, name, assigned, relabeled):
        # Moving c, with its child d, before a's first child relabels
        # (PrePost the whole plane, Cohen below a), and that relabel
        # gives d its first label before d's turn.  As in a batch's
        # pass, a node that had no label counts as assigned, not
        # relabelled: the total is what it was, 1 + 5 and 1 + 3.
        ldoc = labeled(parse("<r><a><x/><y/></a><b><c><d/></c></b></r>"),
                       name)
        a, b = ldoc.document.root.element_children()
        result = ldoc.updates.move(b.element_children()[0], a, 0)
        assert (result.labels_assigned, result.relabeled_nodes) == (
            assigned, relabeled)
        assert ldoc.log.relabeled_nodes == relabeled
        ldoc.verify_order()

    def test_moved_nodes_get_new_labels(self):
        ldoc = labeled(sample_document(), "qed")
        editor = find(ldoc, "editor")
        old_label = ldoc.label_of(editor)
        ldoc.updates.move(editor, ldoc.document.root,
                          len(ldoc.document.root.children))
        assert ldoc.label_of(editor) != old_label
        # The new label sits under the root, after the old last child.
        assert ldoc.scheme.is_parent(
            ldoc.label_of(ldoc.document.root), ldoc.label_of(editor)
        )

    def test_move_to_front(self):
        ldoc = labeled(sample_document(), "cdqs")
        edition = find(ldoc, "edition")
        publisher = find(ldoc, "publisher")
        ldoc.updates.move(edition, ldoc.document.root, 0)
        ldoc.verify_order()
        order = [n.name for n in ldoc.document.labeled_nodes()]
        assert order.index("edition") < order.index("publisher")

    def test_move_root_rejected(self):
        ldoc = labeled(sample_document(), "qed")
        with pytest.raises(UpdateError):
            ldoc.updates.move(ldoc.document.root, ldoc.document.root, 0)

    def test_move_under_own_descendant_rejected(self):
        ldoc = labeled(sample_document(), "qed")
        publisher = find(ldoc, "publisher")
        editor = find(ldoc, "editor")
        with pytest.raises(UpdateError):
            ldoc.updates.move(publisher, editor, 0)

    def test_queries_after_move(self):
        from repro.axes.xpath import xpath

        ldoc = labeled(sample_document(), "qed")
        editor = find(ldoc, "editor")
        ldoc.updates.move(editor, ldoc.document.root,
                          len(ldoc.document.root.children))
        assert [n.name for n in xpath(ldoc, "/book/editor/name")] == ["name"]
        assert xpath(ldoc, "/book/publisher/editor") == []
