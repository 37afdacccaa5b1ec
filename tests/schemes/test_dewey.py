"""DeweyID tests, including the Figure 3 labels."""

import pytest

from conftest import label_sequence, labeled
from repro.data.sample import FIGURE_3_DEWEY_LABELS, figure3_tree
from repro.xmlmodel.tree import Document


class TestFigure3:
    def test_figure3_labels(self):
        ldoc = labeled(figure3_tree(), "dewey")
        assert label_sequence(ldoc) == FIGURE_3_DEWEY_LABELS


class TestInsertionShifts:
    def test_insert_before_shifts_following_siblings(self):
        ldoc = labeled(figure3_tree(), "dewey")
        second = ldoc.document.root.element_children()[1]  # label 1.2
        ldoc.updates.insert_before(second, "new")
        labels = label_sequence(ldoc)
        # The new node takes 1.2; old 1.2 and 1.3 shift to 1.3 and 1.4,
        # carrying their subtrees with them.
        assert "1.2" in labels
        assert "1.4" in labels
        assert "1.4.3" in labels
        ldoc.verify_order()

    def test_shift_relabels_descendants_too(self):
        ldoc = labeled(figure3_tree(), "dewey")
        first = ldoc.document.root.element_children()[0]
        before = ldoc.log.relabeled_nodes
        ldoc.updates.insert_before(first, "new")
        # Following siblings 1.1, 1.2, 1.3 plus their 6 descendants move.
        assert ldoc.log.relabeled_nodes - before == 9

    def test_append_does_not_relabel(self):
        ldoc = labeled(figure3_tree(), "dewey")
        ldoc.updates.append_child(ldoc.document.root, "tail")
        assert ldoc.log.relabeled_nodes == 0
        assert label_sequence(ldoc)[-1] == "1.4"

    def test_deletion_gap_is_reused_without_collision(self):
        ldoc = labeled(figure3_tree(), "dewey")
        children = ldoc.document.root.element_children()
        ldoc.updates.delete(children[1])  # frees 1.2
        ldoc.verify_order()
        node = ldoc.updates.insert_after(children[0], "reuse").node
        assert ldoc.format_label(node) == "1.2"
        ldoc.verify_order()

    def test_level_is_depth(self):
        ldoc = labeled(figure3_tree(), "dewey")
        for node in ldoc.document.labeled_nodes():
            assert ldoc.scheme.level(ldoc.label_of(node)) == node.depth()


class TestInsertFindsItsParentWithoutAWalk:
    """The insert context carries the parent; no whole-tree id lookup."""

    @pytest.fixture
    def no_id_lookup(self, monkeypatch):
        def refuse(self, node_id):
            raise AssertionError(f"node_by_id({node_id}) walks the tree")

        monkeypatch.setattr(Document, "node_by_id", refuse)

    def test_immediate_inserts(self, no_id_lookup):
        ldoc = labeled(figure3_tree(), "dewey")
        first = ldoc.document.root.element_children()[0]
        ldoc.updates.insert_before(first, "head")  # shifts followers
        ldoc.updates.append_child(first, "tail")
        ldoc.verify_order()

    def test_batched_inserts(self, no_id_lookup):
        ldoc = labeled(figure3_tree(), "dewey")
        first = ldoc.document.root.element_children()[0]
        with ldoc.batch() as batch:
            batch.append_child(first, "fast")  # plan_insert probes
            batch.insert_before(first, "deferred")
        assert ldoc.last_batch_result.relabel_passes == 1
        ldoc.verify_order()
