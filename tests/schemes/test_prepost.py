"""XPath Accelerator (pre/post) tests, including the Figure 1(b) labels."""

import pytest

from conftest import labeled
from repro.data.sample import FIGURE_1B_PRE_POST
from repro.errors import UnsupportedRelationshipError
from repro.schemes.containment.prepost import PrePostLabel, PrePostScheme


class TestFigure1b:
    def test_sample_document_labels_match_figure(self, sample):
        ldoc = labeled(sample, "prepost")
        pairs = [
            (label.pre, label.post)
            for label in ldoc.labels_in_document_order()
        ]
        assert pairs == FIGURE_1B_PRE_POST

    def test_formatting_matches_figure(self, sample):
        ldoc = labeled(sample, "prepost")
        rendered = [ldoc.format_label(n) for n in sample.labeled_nodes()]
        assert rendered[0] == "0,9"
        assert rendered[-1] == "9,6"


class TestRelationships:
    def test_dietz_ancestor_criterion(self, sample):
        # "node u is an ancestor of node v iff u occurs before v in the
        # preorder traversal and after v in the postorder traversal"
        ldoc = labeled(sample, "prepost")
        book = ldoc.label_of(sample.root)
        name = next(
            ldoc.label_of(n) for n in sample.labeled_nodes() if n.name == "name"
        )
        assert ldoc.scheme.is_ancestor(book, name)
        assert not ldoc.scheme.is_ancestor(name, book)

    def test_parent_needs_level(self, sample):
        ldoc = labeled(sample, "prepost")
        editor = next(
            ldoc.label_of(n) for n in sample.labeled_nodes()
            if n.name == "editor"
        )
        name = next(
            ldoc.label_of(n) for n in sample.labeled_nodes() if n.name == "name"
        )
        book = ldoc.label_of(sample.root)
        assert ldoc.scheme.is_parent(editor, name)
        assert not ldoc.scheme.is_parent(book, name)

    def test_sibling_unsupported(self, sample):
        ldoc = labeled(sample, "prepost")
        values = ldoc.labels_in_document_order()
        with pytest.raises(UnsupportedRelationshipError):
            ldoc.scheme.is_sibling(values[1], values[3])

    def test_level_stored(self, sample):
        ldoc = labeled(sample, "prepost")
        for node in sample.labeled_nodes():
            assert ldoc.scheme.level(ldoc.label_of(node)) == node.depth()


class TestDynamics:
    def test_every_insertion_relabels_globally(self, sample):
        ldoc = labeled(sample, "prepost")
        ldoc.updates.prepend_child(sample.root, "zero")
        # All ten original nodes except none keep their pre rank: the new
        # first child shifts everything after it.
        assert ldoc.log.relabel_events == 1
        assert ldoc.log.relabeled_nodes >= 9
        ldoc.verify_order()

    def test_append_still_relabels_posts(self, sample):
        ldoc = labeled(sample, "prepost")
        ldoc.updates.append_child(sample.root, "last")
        # Appending shifts ancestors' postorder ranks.
        assert ldoc.log.relabeled_nodes >= 1
        ldoc.verify_order()

    def test_fixed_size_labels(self, sample):
        scheme = PrePostScheme(width_bits=32)
        labels = scheme.label_tree(sample)
        sizes = {scheme.label_size_bits(v) for v in labels.values()}
        assert sizes == {96}

    def test_label_type(self, sample):
        ldoc = labeled(sample, "prepost")
        assert isinstance(ldoc.label_of(sample.root), PrePostLabel)
