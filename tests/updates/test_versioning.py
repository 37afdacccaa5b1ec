"""Versioned documents: commits, checkouts, annotations, diffs."""

import dataclasses

import pytest

from repro.errors import SnapshotMismatchError, UpdateError
from repro.updates.versioning import VersionedDocument

DOCUMENT = "<doc><a/><b><c>text</c></b><d/></doc>"


@pytest.fixture
def versioned():
    return VersionedDocument.from_xml(DOCUMENT, scheme="qed")


class TestCommits:
    def test_initial_commit_exists(self, versioned):
        assert len(versioned.revisions) == 1
        assert versioned.head.message == "initial import"

    def test_commit_captures_state(self, versioned):
        root = versioned.ldoc.document.root
        versioned.ldoc.updates.append_child(root, "e")
        revision = versioned.commit("add e")
        assert revision.number == 1
        assert "<e/>" in revision.xml
        assert len(revision.label_owners) == 6

    def test_history_lines(self, versioned):
        versioned.ldoc.updates.append_child(versioned.ldoc.document.root, "e")
        versioned.commit("add e")
        lines = versioned.history()
        assert lines[0].startswith("r0: initial import")
        assert lines[1].startswith("r1: add e")

    def test_unknown_revision(self, versioned):
        with pytest.raises(UpdateError):
            versioned.revision(9)

    def test_commit_records_scheme_and_config(self):
        from repro.updates.document import LabeledDocument
        from repro.schemes.registry import make_scheme
        from repro.xmlmodel.parser import parse

        ldoc = LabeledDocument(
            parse(DOCUMENT), make_scheme("dewey", component_bits=4)
        )
        versioned = VersionedDocument(ldoc)
        assert versioned.head.scheme_name == "dewey"
        assert versioned.head.scheme_config == {"component_bits": 4}
        assert versioned.head.collisions == 0

    def test_lsdx_duplicate_labels_surface_as_collisions(self):
        """Regression: ``label_owners`` is keyed by rendered label text,
        so an LSDX collision used to silently drop one node from the
        revision; the overwrite is now counted."""
        from repro.schemes.prefix.lsdx import LSDXScheme
        from repro.updates.document import LabeledDocument
        from repro.xmlmodel.builder import wide_tree

        ldoc = LabeledDocument(
            wide_tree(25), LSDXScheme(), on_collision="record"
        )
        children = ldoc.document.root.element_children()
        ldoc.updates.append_child(ldoc.document.root, "tail")
        # Duplicates "tail"'s label.
        ldoc.updates.insert_after(children[-1], "boom")
        versioned = VersionedDocument(ldoc)
        head = versioned.head
        assert head.collisions == 1
        total_nodes = len(list(ldoc.document.labeled_nodes()))
        assert len(head.label_owners) == total_nodes - head.collisions


class TestCheckout:
    def test_checkout_restores_labels(self, versioned):
        before = versioned.ldoc.labels_in_document_order()
        root = versioned.ldoc.document.root
        versioned.ldoc.updates.append_child(root, "later")
        versioned.commit("add later")
        past = versioned.checkout(0)
        assert past.labels_in_document_order() == before
        past.verify_order()

    def test_checkout_rebuilds_configured_scheme(self):
        """The revision records the scheme kwargs, so checkout must not
        fall back to a default-configured scheme of the same name."""
        from repro.schemes.registry import make_scheme
        from repro.updates.document import LabeledDocument
        from repro.xmlmodel.parser import parse

        ldoc = LabeledDocument(
            parse(DOCUMENT), make_scheme("dewey", component_bits=4)
        )
        versioned = VersionedDocument(ldoc)
        past = versioned.checkout(0)
        assert past.scheme.configuration == {"component_bits": 4}
        assert past.scheme.component_bits == 4
        assert past.labels_in_document_order() == (
            ldoc.labels_in_document_order()
        )

    def test_checkout_refuses_a_stream_that_does_not_fit(self, versioned):
        # Checkout restores a snapshot: six labels for a five-node text
        # are refused, not zipped onto the nodes.
        versioned.ldoc.updates.append_child(
            versioned.ldoc.document.root, "e")
        later = versioned.commit("add e")
        versioned.revisions[0] = dataclasses.replace(
            versioned.revisions[0], label_stream=later.label_stream)
        with pytest.raises(SnapshotMismatchError):
            versioned.checkout(0)

    def test_checkout_is_independent(self, versioned):
        past = versioned.checkout(0)
        past.updates.append_child(past.document.root, "scratch")
        # The live document is untouched.
        assert all(
            node.name != "scratch"
            for node in versioned.ldoc.document.labeled_nodes()
        )


class TestAnnotations:
    def test_annotation_survives_edits_under_persistent_scheme(self, versioned):
        target = versioned.ldoc.document.root.element_children()[1]  # <b>
        versioned.annotate(target, "review this")
        for _ in range(5):
            versioned.ldoc.updates.prepend_child(
                versioned.ldoc.document.root, "noise"
            )
        versioned.commit("heavy editing")
        intact, broken = versioned.annotation_integrity()
        assert (intact, broken) == (1, 0)
        resolved = versioned.resolve_annotation(versioned.annotations[0])
        assert resolved is target

    def test_annotation_breaks_under_shifting_scheme(self):
        versioned = VersionedDocument.from_xml(DOCUMENT, scheme="dewey")
        target = versioned.ldoc.document.root.element_children()[1]
        versioned.annotate(target, "review this")
        versioned.ldoc.updates.prepend_child(
            versioned.ldoc.document.root, "noise")
        intact, broken = versioned.annotation_integrity()
        assert broken == 1

    def test_annotation_lost_after_delete(self, versioned):
        target = versioned.ldoc.document.root.element_children()[0]
        versioned.annotate(target, "gone soon")
        versioned.ldoc.updates.delete(target)
        intact, broken = versioned.annotation_integrity()
        assert (intact, broken) == (0, 1)


class TestDiffs:
    def test_added_and_removed_labels(self, versioned):
        root = versioned.ldoc.document.root
        first = root.element_children()[0]
        versioned.ldoc.updates.delete(first)
        added_node = versioned.ldoc.updates.append_child(root, "fresh").node
        versioned.commit("churn")
        diff = versioned.diff(0, 1)
        assert versioned.ldoc.format_label(added_node) in diff.added
        assert len(diff.removed) == 1
        assert diff.stable  # QED: surviving labels never move

    def test_stability_counts_reassignments(self):
        versioned = VersionedDocument.from_xml(DOCUMENT, scheme="dewey")
        versioned.ldoc.updates.prepend_child(
            versioned.ldoc.document.root, "front")
        versioned.commit("shift everything")
        # DeweyID shifted the existing children onto new owners.
        assert versioned.label_stability(0, 1) > 0

    def test_persistent_scheme_is_stable_across_many_commits(self, versioned):
        root = versioned.ldoc.document.root
        for index in range(4):
            versioned.ldoc.updates.prepend_child(root, f"gen{index}")
            versioned.commit(f"edit {index}")
        assert versioned.label_stability(0, versioned.head.number) == 0
