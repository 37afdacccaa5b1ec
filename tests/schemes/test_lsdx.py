"""LSDX (and Com-D) tests: Figure 5 labels, collisions, reassignment."""

import pytest

from conftest import label_sequence, labeled
from repro.data.sample import (
    FIGURE_5_INITIAL_LSDX_LABELS,
    FIGURE_5_INSERTED,
    figure_tree,
)
from repro.errors import LabelCollisionError
from repro.schemes.prefix.comd import compress, decompress
from repro.schemes.prefix.lsdx import LSDXScheme, increment_letters
from repro.updates.document import LabeledDocument


class TestFigure5:
    def test_initial_labels(self):
        ldoc = labeled(figure_tree(), "lsdx")
        assert label_sequence(ldoc) == FIGURE_5_INITIAL_LSDX_LABELS

    def test_inserted_labels_match_figure(self):
        ldoc = labeled(figure_tree(), "lsdx")
        children = ldoc.document.root.element_children()
        node_b, node_c, node_d = children

        before = ldoc.updates.prepend_child(node_b, "new").node
        assert ldoc.format_label(before) == FIGURE_5_INSERTED[
            "before_first_under_1a.b"
        ]

        after = ldoc.updates.append_child(node_c, "new").node
        assert ldoc.format_label(after) == FIGURE_5_INSERTED[
            "after_last_under_1a.c"
        ]

        grand = node_d.element_children()
        between = ldoc.updates.insert_after(grand[0], "new").node
        assert ldoc.format_label(between) == FIGURE_5_INSERTED[
            "between_2ad.b_and_2ad.c"
        ]
        ldoc.verify_order()


class TestIncrementRule:
    @pytest.mark.parametrize("position,expected", [
        ("b", "c"), ("y", "z"), ("z", "zb"), ("zz", "zzb"), ("az", "azb"),
        ("cb", "cc"),
    ])
    def test_increment(self, position, expected):
        assert increment_letters(position) == expected

    def test_bulk_sequence(self):
        scheme = LSDXScheme()
        components = scheme.initial_child_components(27)
        assert components[0] == "b"
        assert components[24] == "z"
        assert components[25] == "zb"
        assert components == sorted(components)


class TestDocumentedCollisions:
    def test_between_z_and_zb_collides(self):
        # The Sans & Laurent [19] corner case: both published rules land
        # exactly on the right neighbour.
        scheme = LSDXScheme()
        assert scheme.component_between("z", "zb") == "zb"

    def test_collision_detected_by_document(self):
        doc_scheme = LSDXScheme()
        from repro.xmlmodel.builder import wide_tree

        ldoc = LabeledDocument(wide_tree(25), doc_scheme)  # last child is z
        children = ldoc.document.root.element_children()
        last = children[-1]
        appended = ldoc.updates.append_child(
            ldoc.document.root, "tail").node  # zb
        assert ldoc.format_label(appended).endswith("zb")
        with pytest.raises(LabelCollisionError):
            # Between z and zb -> zb again.
            ldoc.updates.insert_after(last, "boom")

    def test_collision_recorded_when_configured(self):
        from repro.xmlmodel.builder import wide_tree

        ldoc = LabeledDocument(
            wide_tree(25), LSDXScheme(), on_collision="record"
        )
        children = ldoc.document.root.element_children()
        ldoc.updates.append_child(ldoc.document.root, "tail")
        ldoc.updates.insert_after(children[-1], "boom")
        assert ldoc.log.collisions == 1


class TestDeletionReassignment:
    def test_labels_reassigned_after_delete(self):
        # "labels are not persistent and may be reassigned upon deletion"
        ldoc = labeled(figure_tree(), "lsdx")
        children = ldoc.document.root.element_children()
        middle_label = ldoc.format_label(children[1])
        ldoc.updates.delete(children[1])
        assert ldoc.log.relabeled_nodes > 0
        # The freed letter is reused by the compacted following sibling.
        remaining = [
            ldoc.format_label(n) for n in ldoc.document.labeled_nodes()
        ]
        assert middle_label in remaining
        ldoc.verify_order()

    def test_reassignment_can_be_disabled(self):
        ldoc = labeled(figure_tree(), "lsdx", reassign_on_delete=False)
        children = ldoc.document.root.element_children()
        ldoc.updates.delete(children[1])
        assert ldoc.log.relabeled_nodes == 0
        ldoc.verify_order()


class TestComD:
    def test_paper_compression_example(self):
        # Section 3.1.2's worked example, digit for digit.
        assert compress("aaaaabcbcbcdddde") == "5a3(bc)4de"

    def test_decompress_inverts(self):
        for raw in ("aaaaabcbcbcdddde", "b", "zzzz", "abcabcabc", "zb"):
            assert decompress(compress(raw)) == raw

    def test_comd_orders_like_lsdx(self):
        lsdx = labeled(figure_tree(), "lsdx")
        comd = labeled(figure_tree(), "comd")
        assert [tuple(v) for v in lsdx.labels_in_document_order()] == [
            tuple(v) for v in comd.labels_in_document_order()
        ]

    def test_comd_compresses_repetitive_labels(self):
        from repro.schemes.prefix.comd import ComDScheme

        scheme = ComDScheme()
        long_component = "a" * 20 + "b"
        plain = LSDXScheme()
        assert scheme.component_size_bits(long_component) < (
            plain.component_size_bits(long_component)
        )

    def test_comd_rendering_uses_compressed_form(self):
        from repro.schemes.prefix.comd import ComDScheme

        scheme = ComDScheme()
        assert "5a" in scheme.format_component("aaaaab")
