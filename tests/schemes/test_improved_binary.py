"""ImprovedBinary tests, including the Figure 6 labels."""

from conftest import label_sequence, labeled
from repro.data.sample import (
    FIGURE_6_INITIAL_LABELS,
    FIGURE_6_INSERTED,
    FIGURE_6_SHAPE,
)
from repro.schemes.prefix.improved_binary import ImprovedBinaryScheme
from repro.xmlmodel.builder import tree_from_shape


def figure6_document():
    return tree_from_shape(FIGURE_6_SHAPE)


class TestFigure6:
    def test_initial_labels(self):
        ldoc = labeled(figure6_document(), "improved-binary")
        assert label_sequence(ldoc) == FIGURE_6_INITIAL_LABELS

    def test_inserted_labels_match_figure(self):
        ldoc = labeled(figure6_document(), "improved-binary")
        children = ldoc.document.root.element_children()
        node_01, node_0101, node_011 = children

        before = ldoc.updates.prepend_child(node_0101, "new").node
        assert ldoc.format_label(before) == FIGURE_6_INSERTED[
            "before_first_under_0101"
        ]

        after = ldoc.updates.append_child(node_0101, "new").node
        assert ldoc.format_label(after) == FIGURE_6_INSERTED[
            "after_last_under_0101"
        ]

        grand = node_011.element_children()
        between = ldoc.updates.insert_after(grand[0], "new").node
        assert ldoc.format_label(between) == FIGURE_6_INSERTED[
            "between_011.01_and_011.011"
        ]

        root_new_1 = ldoc.updates.insert_after(node_01, "new").node
        assert ldoc.format_label(root_new_1) == FIGURE_6_INSERTED[
            "between_root_children_01_and_0101"
        ]

        root_new_2 = ldoc.updates.insert_after(node_0101, "new").node
        assert ldoc.format_label(root_new_2) == FIGURE_6_INSERTED[
            "between_root_children_0101_and_011"
        ]

        assert ldoc.log.relabeled_nodes == 0
        ldoc.verify_order()


class TestPublishedAlgorithm:
    def test_bulk_uses_recursion_and_division(self):
        scheme = ImprovedBinaryScheme()
        scheme.instruments.reset()
        scheme.initial_child_components(9)
        assert scheme.instruments.recursions > 0
        assert scheme.instruments.divisions > 0

    def test_bulk_matches_reference(self):
        from repro.labels.bitstring import initial_codes

        scheme = ImprovedBinaryScheme()
        for count in (1, 2, 3, 4, 5, 8, 13):
            assert scheme.initial_child_components(count) == initial_codes(count)

    def test_one_bit_growth_under_one_sided_insertion(self):
        # "repeated insertions before the first sibling node and after
        # the last sibling node has a bit-growth rate of 1"
        ldoc = labeled(figure6_document(), "improved-binary")
        root = ldoc.document.root
        sizes = []
        for _ in range(10):
            node = ldoc.updates.append_child(root, "tail").node
            sizes.append(len(ldoc.label_of(node)[-1]))
        deltas = [b - a for a, b in zip(sizes, sizes[1:])]
        assert all(delta == 1 for delta in deltas)

    def test_overflow_of_length_field(self):
        ldoc = labeled(
            figure6_document(), "improved-binary", length_field_bits=4
        )
        root = ldoc.document.root
        for _ in range(30):
            ldoc.updates.append_child(root, "tail")
        assert ldoc.log.overflow_events >= 1
        ldoc.verify_order()

    def test_no_relabeling_under_mixed_insertions(self):
        ldoc = labeled(figure6_document(), "improved-binary")
        root = ldoc.document.root
        anchor = root.element_children()[1]
        for _ in range(20):
            ldoc.updates.insert_before(anchor, "mid")
        assert ldoc.log.relabeled_nodes == 0
