"""ORDPATH tests, including the Figure 4 labels and careting rules."""

import pytest

from conftest import label_sequence, labeled
from repro.data.sample import (
    FIGURE_4_INITIAL_ORDPATH_LABELS,
    FIGURE_4_INSERTED,
    figure_tree,
)
from repro.errors import InvalidLabelError
from repro.schemes.prefix.ordpath import (
    OrdpathScheme,
    component_bits,
    parse_label,
    validate_group,
)


class TestFigure4:
    def test_initial_labels(self):
        ldoc = labeled(figure_tree(), "ordpath")
        assert label_sequence(ldoc) == FIGURE_4_INITIAL_ORDPATH_LABELS

    def test_inserted_labels_match_figure(self):
        ldoc = labeled(figure_tree(), "ordpath")
        children = ldoc.document.root.element_children()
        node_11, node_13, node_15 = children

        before = ldoc.updates.prepend_child(node_11, "new").node
        assert ldoc.format_label(before) == FIGURE_4_INSERTED[
            "before_first_under_1.1"
        ]

        after = ldoc.updates.append_child(node_13, "new").node
        assert ldoc.format_label(after) == FIGURE_4_INSERTED[
            "after_last_under_1.3"
        ]

        grandchildren = node_15.element_children()
        caret = ldoc.updates.insert_after(grandchildren[0], "new").node
        assert ldoc.format_label(caret) == FIGURE_4_INSERTED[
            "between_1.5.1_and_1.5.3"
        ]
        assert ldoc.log.relabeled_nodes == 0
        ldoc.verify_order()


class TestGroups:
    def test_validate_group_accepts_caret_groups(self):
        validate_group((1,))
        validate_group((2, 1))
        validate_group((2, -4, 7))

    @pytest.mark.parametrize("bad", [(), (2,), (1, 3), (2, 2)])
    def test_validate_group_rejects(self, bad):
        with pytest.raises(InvalidLabelError):
            validate_group(bad)

    def test_parse_label_round_trip(self):
        scheme = OrdpathScheme()
        label = parse_label("1.5.2.1")
        assert label == ((1,), (5,), (2, 1))
        assert scheme.format_label(label) == "1.5.2.1"

    def test_parse_label_rejects_dangling_caret(self):
        with pytest.raises(InvalidLabelError):
            parse_label("1.2")

    def test_level_counts_odd_components(self):
        scheme = OrdpathScheme()
        assert scheme.level(parse_label("1")) == 0
        assert scheme.level(parse_label("1.5")) == 1
        assert scheme.level(parse_label("1.5.2.1")) == 2

    def test_caret_node_parent_is_ordinary_node(self):
        # "1.5.2.1" is a child of "1.5", not of a phantom "1.5.2".
        scheme = OrdpathScheme()
        assert scheme.is_parent(parse_label("1.5"), parse_label("1.5.2.1"))
        assert scheme.is_sibling(parse_label("1.5.1"), parse_label("1.5.2.1"))


class TestCareting:
    def setup_method(self):
        self.scheme = OrdpathScheme()

    def test_midpoint_odd_available(self):
        assert self.scheme.component_between((1,), (5,)) == (3,)

    def test_consecutive_odds_caret_in(self):
        assert self.scheme.component_between((1,), (3,)) == (2, 1)

    def test_descend_into_left_caret(self):
        result = self.scheme.component_between((2, 1), (3,))
        assert (2, 1) < result < (3,)

    def test_descend_into_right_caret(self):
        result = self.scheme.component_between((1,), (2, 1))
        assert (1,) < result < (2, 1)

    def test_negative_components(self):
        result = self.scheme.component_between((-3,), (-1,))
        assert (-3,) < result < (-1,)
        validate_group(result)

    def test_division_is_counted(self):
        self.scheme.instruments.reset()
        self.scheme.component_between((1,), (9,))
        assert self.scheme.instruments.divisions == 1

    def test_repeated_caret_chain_stays_ordered(self):
        left, right = (1,), (3,)
        current = left
        previous = left
        for _ in range(60):
            current = self.scheme.component_between(previous, right)
            assert previous < current < right
            validate_group(current)
            previous = current


class TestStorage:
    def test_component_bits_ladder(self):
        # bucket prefix + sign bit + payload
        assert component_bits(0) == 3 + 1 + 3
        assert component_bits(7) == 7
        assert component_bits(8) == 4 + 1 + 6
        assert component_bits(-8) == 11
        assert component_bits(1 << 13) == 6 + 1 + 24

    def test_bucket_exhaustion_raises(self):
        from repro.errors import OverflowEvent

        with pytest.raises(OverflowEvent):
            component_bits(1 << 100)

    def test_tight_buckets_force_relabel(self):
        ldoc = labeled(figure_tree(), "ordpath", max_magnitude=15)
        anchor = ldoc.document.root.element_children()[-1]
        for _ in range(40):
            ldoc.updates.insert_before(anchor, "skew")
        assert ldoc.log.overflow_events >= 1
        ldoc.verify_order()
