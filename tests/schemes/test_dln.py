"""DLN specifics: sub-level insertion and fixed-width overflow."""

import pytest

from conftest import label_sequence, labeled
from repro.data.sample import figure3_tree, sample_document
from repro.schemes.prefix.dln import DLNScheme
from repro.updates.workloads import skewed_insertions


class TestRendering:
    def test_initial_labels_look_like_dewey(self):
        ldoc = labeled(figure3_tree(), "dln")
        assert label_sequence(ldoc)[:4] == ["1", "1.1", "1.1.1", "1.1.2"]

    def test_sublevels_render_with_slashes(self):
        ldoc = labeled(figure3_tree(), "dln")
        children = ldoc.document.root.element_children()
        node = ldoc.updates.insert_after(children[0], "wedge").node
        assert "/" in ldoc.format_label(node)


class TestSublevelInsertion:
    def setup_method(self):
        self.scheme = DLNScheme()

    def test_between_top_values(self):
        assert self.scheme.component_between((3,), (4,)) == (3, 1)

    def test_between_prefix_and_extension(self):
        result = self.scheme.component_between((3,), (3, 1))
        assert (3,) < result < (3, 1)

    def test_descending_chain_stays_ordered(self):
        left, right = (3,), (4,)
        current = left
        for _ in range(6):
            current = self.scheme.component_between(current, right)
            assert left < current < right

    def test_before_first_uses_sublevel(self):
        assert self.scheme.component_before((1,)) == (0, 1)
        assert self.scheme.component_before((0, 1)) == (-1, 1)

    def test_after_last_increments_top(self):
        assert self.scheme.component_after((7,)) == (8,)
        assert self.scheme.component_after((7, 3)) == (8,)


class TestFixedWidthOverflow:
    def test_sublevel_depth_overflows(self):
        ldoc = labeled(sample_document(), "dln", max_sublevels=3)
        result = skewed_insertions(ldoc, 30)
        assert result.overflow_events >= 1
        ldoc.verify_order()

    def test_subvalue_width_overflows(self):
        ldoc = labeled(sample_document(), "dln", subvalue_bits=4)
        # Appending more children than 4 bits can number.
        root = ldoc.document.root
        for _ in range(20):
            ldoc.updates.append_child(root, "tail")
        assert ldoc.log.overflow_events >= 1
        ldoc.verify_order()

    def test_fixed_size_model(self):
        scheme = DLNScheme(subvalue_bits=8, max_sublevels=8)
        # Every component slot costs the full fixed allocation.
        assert scheme.component_size_bits((3,)) == 64
        assert scheme.component_size_bits((3, 1, 2)) == 64
