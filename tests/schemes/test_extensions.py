"""Extension schemes: Cohen bit-codes, DDE, Prime (survey sections 3/6)."""

import pytest

from conftest import label_sequence, labeled
from repro.data.sample import sample_document
from repro.schemes.prefix.cohen import CohenScheme
from repro.schemes.prefix.dde import DDEScheme
from repro.schemes.prime.prime import PrimeScheme, primes
from repro.updates.workloads import skewed_insertions
from repro.xmlmodel.builder import wide_tree


class TestCohen:
    def test_one_bit_growth_codes(self):
        scheme = CohenScheme(growth=1)
        assert scheme.initial_child_components(4) == ["0", "10", "110", "1110"]

    def test_double_bit_growth_codes(self):
        scheme = CohenScheme(growth=2)
        assert scheme.initial_child_components(3) == ["00", "1100", "111100"]

    def test_codes_are_ordered(self):
        scheme = CohenScheme()
        codes = scheme.initial_child_components(10)
        assert codes == sorted(codes)

    def test_append_does_not_relabel(self):
        ldoc = labeled(sample_document(), "cohen")
        ldoc.updates.append_child(ldoc.document.root, "tail")
        assert ldoc.log.relabeled_nodes == 0
        ldoc.verify_order()

    def test_middle_insert_relabels(self):
        # The reason the survey excludes the scheme from Figure 7.
        ldoc = labeled(sample_document(), "cohen")
        anchor = ldoc.document.root.element_children()[0]
        ldoc.updates.insert_before(anchor, "front")
        assert ldoc.log.relabel_events == 1
        ldoc.verify_order()

    def test_label_sizes_grow_linearly_with_position(self):
        # "significant label sizes ... for even modest document sizes"
        ldoc = labeled(wide_tree(50), "cohen")
        sizes = [
            ldoc.scheme.label_size_bits(v)
            for v in ldoc.labels_in_document_order()
        ]
        assert sizes[-1] > sizes[1] + 40

    def test_invalid_growth_rejected(self):
        with pytest.raises(Exception):
            CohenScheme(growth=3)


class TestDDE:
    def test_unupdated_labels_print_like_dewey(self):
        from repro.data.sample import figure3_tree, FIGURE_3_DEWEY_LABELS

        ldoc = labeled(figure3_tree(), "dde")
        assert label_sequence(ldoc) == FIGURE_3_DEWEY_LABELS

    def test_mediant_insertion_never_relabels(self):
        ldoc = labeled(sample_document(), "dde")
        result = skewed_insertions(ldoc, 100)
        assert result.relabel_events == 0
        ldoc.verify_order()

    def test_updated_components_render_as_fractions(self):
        ldoc = labeled(sample_document(), "dde")
        children = ldoc.document.root.element_children()
        node = ldoc.updates.insert_after(children[0], "frac").node
        assert "/" in ldoc.format_label(node)

    def test_no_divisions(self):
        ldoc = labeled(sample_document(), "dde")
        skewed_insertions(ldoc, 30)
        assert ldoc.scheme.instruments.divisions == 0

    def test_full_relationships(self):
        ldoc = labeled(sample_document(), "dde")
        nodes = {n.name: n for n in ldoc.document.labeled_nodes()}
        assert ldoc.scheme.is_parent(
            ldoc.label_of(nodes["editor"]), ldoc.label_of(nodes["name"])
        )
        assert ldoc.scheme.is_sibling(
            ldoc.label_of(nodes["name"]), ldoc.label_of(nodes["address"])
        )
        assert ldoc.scheme.level(ldoc.label_of(nodes["name"])) == 3


class TestPrime:
    def test_prime_generator(self):
        source = primes()
        assert [next(source) for _ in range(8)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_ancestor_by_divisibility(self):
        ldoc = labeled(sample_document(), "prime")
        nodes = {n.name: n for n in ldoc.document.labeled_nodes()}
        book = ldoc.label_of(nodes["book"])
        name = ldoc.label_of(nodes["name"])
        assert ldoc.scheme.is_ancestor(book, name)
        assert name.product % book.product == 0
        assert not ldoc.scheme.is_ancestor(name, book)

    def test_parent_divides_out_own_prime(self):
        ldoc = labeled(sample_document(), "prime")
        nodes = {n.name: n for n in ldoc.document.labeled_nodes()}
        editor = ldoc.label_of(nodes["editor"])
        name = ldoc.label_of(nodes["name"])
        assert ldoc.scheme.is_parent(editor, name)
        assert name.product == editor.product * name.self_prime

    def test_sibling_same_parent_product(self):
        ldoc = labeled(sample_document(), "prime")
        nodes = {n.name: n for n in ldoc.document.labeled_nodes()}
        assert ldoc.scheme.is_sibling(
            ldoc.label_of(nodes["name"]), ldoc.label_of(nodes["address"])
        )

    def test_insert_renumbers_sc_table(self):
        # The SC (simultaneous congruence) order keys shift for every
        # node after the insertion point — the scheme's update weakness.
        ldoc = labeled(sample_document(), "prime")
        ldoc.updates.prepend_child(ldoc.document.root, "front")
        assert ldoc.log.relabeled_nodes >= 9
        ldoc.verify_order()

    def test_products_stay_stable_across_sc_renumbering(self):
        ldoc = labeled(sample_document(), "prime")
        nodes = {n.name: n for n in ldoc.document.labeled_nodes()}
        before = ldoc.label_of(nodes["name"]).product
        ldoc.updates.prepend_child(ldoc.document.root, "front")
        assert ldoc.label_of(nodes["name"]).product == before
