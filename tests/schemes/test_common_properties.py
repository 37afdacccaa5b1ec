"""Cross-scheme properties: every scheme, same contracts.

Definition 1 requires unique labels that decide document order; these
tests enforce it for all seventeen implemented schemes across bulk
labelling, every insertion kind, deletions, subtree insertion and
randomised update programs (hypothesis).  Schemes answer relationship
queries only where their Figure 7 row claims support, and those answers
must match the tree oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    COLLIDING_SCHEMES,
    FULL_XPATH_SCHEMES,
    PERSISTENT_SCHEMES,
    all_scheme_names,
    document_pairs,
    fresh_random_document,
    labeled,
)
from repro.axes.relationships import Relationship, supported_relationships
from repro.data.sample import sample_document
from repro.errors import UnsupportedRelationshipError
from repro.updates.operations import Operation, OpKind, apply_program
from repro.xmlmodel.builder import tree_from_shape, wide_tree

ALL_SCHEMES = all_scheme_names()


@pytest.mark.parametrize("name", ALL_SCHEMES)
class TestBulkLabelling:
    def test_every_labeled_node_gets_a_label(self, name, sample):
        ldoc = labeled(sample, name)
        assert set(ldoc.labels) == {
            node.node_id for node in sample.labeled_nodes()
        }

    def test_labels_unique_and_ordered(self, name, sample):
        labeled(sample, name).verify_order()

    def test_random_document_ordered(self, name):
        labeled(fresh_random_document(90, seed=21), name).verify_order()

    def test_wide_document_ordered(self, name):
        labeled(wide_tree(40), name).verify_order()

    def test_deep_document_ordered(self, name):
        shape = None
        for _ in range(9):
            shape = [shape]
        labeled(tree_from_shape([shape]), name).verify_order()

    def test_compare_is_reflexive_and_antisymmetric(self, name, sample):
        ldoc = labeled(sample, name)
        values = ldoc.labels_in_document_order()
        for value in values:
            assert ldoc.scheme.compare(value, value) == 0
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert ldoc.scheme.compare(a, b) == -ldoc.scheme.compare(b, a)

    def test_format_label_is_a_string(self, name, sample):
        ldoc = labeled(sample, name)
        for node in sample.labeled_nodes():
            assert isinstance(ldoc.format_label(node), str)

    def test_label_sizes_positive(self, name, sample):
        ldoc = labeled(sample, name)
        root_id = sample.root.node_id
        for node_id, label in ldoc.labels.items():
            size = ldoc.scheme.label_size_bits(label)
            if node_id == root_id:
                # Some prefix schemes give the root the empty path.
                assert size >= 0
            else:
                assert size > 0


@pytest.mark.parametrize("name", ALL_SCHEMES)
class TestRelationshipOracle:
    def test_claimed_relationships_match_oracle(self, name, sample):
        """Whatever a scheme answers must agree with tree pointers."""
        ldoc = labeled(sample, name)
        scheme = ldoc.scheme
        for first, second in document_pairs(sample):
            la, lb = ldoc.label_of(first), ldoc.label_of(second)
            try:
                assert scheme.is_ancestor(la, lb) == first.is_ancestor_of(second)
            except UnsupportedRelationshipError:
                pass
            try:
                assert scheme.is_parent(la, lb) == (second.parent is first)
            except UnsupportedRelationshipError:
                pass
            try:
                expected = (
                    first.parent is not None
                    and first.parent is second.parent
                )
                assert scheme.is_sibling(la, lb) == expected
            except UnsupportedRelationshipError:
                pass

    def test_level_matches_depth_where_supported(self, name, sample):
        ldoc = labeled(sample, name)
        try:
            for node in sample.labeled_nodes():
                assert ldoc.scheme.level(ldoc.label_of(node)) == node.depth()
        except UnsupportedRelationshipError:
            pass


@pytest.mark.parametrize("name", FULL_XPATH_SCHEMES)
def test_full_xpath_schemes_support_all_relationships(name):
    supported = supported_relationships(
        labeled(sample_document(), name).scheme, sample_document()
    )
    assert supported == set(Relationship)


@pytest.mark.parametrize("name", ALL_SCHEMES)
class TestInsertions:
    def test_each_insertion_kind_keeps_order(self, name, sample):
        ldoc = labeled(sample, name)
        root = ldoc.document.root
        children = root.element_children()
        ldoc.updates.prepend_child(root, "front")
        ldoc.verify_order()
        ldoc.updates.append_child(root, "back")
        ldoc.verify_order()
        ldoc.updates.insert_before(children[1], "mid-left")
        ldoc.verify_order()
        ldoc.updates.insert_after(children[1], "mid-right")
        ldoc.verify_order()
        ldoc.updates.insert_attribute(children[0], "k", "v")
        ldoc.verify_order()

    def test_insert_under_leaf(self, name, sample):
        ldoc = labeled(sample, name)
        leaf = next(
            node for node in sample.labeled_nodes()
            if node.is_element and not node.labeled_children()
        )
        ldoc.updates.append_child(leaf, "first-child")
        ldoc.verify_order()

    def test_subtree_insertion(self, name, sample):
        from repro.updates.operations import adopt_subtree

        ldoc = labeled(sample, name)
        root = ldoc.document.root
        adopt_subtree(ldoc, root, len(root.children),
                      "<appendix><note>n1</note><note>n2</note></appendix>")
        ldoc.verify_order()
        names = [n.name for n in ldoc.document.labeled_nodes()]
        assert names[-3:] == ["appendix", "note", "note"]


@pytest.mark.parametrize("name", ALL_SCHEMES)
class TestDeletions:
    def test_delete_leaf_keeps_order(self, name, sample):
        ldoc = labeled(sample, name)
        leaf = next(
            node for node in sample.labeled_nodes()
            if node.is_element and not node.labeled_children()
            and node.parent is not None
        )
        ldoc.updates.delete(leaf)
        ldoc.verify_order()
        assert leaf.node_id not in ldoc.labels

    def test_delete_subtree_removes_all_labels(self, name, sample):
        ldoc = labeled(sample, name)
        publisher = next(
            node for node in sample.labeled_nodes() if node.name == "publisher"
        )
        removed = [n.node_id for n in publisher.preorder() if n.kind.is_labeled]
        ldoc.updates.delete(publisher)
        ldoc.verify_order()
        assert not any(node_id in ldoc.labels for node_id in removed)

    def test_insert_after_delete(self, name, sample):
        ldoc = labeled(sample, name)
        author = next(
            node for node in sample.labeled_nodes() if node.name == "author"
        )
        ldoc.updates.delete(author)
        ldoc.updates.append_child(ldoc.document.root, "replacement")
        ldoc.verify_order()


@pytest.mark.parametrize("name", PERSISTENT_SCHEMES)
class TestPersistence:
    def test_insertions_never_touch_existing_labels(self, name, sample):
        ldoc = labeled(sample, name)
        snapshot = dict(ldoc.labels)
        root = ldoc.document.root
        children = root.element_children()
        for _ in range(25):
            ldoc.updates.insert_before(children[-1], "skew")
        ldoc.updates.prepend_child(root, "front")
        ldoc.updates.append_child(root, "back")
        for node_id, label in snapshot.items():
            assert ldoc.labels[node_id] == label
        assert ldoc.log.relabeled_nodes == 0

    def test_deletion_never_touches_remaining_labels(self, name, sample):
        ldoc = labeled(sample, name)
        author = next(
            node for node in sample.labeled_nodes() if node.name == "author"
        )
        snapshot = {
            node_id: label for node_id, label in ldoc.labels.items()
            if node_id != author.node_id
        }
        ldoc.updates.delete(author)
        assert ldoc.labels == snapshot


#: Compact operation programs for the hypothesis sweep.
operations = st.lists(
    st.builds(
        Operation,
        kind=st.sampled_from([
            OpKind.INSERT_BEFORE, OpKind.INSERT_AFTER,
            OpKind.APPEND_CHILD, OpKind.PREPEND_CHILD, OpKind.DELETE,
        ]),
        target=st.integers(min_value=0, max_value=40),
        name=st.sampled_from(["alpha", "beta", "gamma"]),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize(
    "name",
    [n for n in ALL_SCHEMES if n not in COLLIDING_SCHEMES],
)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(program=operations)
def test_random_update_programs_preserve_order(name, program):
    """Definition 1 survives arbitrary structural update programs."""
    ldoc = labeled(sample_document(), name)
    apply_program(ldoc, program)
    ldoc.verify_order()
    ldoc.document.validate()
