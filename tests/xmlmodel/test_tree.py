"""Unit tests for the ordered tree model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TreeStructureError
from repro.xmlmodel.tree import Document, NodeKind, walk
from update_programs import DOCUMENT_XML, programs, run_program


def small_document():
    doc = Document()
    root = doc.new_element("root")
    doc.set_root(root)
    first = doc.new_element("first")
    second = doc.new_element("second")
    root.append_child(first)
    root.append_child(second)
    first.append_child(doc.new_text("hello"))
    return doc, root, first, second


class TestNodeBasics:
    def test_node_ids_are_unique_and_increasing(self):
        doc = Document()
        nodes = [doc.new_element(f"n{i}") for i in range(5)]
        ids = [node.node_id for node in nodes]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_element_requires_name(self):
        doc = Document()
        with pytest.raises(TreeStructureError):
            doc.new_node(NodeKind.ELEMENT)

    def test_attribute_requires_name(self):
        doc = Document()
        with pytest.raises(TreeStructureError):
            doc.new_node(NodeKind.ATTRIBUTE)

    def test_kind_predicates(self):
        doc = Document()
        assert doc.new_element("e").is_element
        assert doc.new_attribute("a", "v").is_attribute
        assert doc.new_text("t").is_text

    def test_labeled_kinds(self):
        assert NodeKind.ELEMENT.is_labeled
        assert NodeKind.ATTRIBUTE.is_labeled
        assert not NodeKind.TEXT.is_labeled
        assert not NodeKind.COMMENT.is_labeled
        assert not NodeKind.PROCESSING_INSTRUCTION.is_labeled


class TestStructure:
    def test_depth(self):
        doc, root, first, second = small_document()
        assert root.depth() == 0
        assert first.depth() == 1
        grand = doc.new_element("grand")
        first.append_child(grand)
        assert grand.depth() == 2

    def test_ancestors_and_oracle(self):
        doc, root, first, second = small_document()
        grand = doc.new_element("grand")
        first.append_child(grand)
        assert [a.name for a in grand.ancestors()] == ["first", "root"]
        assert root.is_ancestor_of(grand)
        assert first.is_ancestor_of(grand)
        assert not second.is_ancestor_of(grand)
        assert not grand.is_ancestor_of(root)

    def test_child_index_and_siblings(self):
        doc, root, first, second = small_document()
        assert root.child_index(first) == 0
        assert root.child_index(second) == 1
        assert list(first.following_siblings()) == [second]
        assert list(second.preceding_siblings()) == [first]

    def test_child_index_of_non_child_raises(self):
        doc, root, first, second = small_document()
        stranger = doc.new_element("stranger")
        with pytest.raises(TreeStructureError):
            root.child_index(stranger)

    def test_text_value_concatenates(self):
        doc = Document()
        root = doc.new_element("r")
        doc.set_root(root)
        root.append_child(doc.new_text("a"))
        root.append_child(doc.new_element("x"))
        root.append_child(doc.new_text("b"))
        assert root.text_value() == "ab"

    def test_attribute_lookup(self):
        doc = Document()
        root = doc.new_element("r")
        doc.set_root(root)
        root.append_child(doc.new_attribute("id", "1"))
        assert root.attribute("id").value == "1"
        assert root.attribute("missing") is None


class TestTraversal:
    def test_preorder_is_document_order(self):
        doc, root, first, second = small_document()
        names = [n.name or "text" for n in root.preorder()]
        assert names == ["root", "first", "text", "second"]

    def test_postorder(self):
        doc, root, first, second = small_document()
        names = [n.name or "text" for n in root.postorder()]
        assert names == ["text", "first", "second", "root"]

    def test_descendants_excludes_self(self):
        doc, root, first, second = small_document()
        assert root not in list(root.descendants())
        assert first in list(root.descendants())

    def test_subtree_size(self):
        doc, root, *_ = small_document()
        assert root.subtree_size() == 4

    def test_walk_depths(self):
        doc, root, *_ = small_document()
        seen = []
        walk(root, lambda node, depth: seen.append(depth))
        assert seen == [0, 1, 2, 1]


class TestMutation:
    def test_insert_child_positions(self):
        doc, root, first, second = small_document()
        middle = doc.new_element("middle")
        root.insert_child(1, middle)
        assert [c.name for c in root.children] == ["first", "middle", "second"]

    def test_insert_child_bad_index(self):
        doc, root, *_ = small_document()
        with pytest.raises(TreeStructureError):
            root.insert_child(9, doc.new_element("x"))

    def test_remove_child_detaches(self):
        doc, root, first, second = small_document()
        root.remove_child(first)
        assert first.parent is None
        assert [c.name for c in root.children] == ["second"]

    def test_cannot_adopt_attached_node(self):
        doc, root, first, second = small_document()
        with pytest.raises(TreeStructureError):
            second.append_child(first)

    def test_cycle_rejected(self):
        doc, root, first, second = small_document()
        detached_root = root
        with pytest.raises(TreeStructureError):
            first.append_child(detached_root)

    def test_cross_document_rejected(self):
        doc, root, *_ = small_document()
        other = Document()
        with pytest.raises(TreeStructureError):
            root.append_child(other.new_element("alien"))

    def test_text_cannot_have_children(self):
        doc, root, first, second = small_document()
        text = first.children[0]
        with pytest.raises(TreeStructureError):
            text.append_child(doc.new_element("x"))

    def test_attribute_must_precede_content(self):
        doc, root, first, second = small_document()
        with pytest.raises(TreeStructureError):
            root.append_child(doc.new_attribute("late", "v"))
        # Inserting at the front is fine.
        root.insert_child(0, doc.new_attribute("early", "v"))
        assert root.children[0].is_attribute

    def test_element_cannot_go_before_attributes(self):
        doc = Document()
        root = doc.new_element("r")
        doc.set_root(root)
        root.append_child(doc.new_attribute("a", "1"))
        with pytest.raises(TreeStructureError):
            root.insert_child(0, doc.new_element("x"))

    def test_second_root_rejected(self):
        doc, *_ = small_document()
        with pytest.raises(TreeStructureError):
            doc.set_root(doc.new_element("another"))

    def test_non_element_root_rejected(self):
        doc = Document()
        with pytest.raises(TreeStructureError):
            doc.set_root(doc.new_text("nope"))


class TestDocumentOracles:
    def test_labeled_nodes_skips_text(self):
        doc, root, *_ = small_document()
        assert [n.name for n in doc.labeled_nodes()] == [
            "root", "first", "second",
        ]
        assert doc.labeled_size() == 3
        assert doc.size() == 4

    def test_document_order_index(self):
        doc, root, first, second = small_document()
        index = doc.document_order_index()
        assert index[root.node_id] == 0
        assert index[first.node_id] == 1
        assert index[second.node_id] == 2

    def test_node_by_id(self):
        doc, root, first, *_ = small_document()
        assert doc.node_by_id(first.node_id) is first
        with pytest.raises(TreeStructureError):
            doc.node_by_id(10**9)

    def test_validate_passes_on_good_tree(self):
        doc, *_ = small_document()
        doc.validate()

    def test_validate_detects_bad_parent_pointer(self):
        doc, root, first, second = small_document()
        first.parent = second  # corrupt on purpose
        with pytest.raises(TreeStructureError):
            doc.validate()

    def test_element_counts_follow_insert_and_remove(self):
        doc, root, first, second = small_document()
        assert (root.elements, first.elements, second.elements) == (3, 1, 1)
        branch = doc.new_element("branch")
        branch.append_child(doc.new_attribute("a", "1"))
        branch.append_child(doc.new_element("leaf"))
        second.append_child(branch)  # a detached subtree joins whole
        assert (root.elements, second.elements, branch.elements) == (5, 3, 2)
        root.remove_child(second)
        assert root.elements == 2 and second.elements == 3
        doc.validate()
        doc.clone().validate()  # the clone carries the counts

    def test_validate_detects_wrong_element_count(self):
        doc, root, first, second = small_document()
        first.elements += 1  # corrupt on purpose
        with pytest.raises(TreeStructureError, match="elements"):
            doc.validate()

    def test_clone_preserves_ids_and_structure(self):
        doc, root, first, second = small_document()
        copy = doc.clone()
        assert copy.root is not root
        assert [n.node_id for n in copy.all_nodes()] == [
            n.node_id for n in doc.all_nodes()
        ]
        # New nodes in the clone avoid id collisions.
        fresh = copy.new_element("fresh")
        assert fresh.node_id > max(n.node_id for n in doc.all_nodes())

    def test_prepost_ranks_match_figure_1b(self, sample):
        from repro.data.sample import FIGURE_1B_PRE_POST

        ranks = sample.preorder_postorder_ranks()
        in_order = [
            ranks[node.node_id] for node in sample.labeled_nodes()
        ]
        assert in_order == FIGURE_1B_PRE_POST


def plain_attributes(node):
    return [child for child in node.children
            if child.kind == NodeKind.ATTRIBUTE]


def assert_helpers_match_plain_filters(document):
    """Each per-node helper equals the plain filter over ``children``."""
    kinds = {NodeKind.ELEMENT, NodeKind.ATTRIBUTE}
    for node in document.all_nodes():
        children = node.children
        assert node.is_element == (node.kind == NodeKind.ELEMENT)
        assert node.is_attribute == (node.kind == NodeKind.ATTRIBUTE)
        assert node.is_text == (node.kind == NodeKind.TEXT)
        assert node.kind.is_labeled == (node.kind in kinds)
        attributes = plain_attributes(node)
        assert node.attributes() == attributes
        for name in {attribute.name for attribute in attributes} | {"none"}:
            assert node.attribute(name) is next(
                (attribute for attribute in attributes
                 if attribute.name == name), None)
        assert node.element_children() == [
            child for child in children if child.kind == NodeKind.ELEMENT]
        assert node.labeled_children() == [
            child for child in children if child.kind in kinds]
        assert node.text_value() == "".join(
            child.value or "" for child in children
            if child.kind == NodeKind.TEXT)


class TestHelpersMatchPlainFilters:
    """Kind checks compare by identity and attribute scans stop at the
    first content child; on any document, and after any update program,
    they answer as the plain filters over the children do."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(nodes=st.integers(min_value=1, max_value=120),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_on_random_documents(self, nodes, seed):
        from repro.xmlmodel.generator import random_document

        assert_helpers_match_plain_filters(random_document(nodes, seed=seed))

    def test_with_comments_and_processing_instructions(self):
        from repro.xmlmodel.parser import parse

        assert_helpers_match_plain_filters(parse(
            "<a x='1' y='2'><!--c--><?p d?>t<b z='3'>u<!--v-->w</b>"
            "<c/>tail</a>"))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(program=programs(max_size=10))
    def test_after_random_update_programs(self, program):
        from conftest import labeled
        from repro.xmlmodel.parser import parse

        ldoc = labeled(parse(DOCUMENT_XML), "qed")
        run_program(ldoc, ldoc.updates, program)
        assert_helpers_match_plain_filters(ldoc.document)


def chain(depth):
    """A document of ``depth`` nested elements under a root, each with an
    attribute, and a text child after each one (the chain of
    ``tests/store/test_deep_documents.py``, decorated)."""
    from repro.xmlmodel.parser import parse

    return parse("<a>" + "<b n='1'>" * depth + "</b>t" * depth + "</a>")


def recursive_postorder(node):
    for child in node.children:
        yield from recursive_postorder(child)
    yield node


def recursive_walk(node, visitor, depth=0):
    visitor(node, depth)
    for child in node.children:
        recursive_walk(child, visitor, depth + 1)


class TestDeepDocuments:
    """The whole-tree oracles walk explicit stacks: a chain ten times the
    recursion limit deep is no harder than a shallow document, and the
    output order is the recursive walk's."""

    DEPTH = 5000

    def test_postorder(self):
        doc = chain(self.DEPTH)
        # Postorder is the reverse of a preorder that visits children
        # right to left.
        mirrored, stack = [], [doc.root]
        while stack:
            node = stack.pop()
            mirrored.append(node)
            stack.extend(node.children)
        assert list(doc.root.postorder()) == mirrored[::-1]
        small = chain(40)
        assert list(small.root.postorder()) == list(
            recursive_postorder(small.root))

    def test_preorder_postorder_ranks(self):
        doc = chain(self.DEPTH)
        ranks = doc.preorder_postorder_ranks()
        labelled = list(doc.labeled_nodes())
        assert len(ranks) == len(labelled) == 2 * self.DEPTH + 1
        assert [ranks[node.node_id][0] for node in labelled] == list(
            range(len(labelled)))
        # The deepest element's attribute closes first, the root last.
        assert ranks[doc.root.node_id] == (0, len(labelled) - 1)
        small = chain(40)
        post = {node.node_id: rank for rank, node in enumerate(
            node for node in recursive_postorder(small.root)
            if node.kind.is_labeled)}
        assert small.preorder_postorder_ranks() == {
            node.node_id: (pre, post[node.node_id])
            for pre, node in enumerate(small.labeled_nodes())}

    def test_clone(self):
        doc = chain(self.DEPTH)
        copy = doc.clone()
        copy.validate()
        pairs = list(zip(doc.all_nodes(), copy.all_nodes()))
        assert len(pairs) == doc.size() == copy.size()
        assert all(
            (left.node_id, left.kind, left.name, left.value, left.elements)
            == (right.node_id, right.kind, right.name, right.value,
                right.elements) and left is not right
            for left, right in pairs)

    def test_walk(self):
        doc = chain(self.DEPTH)
        seen = []
        walk(doc.root, lambda node, depth: seen.append((node, depth)))
        assert [node for node, _depth in seen] == list(doc.root.preorder())
        assert max(depth for _node, depth in seen) == self.DEPTH + 1
        small = chain(40)
        expected = []
        recursive_walk(small.root,
                       lambda node, depth: expected.append((node, depth)))
        seen = []
        walk(small.root, lambda node, depth: seen.append((node, depth)))
        assert seen == expected
