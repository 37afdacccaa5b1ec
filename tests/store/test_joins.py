"""Structural joins: correctness against the nested-loop baseline."""

import pytest

from conftest import fresh_random_document, labeled
from repro.data.sample import sample_document
from repro.store.joins import (
    count_join,
    nested_loop_join,
    path_join,
    semi_join,
    stack_tree_join,
)


def entries(ldoc, name):
    return [
        (ldoc.label_of(node), node)
        for node in ldoc.document.labeled_nodes()
        if node.name == name
    ]


def all_entries(ldoc, predicate=lambda node: node.is_element):
    return [
        (ldoc.label_of(node), node)
        for node in ldoc.document.labeled_nodes()
        if predicate(node)
    ]


@pytest.mark.parametrize("scheme_name", ["prepost", "qed", "vector", "dewey"])
class TestStackTreeJoin:
    def test_matches_nested_loop_on_sample(self, scheme_name):
        ldoc = labeled(sample_document(), scheme_name)
        ancestors = entries(ldoc, "publisher") + entries(ldoc, "editor")
        ancestors = sorted(
            ancestors, key=lambda item: item[1].node_id
        )
        descendants = all_entries(ldoc, lambda n: n.is_element and not n.labeled_children())
        merged = stack_tree_join(ldoc.scheme, ancestors, descendants)
        baseline = nested_loop_join(ldoc.scheme, ancestors, descendants)
        assert sorted(
            (a.node_id, d.node_id) for a, d in merged
        ) == sorted((a.node_id, d.node_id) for a, d in baseline)

    def test_matches_nested_loop_on_random_document(self, scheme_name):
        ldoc = labeled(fresh_random_document(90, seed=71), scheme_name)
        ancestors = entries(ldoc, "section") + entries(ldoc, "chapter")
        ancestors.sort(key=lambda item: item[1].node_id)
        descendants = entries(ldoc, "item") + entries(ldoc, "record")
        descendants.sort(key=lambda item: item[1].node_id)
        merged = stack_tree_join(ldoc.scheme, ancestors, descendants)
        baseline = nested_loop_join(ldoc.scheme, ancestors, descendants)
        assert sorted(
            (a.node_id, d.node_id) for a, d in merged
        ) == sorted((a.node_id, d.node_id) for a, d in baseline)

    def test_count_join_matches_output_size(self, scheme_name):
        ldoc = labeled(fresh_random_document(90, seed=72), scheme_name)
        ancestors = all_entries(
            ldoc, lambda n: n.is_element and n.name in ("section", "book")
        )
        descendants = all_entries(ldoc, lambda n: n.is_element and not n.labeled_children())
        assert count_join(ldoc.scheme, ancestors, descendants) == len(
            stack_tree_join(ldoc.scheme, ancestors, descendants)
        )


class TestSemiJoinAndPath:
    def test_semi_join_keeps_contained_descendants(self):
        ldoc = labeled(sample_document(), "qed")
        editors = entries(ldoc, "editor")
        leaves = all_entries(ldoc, lambda n: n.is_element and not n.labeled_children())
        kept = semi_join(ldoc.scheme, editors, leaves)
        assert [node.name for _l, node in kept] == ["name", "address"]

    def test_semi_join_preserves_document_order(self):
        ldoc = labeled(fresh_random_document(80, seed=73), "qed")
        sections = entries(ldoc, "section")
        elements = all_entries(ldoc)
        kept = semi_join(ldoc.scheme, sections, elements)
        ids = [node.node_id for _l, node in kept]
        order = {
            node.node_id: i
            for i, node in enumerate(ldoc.document.labeled_nodes())
        }
        assert ids == sorted(ids, key=lambda i: order[i])

    def test_path_join_matches_xpath(self):
        from repro.axes.xpath import xpath

        ldoc = labeled(sample_document(), "qed")
        levels = [
            entries(ldoc, "book"),
            entries(ldoc, "publisher"),
            entries(ldoc, "name"),
        ]
        joined = path_join(ldoc.scheme, levels)
        expected = xpath(ldoc, "//book//publisher//name")
        assert [node.node_id for _l, node in joined] == [
            node.node_id for node in expected
        ]

    def test_empty_levels(self):
        ldoc = labeled(sample_document(), "qed")
        assert path_join(ldoc.scheme, []) == []
        assert path_join(ldoc.scheme, [[], entries(ldoc, "name")]) == []

    def test_join_works_after_updates(self):
        ldoc = labeled(sample_document(), "qed")
        editor = next(
            n for n in ldoc.document.labeled_nodes() if n.name == "editor"
        )
        ldoc.updates.append_child(editor, "phone")
        ancestors = entries(ldoc, "editor")
        descendants = sorted(
            entries(ldoc, "phone") + entries(ldoc, "name"),
            key=lambda item: item[1].node_id,
        )
        merged = stack_tree_join(ldoc.scheme, ancestors, descendants)
        assert {d.name for _a, d in merged} == {"phone", "name"}
