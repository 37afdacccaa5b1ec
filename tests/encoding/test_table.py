"""Encoding scheme tests: the Figure 2 table and Definition 2 reconstruction."""

import pytest

from conftest import labeled
from repro.data.sample import FIGURE_2_ROWS, sample_document
from repro.encoding.table import EncodingTable
from repro.updates.document import LabeledDocument
from repro.xmlmodel.serializer import serialize


def prepost_table():
    return EncodingTable.from_labeled_document(
        labeled(sample_document(), "prepost")
    )


class TestFigure2:
    def test_rows_match_figure_2(self):
        table = prepost_table()
        rows = [
            (
                row.label.pre,
                row.label.post,
                row.node_type,
                None if row.parent_label is None else row.parent_label.pre,
                row.name,
                row.value,
            )
            for row in table
        ]
        assert rows == FIGURE_2_ROWS

    def test_render_contains_headers_and_rows(self):
        rendered = prepost_table().render()
        assert "Node Type" in rendered
        assert "Wayfarer" in rendered
        assert "Attribute" in rendered

    def test_length(self):
        assert len(prepost_table()) == 10


class TestQueries:
    def test_children_of(self):
        table = prepost_table()
        root_label = table.rows[0].label
        children = table.children_of(root_label)
        assert [row.name for row in children] == [
            "title", "author", "publisher",
        ]

    def test_row_by_label(self):
        table = prepost_table()
        row = table.row_by_label(table.rows[3].label)
        assert row.name == "author"

    def test_row_by_unknown_label_raises(self):
        table = prepost_table()
        with pytest.raises(Exception):
            table.row_by_label("nonsense")

    def test_sorted_rows_equal_document_order(self):
        table = prepost_table()
        assert table.sorted_rows() == table.rows


@pytest.mark.parametrize("scheme_name", [
    "prepost", "dewey", "qed", "cdqs", "vector", "ordpath",
])
class TestReconstruction:
    def test_reconstruct_round_trips(self, scheme_name):
        """Definition 2: the encoding permits full reconstruction."""
        original = sample_document()
        table = EncodingTable.from_labeled_document(
            labeled(original, scheme_name)
        )
        rebuilt = table.reconstruct()
        assert _structure(rebuilt) == _structure_normalised(original)

    def test_reconstruct_after_updates(self, scheme_name):
        ldoc = labeled(sample_document(), scheme_name)
        root = ldoc.document.root
        ldoc.updates.append_child(root, "extra")
        ldoc.updates.insert_attribute(root.element_children()[0], "lang", "en")
        table = EncodingTable.from_labeled_document(ldoc)
        rebuilt = table.reconstruct()
        names = [n.name for n in rebuilt.labeled_nodes()]
        assert "extra" in names
        assert "lang" in names


def _structure(document):
    return [
        (node.name, node.kind.value, node.depth(),
         (node.value or node.text_value() or "").strip())
        for node in document.labeled_nodes()
    ]


def _structure_normalised(document):
    return [
        (node.name, node.kind.value, node.depth(),
         (node.value if node.is_attribute else node.text_value()).strip()
         if (node.value or node.text_value()) else "")
        for node in document.labeled_nodes()
    ]
