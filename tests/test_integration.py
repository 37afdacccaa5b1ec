"""End-to-end integration: parse -> label -> update -> query -> reconstruct."""

import pytest

from conftest import labeled
from repro.axes.xpath import xpath
from repro.data.sample import SAMPLE_XML, sample_document
from repro.encoding.table import EncodingTable
from repro.updates.operations import adopt_subtree
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize


@pytest.mark.parametrize("scheme_name", [
    "prepost", "dewey", "ordpath", "qed", "cdqs", "vector",
])
class TestFullPipeline:
    def test_lifecycle(self, scheme_name):
        # 1. Parse the paper's sample file and label it.
        ldoc = labeled(parse(SAMPLE_XML), scheme_name)
        ldoc.verify_order()

        # 2. Structural updates: a new chapter subtree and an attribute.
        root = ldoc.document.root
        adopt_subtree(
            ldoc, root, len(root.children),
            "<chapter n='1'><heading>Intro</heading></chapter>",
        )
        title = root.element_children()[0]
        ldoc.updates.insert_attribute(title, "lang", "en")
        ldoc.verify_order()

        # 3. Content update.
        heading = [
            n for n in ldoc.document.labeled_nodes() if n.name == "heading"
        ][0]
        ldoc.updates.set_text(heading, "Introduction")

        # 4. Query through the mini XPath (labels drive the axes).
        assert [n.name for n in xpath(ldoc, "/book/chapter/heading")] == [
            "heading"
        ]
        assert [n.value for n in xpath(ldoc, "//chapter/@n")] == ["1"]
        assert [n.name for n in xpath(ldoc, "//heading/ancestor::*")] == [
            "book", "chapter",
        ]

        # 5. Encode, reconstruct, serialize (Definition 2 closure).
        table = EncodingTable.from_labeled_document(ldoc)
        rebuilt = table.reconstruct()
        assert [n.name for n in rebuilt.labeled_nodes()] == [
            n.name for n in ldoc.document.labeled_nodes()
        ]
        rendered = serialize(rebuilt)
        assert "Introduction" in rendered
        assert 'lang="en"' in rendered


def test_readme_quickstart_example():
    """The exact snippet from the package docstring must keep working."""
    from repro import LabeledDocument, make_scheme, parse as repro_parse

    doc = repro_parse("<a><b/><c/></a>")
    ldoc = LabeledDocument(doc, make_scheme("qed"))
    b = doc.root.element_children()[0]
    ldoc.updates.insert_after(b, "new")
    ldoc.verify_order()
    assert ldoc.log.relabeled_nodes == 0


def test_version_exposed():
    import repro

    assert repro.__version__
