"""An update may not give an element a second attribute of one name.

``serialize`` would write the name twice (``<b id="1" id="2"/>``), and
``parse`` refuses such a document (``duplicate attribute``), so a
stored document persisted after the update could not be reopened.
``insert_attribute`` and an attribute ``rename`` refuse with
``UpdateError`` before anything changes, on every surface: the
per-operation surface, a batch, a transaction and an update-language
program.  The journal holds element operations only, so it never
replays one.
"""

import pytest

import repro.ulang
from repro.axes.xpath import xpath
from repro.durability.journal import Journal, recover
from repro.errors import UpdateError
from repro.observability.stats import StatsCollector
from repro.schemes.registry import make_scheme
from repro.store.repository import open_repository
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize

XML = "<a><b id='1' k='2'>t</b><c/></a>"

SURFACES = ["per-op", "batch", "transaction"]


def refuse(ldoc, surface, action):
    """Run ``action(surface object)`` and expect the refusal."""
    with pytest.raises(UpdateError, match="already has an attribute"):
        if surface == "per-op":
            action(ldoc.updates)
        elif surface == "batch":
            with ldoc.batch() as batch:
                action(batch)
        else:
            with ldoc.transaction():
                action(ldoc.updates)


def state(ldoc):
    """The document, its labels and what its index answers."""
    index = ldoc.accelerator()
    return (
        serialize(ldoc.document),
        dict(ldoc.labels),
        [node.node_id for node in index.nodes()],
        [node.node_id for node in xpath(ldoc, "//b[@id='1']")],
        [node.node_id for node in xpath(ldoc, "//*[@k='2']")],
        index.counts(),
    )


def insert_duplicate(ldoc):
    b = ldoc.document.root.element_children()[0]
    return lambda surface: surface.insert_attribute(b, "id", "2")


def rename_onto_duplicate(ldoc):
    b = ldoc.document.root.element_children()[0]
    return lambda surface: surface.rename(b.attribute("k"), "id")


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("make_action",
                         [insert_duplicate, rename_onto_duplicate])
@pytest.mark.parametrize("scheme", ["qed", "dewey", "prepost"])
def test_refused_with_nothing_changed(tmp_path, scheme, make_action,
                                      surface):
    ldoc = LabeledDocument(parse(XML), make_scheme(scheme))
    StatsCollector.collect(ldoc)
    journal = Journal.create(tmp_path / "d.journal", ldoc, name="d")
    before = state(ldoc)
    version = ldoc.document.structure_version
    refuse(ldoc, surface, make_action(ldoc))
    assert not ldoc.accelerator().stale
    assert ldoc.document.structure_version == version
    assert state(ldoc) == before
    journal.close()
    recovered = recover(tmp_path / "d.journal")
    assert recovered.operations_applied == 0
    assert serialize(recovered.ldoc.document) == before[0]


def test_an_update_program_is_refused_and_rolled_back():
    ldoc = LabeledDocument(parse(XML), make_scheme("dewey"))
    before = state(ldoc)
    with pytest.raises(UpdateError, match="already has an attribute"):
        repro.ulang.run_program(
            ldoc, "insert <d/> into /a/c;\nrename /a/b/@k as id;\n")
    assert state(ldoc) == before


def test_other_names_and_a_rename_onto_itself_pass():
    ldoc = LabeledDocument(parse(XML), make_scheme("qed"))
    b = ldoc.document.root.element_children()[0]
    ldoc.updates.rename(b.attribute("k"), "k")
    ldoc.updates.insert_attribute(b, "x", "3")
    ldoc.updates.rename(b.attribute("x"), "y")
    c = ldoc.document.root.element_children()[1]
    ldoc.updates.insert_attribute(c, "id", "1")  # another element's id
    assert serialize(ldoc.document) == (
        '<a><b id="1" k="2" y="3">t</b><c id="1"/></a>')


@pytest.mark.parametrize("backend", ["sqlite", "pagefile"])
def test_a_persisted_document_reopens(tmp_path, backend):
    url = f"{backend}:///{tmp_path}/store.{backend}"
    repository = open_repository(url)
    stored = repository.add("d", XML, scheme="qed")
    for make_action in (insert_duplicate, rename_onto_duplicate):
        with pytest.raises(UpdateError):
            make_action(stored.ldoc)(stored.ldoc.updates)
    expected = serialize(stored.ldoc.document)
    repository.persist("d")
    repository.close()
    with open_repository(url) as reopened:
        assert serialize(reopened.get("d").ldoc.document) == expected
