"""One query path, checked against the code it replaced under updates.

The document's index (``ldoc.accelerator()``) answers XPath, ``find``,
``find_value`` and ``descendant_path``.  After every step of a random
update program — run through ``ldoc.updates``, through a batch, through
a transaction that is rolled back, and through a batch applied inside a
transaction that is then rolled back — each must equal its reference:
the scan-path evaluator of ``tests/reference_xpath.py``, the
whole-document rebuild of ``tests/reference_indexes.py``, and, axis by
axis with and without a name test and an attribute-value test, the
dense index of ``tests/reference_accelerator.py`` built from scratch,
whose value maps the index's must equal.  The
``ElementTree.findall`` subset (``/``, ``//``, ``[tag]``, ``[@a='v']``,
``[n]``) must also agree with the standard library on the serialised
document.  While a batch holds pending (unlabelled) nodes, every query
through ``xpath()`` and ulang's ``resolve_targets`` must equal the
tree-pointer resolver of ``tests/reference_ulang.py``, EXPLAIN must
read the index, statistics must equal ``tests/reference_stats.py``'s,
and the label-pairing lookups must refuse with ``StaleIndexError``.
No batch apply or rollback may rebuild the index: they splice.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import all_scheme_names, labeled
from reference_accelerator import (DenseAccelerator, assert_value_maps,
                                   attribute_pairs)
from reference_indexes import reference_indexes
from reference_stats import fields, reference_refresh
from reference_ulang import reference_resolve_targets
from reference_xpath import reference_xpath
from repro.axes.xpath import xpath
from repro.axes.xpath_ast import AXES
from repro.errors import StaleIndexError
from repro.observability.explain import explain_query
from repro.observability.metrics import get_registry
from repro.observability.stats import StatsCollector
from repro.store.repository import StoredDocument
from repro.ulang import resolve_targets
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from update_programs import DOCUMENT_XML, programs, run_program, run_step

#: Every axis of the grammar, with predicates, unions and merges.
QUERIES = (
    "//*", "/*/*[2]", "//person/name", "//*/..", "//@*", "//item/@id",
    "//name/ancestor::*", "//name/ancestor-or-self::*[1]",
    "//people/descendant::*", "//items/descendant-or-self::*",
    "//person/following::*", "//item/preceding::*[2]",
    "//person/following-sibling::*", "//*/preceding-sibling::*[1]",
    "//person/self::person", "//name/parent::*", "//*/child::*[1]",
    "//*[@id] | //name", "//person[@id='p2']/city", "//item[desc]",
    "//people//name", "//person/following::name", "//item/preceding::person",
    "//*[@id]/descendant-or-self::name",
)

#: ``[@a='v']`` steps on the child, descendant and descendant-or-self
#: axes, which read the index's value maps, and on ancestor, which
#: filters; each is run for the document as it stands with the pairs of
#: :func:`value_tests`.
VALUE_QUERIES = (
    "//*[@{a}='{v}']", "/*/*[@{a}='{v}']/*",
    "//people/descendant::*[@{a}='{v}']", "//person[@{a}='{v}']/name",
    "//items/descendant-or-self::*[@{a}='{v}'][1]",
    "//name/ancestor::*[@{a}='{v}']",
)

#: ``find`` names (``id`` is an attribute) and ``find_value`` values.
NAMES = ("person", "name", "item", "id", "leaf", "graft", "n1", "n2")
VALUES = ("Ann", "Bob", "p1", "bold", "text", "t1", "t2", "v1", "v2")

#: ``descendant_path`` chains of element names.
JOIN_PATHS = (("site", "item"), ("people", "person", "name"),
              ("items", "b"), ("graft", "leaf"))

#: Paths ElementTree and the mini-XPath read alike, from the root.
FINDALL_PATHS = (
    "*", ".//person", "people/person", ".//person[@id='p1']",
    ".//item[desc]", "people/person[2]", "*/person[1]", ".//*[@id]",
    ".//leaf", "items/item[1]", "*/*/name",
)

#: The slowest schemes here (1.5-1.8 s for 12 examples; the others
#: 1.0-1.5 s) get half the examples.
SLOW_SCHEMES = ("ordpath", "dde", "cdbs", "dln")


def assert_same(got, expected, what):
    assert [node.node_id for node in got] == [
        node.node_id for node in expected
    ], what
    assert all(left is right for left, right in zip(got, expected)), what


def value_tests(ldoc):
    """The pairs the XPath-level value queries run: the first ``id``
    value, the first value a program wrote (``v0`` to ``v99``) and an
    ``id`` value none has."""
    pairs = attribute_pairs(ldoc.document.labeled_nodes())
    chosen = [next((pair for pair in pairs if test(pair)), None)
              for test in (lambda pair: pair[0] == "id",
                           lambda pair: pair[1].startswith("v"))]
    return [pair for pair in chosen if pair is not None] + [pairs[-1]]


def check_index(ldoc):
    """Every axis from every node, bare and with name tests, against the
    dense index built from scratch: in order and by identity; and the
    attribute-value tests from every element."""
    index = ldoc.accelerator()
    dense = DenseAccelerator(ldoc)
    nodes = dense.nodes()
    assert_same(index.nodes(), nodes, "document order")
    for node in nodes:
        for axis in AXES:
            for name in (None, node.name, "name"):
                assert_same(index.evaluate(axis, node, name),
                            dense.evaluate(axis, node, name),
                            (axis, node.name, name))
    pairs = attribute_pairs(nodes)
    for node in nodes:
        if not node.is_element:
            continue
        for axis in ("child", "descendant", "descendant-or-self",
                     "following"):
            for name in (None, "person"):
                for pair in pairs:
                    assert_same(index.evaluate(axis, node, name, pair),
                                dense.evaluate(axis, node, name, pair),
                                (axis, node.name, name, pair))
    assert_value_maps(index, dense)


def check_queries(stored):
    ldoc = stored.ldoc
    check_index(ldoc)
    by_name, by_value = reference_indexes(ldoc)
    for name in NAMES:
        assert_same(stored.find(name),
                    [node for _label, node in by_name.get(name, [])], name)
    for value in VALUES:
        assert_same(stored.find_value(value),
                    [node for _label, node in by_value.get(value, [])],
                    value)
    check_findall(ldoc)
    if ldoc.log.collisions:
        # LSDX and ComD can assign duplicate labels (section 3.1.2);
        # after one, label decisions are no oracle, and the structural
        # joins decide from labels too.  The walk and the standard
        # library above still are.
        return
    for path in QUERIES:
        assert_same(xpath(ldoc, path), reference_xpath(ldoc, path), path)
    for name, value in value_tests(ldoc):
        for template in VALUE_QUERIES:
            path = template.format(a=name, v=value)
            assert_same(xpath(ldoc, path), reference_xpath(ldoc, path), path)
    for names in JOIN_PATHS:
        path = "//" + "//".join(names)
        assert_same(stored.descendant_path(names),
                    reference_xpath(ldoc, path), path)


def check_pending(stored):
    """Queries while a batch has pending nodes: the index answers them
    as the tree does, EXPLAIN reads it and statistics count the pending
    nodes; the lookups that pair nodes with labels refuse."""
    ldoc = stored.ldoc
    for path in QUERIES:
        expected = reference_resolve_targets(ldoc, path)
        assert_same(xpath(ldoc, path), expected, path)
        assert_same(resolve_targets(ldoc, path), expected, path)
    plan = explain_query(ldoc, QUERIES[0], analyze=True)
    assert {step.strategy for step in plan.steps} == {"accelerator-window"}
    live, oracle = StatsCollector(), StatsCollector()
    live.refresh(ldoc)
    reference_refresh(oracle, ldoc)
    assert fields(live) == fields(oracle)
    for lookup, argument in ((stored.find, "person"),
                             (stored.find_value, "Ann"),
                             (stored.descendant_path, ("site", "item"))):
        with pytest.raises(StaleIndexError):
            lookup(argument)


def check_findall(ldoc):
    """The mini-XPath against ``ElementTree.findall``, node for node."""
    root = ldoc.document.root
    tree = ET.fromstring(serialize(ldoc.document))
    ours = [node for node in root.preorder() if node.is_element]
    theirs = list(tree.iter())
    assert [node.name for node in ours] == [element.tag
                                           for element in theirs]
    element_of = {node.node_id: element
                  for node, element in zip(ours, theirs)}
    for path in FINDALL_PATHS:
        got = [element_of[node.node_id]
               for node in xpath(ldoc, path, context=root)]
        expected = tree.findall(path)
        assert len(got) == len(expected) and all(
            left is right for left, right in zip(got, expected)), path


def fresh(scheme_name):
    return StoredDocument("doc", labeled(parse(DOCUMENT_XML), scheme_name))


def builds():
    return get_registry().counter("axes.accelerator.builds").value


def run_and_check(scheme_name, program):
    # Per operation.
    stored = fresh(scheme_name)
    ldoc = stored.ldoc
    check_queries(stored)
    for serial, step in enumerate(program):
        run_step(ldoc, ldoc.updates, step, serial)
        check_queries(stored)
    # Through a batch: the index answers whether or not nodes are
    # pending; the label lookups answer again once it applies.
    stored = fresh(scheme_name)
    ldoc = stored.ldoc
    check_queries(stored)
    built = builds()
    with ldoc.batch() as batch:
        for serial, step in enumerate(program):
            run_step(ldoc, batch, step, serial)
            if batch.pending:
                check_pending(stored)
            else:
                check_queries(stored)
    assert builds() == built  # every node was spliced as it was attached
    check_queries(stored)
    # Through a transaction that rolls back.
    before = [node.node_id for node in ldoc.document.labeled_nodes()]
    with pytest.raises(RuntimeError):
        with ldoc.transaction() as txn:
            for serial, step in enumerate(program, len(program)):
                run_step(ldoc, txn, step, serial)
                check_queries(stored)
            raise RuntimeError("roll back")
    assert [node.node_id for node in ldoc.document.labeled_nodes()] == before
    check_queries(stored)
    # Through a batch applied inside a transaction that then rolls back.
    with pytest.raises(RuntimeError):
        with ldoc.transaction():
            with ldoc.batch() as batch:
                run_program(ldoc, batch, program, 2 * len(program))
            check_queries(stored)
            raise RuntimeError("roll back")
    assert [node.node_id for node in ldoc.document.labeled_nodes()] == before
    assert builds() == built  # rollbacks spliced too
    check_queries(stored)


@pytest.mark.parametrize("scheme_name", all_scheme_names())
def test_one_query_path_matches_its_references(scheme_name):
    examples = 6 if scheme_name in SLOW_SCHEMES else 12

    @settings(max_examples=examples, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=programs(max_size=6))
    def check(program):
        run_and_check(scheme_name, program)

    check()


def test_every_query_axis_is_covered():
    from repro.axes.xpath_ast import AXES, parse_path, split_union

    axes = {step.axis for query in QUERIES for branch in split_union(query)
            for step in parse_path(branch)[1]}
    assert axes == set(AXES)
    valued = {step.axis for query in VALUE_QUERIES
              for step in parse_path(query.format(a="id", v="p1"))[1]
              if step.predicates and step.predicates[0] == "@id='p1'"}
    assert valued == {"child", "descendant", "descendant-or-self",
                      "ancestor"}


def test_attributes_renamed_onto_and_off_id():
    # Value maps built for ``id`` and ``region`` follow attributes renamed
    # between them, value changes on either side of a rename, an
    # attribute inserted onto a name with a map, and rollbacks of all of
    # these, on a persistent scheme and on one whose batches defer.
    for scheme_name in ("qed", "dewey"):
        stored = fresh(scheme_name)
        ldoc = stored.ldoc
        check_queries(stored)
        built = builds()
        root = ldoc.document.root
        region = root.attribute("region")
        person = stored.find("person")[1]
        ldoc.updates.rename(region, "id")  # onto id
        ldoc.updates.set_attribute_value(region, "p2")  # shares p2
        check_queries(stored)
        assert xpath(ldoc, "//*[@id='p2']") == [root, person]
        ldoc.updates.rename(person.attribute("id"), "region")  # off id
        ldoc.updates.insert_attribute(person, "id", "p2")
        check_queries(stored)
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                with ldoc.batch() as batch:
                    batch.insert_before(person, "person")
                    batch.rename(region, "key")
                    batch.set_attribute_value(person.attribute("region"),
                                              "p1")
                check_queries(stored)
                ldoc.updates.delete(person)
                check_queries(stored)
                raise RuntimeError("roll back")
        check_queries(stored)
        assert xpath(ldoc, "//*[@id='p2']") == [root, person]
        assert xpath(ldoc, "/site/people/*[@region='p2']") == [person]
        assert builds() == built


def test_renames_move_nodes_between_name_lists():
    # Renames onto names the index already lists, and back by rollback,
    # on a persistent scheme and on one whose batches defer (dewey).
    for scheme_name in ("qed", "dewey"):
        stored = fresh(scheme_name)
        ldoc = stored.ldoc
        check_queries(stored)
        built = builds()
        people = stored.find("person")
        items = stored.find("item")
        ldoc.updates.rename(people[0], "item")
        ldoc.updates.rename(items[1], "person")
        ldoc.updates.rename(stored.find("name")[0], "id")  # an attribute's
        check_queries(stored)
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                with ldoc.batch() as batch:
                    batch.insert_before(people[1], "person")
                    batch.rename(people[1], "name")
                    batch.rename(stored.ldoc.document.root, "people")
                check_queries(stored)
                raise RuntimeError("roll back")
        check_queries(stored)
        assert [node.name for node in stored.find("item")][:1] == ["item"]
        assert builds() == built


def test_a_fixed_program_of_every_kind():
    # Every update kind whatever hypothesis draws, on a persistent
    # scheme and on sector, whose moves run full relabels.
    program = [("insert-subtree", 1, 0), ("move", 3, 2), ("delete", 5, 0),
               ("rename", 2, 0), ("set-text", 4, 1),
               ("insert-attribute", 0, 3), ("prepend-child", 1, 0),
               ("insert-before", 2, 0), ("append-child", 0, 0),
               ("set-attribute-value", 0, 1), ("insert-after", 1, 0)]
    for scheme_name in ("qed", "sector"):
        stored = fresh(scheme_name)
        run_program(stored.ldoc, stored.ldoc.updates, program)
        check_queries(stored)
